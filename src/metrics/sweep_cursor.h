// Cursor helpers shared by the evaluators' event sweeps.  A sweep moves
// forward in time, so each cursor walks forward through its sorted vector
// instead of searching it from scratch at every segment: a sweep costs
// O(events), not O(events · log n).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "metrics/fidelity.h"
#include "util/check.h"
#include "util/time.h"

namespace broadway::detail {

/// Number of elements of `sorted` (ascending by `key`) whose key is at or
/// before `t`, found from `hint`, the answer for some earlier query.  A
/// forward walk while `t` has not stepped back past element `hint - 1`; a
/// binary search below `hint` when it has (a relay logged at its delivery
/// carries the sender's earlier snapshot, so fleet logs are not
/// snapshot-monotone).
template <typename T, typename Key>
std::size_t count_at_or_before(const std::vector<T>& sorted, std::size_t hint,
                               TimePoint t, Key key) {
  if (hint > 0 && t < key(sorted[hint - 1])) {
    return static_cast<std::size_t>(
        std::upper_bound(sorted.begin(), sorted.begin() + hint, t,
                         [&key](TimePoint lhs, const T& rhs) {
                           return lhs < key(rhs);
                         }) -
        sorted.begin());
  }
  while (hint < sorted.size() && key(sorted[hint]) <= t) ++hint;
  return hint;
}

/// Completion instant of a poll: the key poll cursors sweep by.
inline constexpr auto completion = [](const PollInstant& poll) {
  return poll.complete;
};

/// The evaluators' precondition on a poll schedule: completions do not
/// decrease.  O(n); a cursor sweep would silently mis-score unsorted input.
inline void check_completion_order(const std::vector<PollInstant>& polls) {
  for (std::size_t k = 1; k < polls.size(); ++k) {
    BROADWAY_CHECK_MSG(polls[k].complete >= polls[k - 1].complete,
                       "polls out of order");
  }
}

}  // namespace broadway::detail
