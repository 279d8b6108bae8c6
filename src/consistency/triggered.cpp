#include "consistency/triggered.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

TriggeredPollCoordinator::TriggeredPollCoordinator(
    std::vector<std::string> members, Duration delta_mutual)
    : members_(std::move(members)), delta_mutual_(delta_mutual) {
  BROADWAY_CHECK_MSG(members_.size() >= 2, "group needs >= 2 members");
  BROADWAY_CHECK_MSG(delta_mutual_ >= 0.0, "delta " << delta_mutual_);
}

void TriggeredPollCoordinator::on_bind() {
  member_ids_ = resolve_members(members_);
}

void TriggeredPollCoordinator::on_poll(ObjectId object,
                                       const TemporalPollObservation& obs) {
  if (!obs.modified) return;
  BROADWAY_CHECK_MSG(hooks_.trigger_poll, "coordinator used before bind()");
  // The engine's subscriber index only delivers member polls; direct
  // callers may not, and a non-member poll must change nothing.
  if (std::find(member_ids_.begin(), member_ids_.end(), object) ==
      member_ids_.end()) {
    return;
  }
  for (const ObjectId member : member_ids_) {
    if (member == object) continue;
    if (!outside_delta_window(member, obs.poll_time, delta_mutual_)) {
      continue;
    }
    ++triggers_requested_;
    // The triggered poll recursively enters on_poll for `member`; the
    // δ-window test then sees a zero-age last poll for it, so cascades
    // terminate.
    hooks_.trigger_poll(member);
  }
}

}  // namespace broadway
