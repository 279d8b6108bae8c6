#include "metrics/mutual_fidelity.h"

#include <algorithm>

#include "metrics/sweep_cursor.h"
#include "util/check.h"

namespace broadway {

double MutualTemporalReport::fidelity_violations() const {
  if (polls == 0) return 1.0;
  return 1.0 -
         static_cast<double>(violations) / static_cast<double>(polls);
}

double MutualTemporalReport::fidelity_time() const {
  if (horizon <= 0.0) return 1.0;
  return 1.0 - out_sync_time / horizon;
}

namespace {

// The copy of one object the proxy holds as the sweep moves forward: the
// last poll completed at or before the sweep instant, and the validity
// interval of the version it captured.  The validity is recomputed only
// when the cursor moves.
class HeldCopy {
 public:
  HeldCopy(const UpdateTrace& trace, const std::vector<PollInstant>& polls,
           TimePoint t)
      : trace_(trace), polls_(polls) {
    advance_to(t);
  }

  void advance_to(TimePoint t) {
    const std::size_t done =
        detail::count_at_or_before(polls_, polls_done_, t, detail::completion);
    if (done == polls_done_) return;
    polls_done_ = done;
    version_ = detail::count_at_or_before(trace_.updates(), version_,
                                          polls_[done - 1].snapshot,
                                          [](TimePoint u) { return u; });
    validity_ = trace_.validity_of_version(version_);
  }

  // First completion after the sweep instant; infinity when none is left.
  TimePoint next_completion() const {
    return polls_done_ < polls_.size() ? polls_[polls_done_].complete
                                       : kTimeInfinity;
  }

  const ValidityInterval& validity() const { return validity_; }

 private:
  const UpdateTrace& trace_;
  const std::vector<PollInstant>& polls_;
  std::size_t polls_done_ = 0;  // polls completed at or before the instant
  std::size_t version_ = 0;     // version the last of them captured
  ValidityInterval validity_;
};

}  // namespace

MutualTemporalReport evaluate_mutual_temporal(
    const UpdateTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const UpdateTrace& trace_b, const std::vector<PollInstant>& polls_b,
    Duration delta_mutual, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls_a.empty() && !polls_b.empty(),
                     "both objects need at least the initial fetch");
  BROADWAY_CHECK_MSG(delta_mutual >= 0.0, "delta " << delta_mutual);
  BROADWAY_CHECK_MSG(horizon > 0.0, "horizon " << horizon);
  detail::check_completion_order(polls_a);
  detail::check_completion_order(polls_b);

  MutualTemporalReport report;
  report.horizon = horizon;
  report.polls = polls_a.size() + polls_b.size();

  // Segment boundaries: `start`, every completion of either schedule in
  // (start, horizon), and `horizon`.  The pair state is constant between
  // boundaries.
  const TimePoint start =
      std::max(polls_a.front().complete, polls_b.front().complete);
  BROADWAY_CHECK_MSG(start <= horizon, "queried before the first fetch");
  HeldCopy a(trace_a, polls_a, start);
  HeldCopy b(trace_b, polls_b, start);

  bool previously_violated = false;
  for (TimePoint t0 = start; t0 < horizon;) {
    const TimePoint t1 =
        std::min({a.next_completion(), b.next_completion(), horizon});
    const bool violated =
        interval_gap(a.validity(), b.validity()) > delta_mutual;
    if (violated) {
      report.out_sync_time += t1 - t0;
      if (!previously_violated) ++report.violations;
    }
    previously_violated = violated;
    t0 = t1;
    a.advance_to(t0);
    b.advance_to(t0);
  }
  return report;
}

}  // namespace broadway
