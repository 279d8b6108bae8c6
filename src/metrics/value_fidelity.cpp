#include "metrics/value_fidelity.h"

#include <algorithm>
#include <cmath>

#include "metrics/sweep_cursor.h"
#include "util/check.h"

namespace broadway {

double ValueFidelityReport::fidelity_violations() const {
  if (windows == 0) return 1.0;
  return 1.0 -
         static_cast<double>(violations) / static_cast<double>(windows);
}

double ValueFidelityReport::fidelity_time() const {
  if (horizon <= 0.0) return 1.0;
  return 1.0 - out_sync_time / horizon;
}

ValueFidelityReport evaluate_value_fidelity(
    const ValueTrace& trace, const std::vector<PollInstant>& polls,
    double delta, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls.empty(), "no polls to evaluate");
  BROADWAY_CHECK_MSG(delta > 0.0, "delta " << delta);
  BROADWAY_CHECK_MSG(horizon > 0.0, "horizon " << horizon);
  detail::check_completion_order(polls);

  ValueFidelityReport report;
  report.horizon = horizon;
  for (std::size_t k = 0; k < polls.size(); ++k) {
    const TimePoint window_begin = polls[k].complete;
    const TimePoint window_end =
        k + 1 < polls.size() ? polls[k + 1].complete : horizon;
    ++report.windows;
    if (window_begin >= window_end) continue;
    const double cached = trace.value_at(polls[k].snapshot);
    const Duration span = trace.time_deviation_at_least(
        window_begin, window_end, cached, delta);
    if (span > 0.0) {
      ++report.violations;
      report.out_sync_time += span;
    }
  }
  return report;
}

double MutualValueReport::fidelity_violations() const {
  if (polls == 0) return 1.0;
  return 1.0 -
         static_cast<double>(violations) / static_cast<double>(polls);
}

double MutualValueReport::fidelity_time() const {
  if (horizon <= 0.0) return 1.0;
  return 1.0 - out_sync_time / horizon;
}

namespace {

// Number of steps of `trace` at or before `t`, searched from `hint`.
std::size_t steps_at_or_before(const ValueTrace& trace, std::size_t hint,
                               TimePoint t) {
  return detail::count_at_or_before(
      trace.steps(), hint, t,
      [](const ValueTrace::Step& step) { return step.time; });
}

// Value after `steps` steps of `trace`.
double value_after(const ValueTrace& trace, std::size_t steps) {
  return steps == 0 ? trace.initial_value() : trace.steps()[steps - 1].value;
}

// One member of a group as the sweep moves forward: its server value, and
// the value of the copy the proxy holds (the server value at the snapshot
// of the last poll completed at or before the sweep instant).
class GroupMember {
 public:
  GroupMember(const ValueTrace& trace, const std::vector<PollInstant>& polls)
      : trace_(trace), polls_(polls), server_(trace.initial_value()) {}

  void advance_to(TimePoint t) {
    const std::size_t steps = steps_at_or_before(trace_, steps_done_, t);
    if (steps != steps_done_) {
      steps_done_ = steps;
      server_ = value_after(trace_, steps);
    }
    const std::size_t done =
        detail::count_at_or_before(polls_, polls_done_, t, detail::completion);
    BROADWAY_CHECK_MSG(done > 0, "queried before the first fetch");
    if (done != polls_done_) {
      polls_done_ = done;
      held_steps_ =
          steps_at_or_before(trace_, held_steps_, polls_[done - 1].snapshot);
      proxy_ = value_after(trace_, held_steps_);
    }
  }

  // First step or completion after the sweep instant; infinity when none.
  TimePoint next_event() const {
    const auto& steps = trace_.steps();
    return std::min(
        steps_done_ < steps.size() ? steps[steps_done_].time : kTimeInfinity,
        polls_done_ < polls_.size() ? polls_[polls_done_].complete
                                    : kTimeInfinity);
  }

  double server() const { return server_; }
  double proxy() const { return proxy_; }

 private:
  const ValueTrace& trace_;
  const std::vector<PollInstant>& polls_;
  std::size_t steps_done_ = 0;  // steps at or before the instant
  std::size_t polls_done_ = 0;  // polls completed at or before the instant
  std::size_t held_steps_ = 0;  // steps at or before the held snapshot
  double server_;
  double proxy_ = 0.0;
};

// k-way cursor sweep over a group's boundaries: `start`, every trace step
// and poll completion in (start, horizon), and `horizon`, ascending and
// unique.  Between boundaries both the server and the proxy values are
// constant.  Calls `visit(t, next, server, proxy)` at every boundary t,
// `next` being the following boundary (t itself at `horizon`) and
// `server[j]` / `proxy[j]` member j's values at t.
template <typename Visit>
void sweep_group(std::span<const ValueTrace* const> traces,
                 std::span<const std::vector<PollInstant>* const> polls,
                 TimePoint start, Duration horizon, Visit&& visit) {
  BROADWAY_CHECK_MSG(start <= horizon, "queried before the first fetch");
  std::vector<GroupMember> members;
  members.reserve(traces.size());
  for (std::size_t j = 0; j < traces.size(); ++j) {
    detail::check_completion_order(*polls[j]);
    members.emplace_back(*traces[j], *polls[j]);
  }
  std::vector<double> server(traces.size());
  std::vector<double> proxy(traces.size());
  for (TimePoint t = start;;) {
    TimePoint next = horizon;
    for (std::size_t j = 0; j < members.size(); ++j) {
      members[j].advance_to(t);
      server[j] = members[j].server();
      proxy[j] = members[j].proxy();
      next = std::min(next, members[j].next_event());
    }
    visit(t, next, std::span<const double>(server),
          std::span<const double>(proxy));
    if (t >= horizon) return;
    t = next;
  }
}

}  // namespace

MutualValueReport evaluate_mutual_value(
    std::span<const ValueTrace* const> traces,
    std::span<const std::vector<PollInstant>* const> polls,
    const ConsistencyFunction& function, double delta, Duration horizon) {
  BROADWAY_CHECK_MSG(traces.size() == polls.size(), "traces/polls mismatch");
  BROADWAY_CHECK_MSG(traces.size() == function.arity(),
                     "group size must match the function arity");
  BROADWAY_CHECK_MSG(delta > 0.0, "delta " << delta);
  BROADWAY_CHECK_MSG(horizon > 0.0, "horizon " << horizon);

  MutualValueReport report;
  report.horizon = horizon;
  TimePoint start = 0.0;
  for (const auto* schedule : polls) {
    BROADWAY_CHECK_MSG(!schedule->empty(), "object never fetched");
    report.polls += schedule->size();
    start = std::max(start, schedule->front().complete);
  }

  bool previously_violated = false;
  sweep_group(traces, polls, start, horizon,
              [&](TimePoint t0, TimePoint t1, std::span<const double> server,
                  std::span<const double> proxy) {
                if (t1 <= t0) return;  // the horizon opens no segment
                const double divergence = std::abs(
                    function.evaluate(server) - function.evaluate(proxy));
                const bool violated = divergence >= delta;
                if (violated) {
                  report.out_sync_time += t1 - t0;
                  if (!previously_violated) ++report.violations;
                }
                previously_violated = violated;
              });
  return report;
}

MutualValueReport evaluate_mutual_value(
    const ValueTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const ValueTrace& trace_b, const std::vector<PollInstant>& polls_b,
    const ConsistencyFunction& function, double delta, Duration horizon) {
  const ValueTrace* traces[] = {&trace_a, &trace_b};
  const std::vector<PollInstant>* polls[] = {&polls_a, &polls_b};
  return evaluate_mutual_value(traces, polls, function, delta, horizon);
}

std::vector<MutualValueSample> mutual_value_series(
    const ValueTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const ValueTrace& trace_b, const std::vector<PollInstant>& polls_b,
    const ConsistencyFunction& function, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls_a.empty() && !polls_b.empty(),
                     "objects never fetched");
  const ValueTrace* traces[] = {&trace_a, &trace_b};
  const std::vector<PollInstant>* polls[] = {&polls_a, &polls_b};
  const TimePoint start =
      std::max(polls_a.front().complete, polls_b.front().complete);

  // One sample per boundary, taken at the boundary itself so that steps
  // and polls at t are reflected.
  std::vector<MutualValueSample> out;
  sweep_group(traces, polls, start, horizon,
              [&](TimePoint t, TimePoint, std::span<const double> server,
                  std::span<const double> proxy) {
                out.push_back(MutualValueSample{t, function.evaluate(server),
                                                function.evaluate(proxy)});
              });
  return out;
}

}  // namespace broadway
