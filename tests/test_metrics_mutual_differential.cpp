// The mutual evaluators' cursor sweeps against the sort-and-search
// evaluators they replaced, kept here as oracles: on seeded random groups
// both must throw together or agree bit for bit.  The draws sit on a
// coarse grid so that completions coincide within one schedule and across
// schedules, land exactly on `start` and on `horizon`, fall after
// `horizon`, and hit update instants; snapshots step back the way a
// relay's do.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "consistency/function.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "metrics/value_fidelity.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- oracles: the evaluators before the cursor sweep ---------------------

// Last poll with complete <= t.
const PollInstant& oracle_held_poll(const std::vector<PollInstant>& polls,
                                    TimePoint t) {
  auto it = std::upper_bound(
      polls.begin(), polls.end(), t,
      [](TimePoint lhs, const PollInstant& rhs) { return lhs < rhs.complete; });
  BROADWAY_CHECK_MSG(it != polls.begin(), "queried before the first fetch");
  return *(it - 1);
}

MutualTemporalReport oracle_mutual_temporal(
    const UpdateTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const UpdateTrace& trace_b, const std::vector<PollInstant>& polls_b,
    Duration delta_mutual, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls_a.empty() && !polls_b.empty(),
                     "both objects need at least the initial fetch");
  BROADWAY_CHECK_MSG(delta_mutual >= 0.0, "delta " << delta_mutual);
  BROADWAY_CHECK_MSG(horizon > 0.0, "horizon " << horizon);

  MutualTemporalReport report;
  report.horizon = horizon;
  report.polls = polls_a.size() + polls_b.size();

  const TimePoint start =
      std::max(polls_a.front().complete, polls_b.front().complete);
  std::vector<TimePoint> boundaries;
  boundaries.push_back(start);
  for (const auto& poll : polls_a) {
    if (poll.complete > start && poll.complete < horizon) {
      boundaries.push_back(poll.complete);
    }
  }
  for (const auto& poll : polls_b) {
    if (poll.complete > start && poll.complete < horizon) {
      boundaries.push_back(poll.complete);
    }
  }
  boundaries.push_back(horizon);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  bool previously_violated = false;
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const TimePoint t0 = boundaries[i];
    const TimePoint t1 = boundaries[i + 1];
    if (t1 <= t0) continue;
    const ValidityInterval va =
        trace_a.validity_at(oracle_held_poll(polls_a, t0).snapshot);
    const ValidityInterval vb =
        trace_b.validity_at(oracle_held_poll(polls_b, t0).snapshot);
    const bool violated = interval_gap(va, vb) > delta_mutual;
    if (violated) {
      report.out_sync_time += t1 - t0;
      if (!previously_violated) ++report.violations;
    }
    previously_violated = violated;
  }
  return report;
}

std::vector<TimePoint> oracle_merged_boundaries(
    std::span<const ValueTrace* const> traces,
    std::span<const std::vector<PollInstant>* const> polls, TimePoint start,
    Duration horizon) {
  std::vector<TimePoint> out;
  out.push_back(start);
  for (const ValueTrace* trace : traces) {
    for (const auto& step : trace->steps()) {
      if (step.time > start && step.time < horizon) out.push_back(step.time);
    }
  }
  for (const auto* schedule : polls) {
    for (const auto& poll : *schedule) {
      if (poll.complete > start && poll.complete < horizon) {
        out.push_back(poll.complete);
      }
    }
  }
  out.push_back(horizon);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

MutualValueReport oracle_mutual_value(
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
  const std::vector<TimePoint> boundaries =
      oracle_merged_boundaries(traces, polls, start, horizon);

  std::vector<double> server_values(traces.size());
  std::vector<double> proxy_values(traces.size());
  bool previously_violated = false;
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const TimePoint t0 = boundaries[i];
    const TimePoint t1 = boundaries[i + 1];
    if (t1 <= t0) continue;
    for (std::size_t j = 0; j < traces.size(); ++j) {
      server_values[j] = traces[j]->value_at(t0);
      proxy_values[j] =
          traces[j]->value_at(oracle_held_poll(*polls[j], t0).snapshot);
    }
    const double divergence = std::abs(function.evaluate(server_values) -
                                       function.evaluate(proxy_values));
    const bool violated = divergence >= delta;
    if (violated) {
      report.out_sync_time += t1 - t0;
      if (!previously_violated) ++report.violations;
    }
    previously_violated = violated;
  }
  return report;
}

std::vector<MutualValueSample> oracle_mutual_value_series(
    const ValueTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const ValueTrace& trace_b, const std::vector<PollInstant>& polls_b,
    const ConsistencyFunction& function, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls_a.empty() && !polls_b.empty(),
                     "objects never fetched");
  const ValueTrace* traces[] = {&trace_a, &trace_b};
  const std::vector<PollInstant>* polls[] = {&polls_a, &polls_b};
  const TimePoint start =
      std::max(polls_a.front().complete, polls_b.front().complete);
  const std::vector<TimePoint> boundaries =
      oracle_merged_boundaries(traces, polls, start, horizon);

  std::vector<MutualValueSample> out;
  for (TimePoint t : boundaries) {
    const double server_values[] = {trace_a.value_at(t), trace_b.value_at(t)};
    const double proxy_values[] = {
        trace_a.value_at(oracle_held_poll(polls_a, t).snapshot),
        trace_b.value_at(oracle_held_poll(polls_b, t).snapshot)};
    out.push_back(MutualValueSample{t, function.evaluate(server_values),
                                    function.evaluate(proxy_values)});
  }
  return out;
}

// ---- seeded inputs --------------------------------------------------------

constexpr double kGrid = 0.5;

double on_grid(Rng& rng, double lo, double hi) {
  return kGrid * static_cast<double>(rng.uniform_int(
                     static_cast<std::int64_t>(lo / kGrid),
                     static_cast<std::int64_t>(hi / kGrid)));
}

// Sorted unique grid instants in [0, duration).
std::vector<TimePoint> grid_instants(Rng& rng, std::size_t max_count,
                                     Duration duration) {
  std::vector<TimePoint> out;
  const auto count = rng.uniform_int(0, static_cast<std::int64_t>(max_count));
  for (std::int64_t i = 0; i < count; ++i) {
    out.push_back(on_grid(rng, 0.0, duration - kGrid));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// A poll schedule with completions sorted but repeating, some at or after
// `horizon`, snapshots at or before their completion and sometimes earlier
// than the previous poll's (a relay carries its sender's older snapshot).
std::vector<PollInstant> grid_polls(Rng& rng, Duration horizon) {
  std::vector<TimePoint> completions;
  const auto count = rng.uniform_int(1, 40);
  for (std::int64_t i = 0; i < count; ++i) {
    completions.push_back(on_grid(rng, 0.0, horizon + 10.0));
  }
  if (rng.bernoulli(0.3)) completions.push_back(horizon);
  if (rng.bernoulli(0.3)) completions.push_back(0.0);
  std::sort(completions.begin(), completions.end());
  if (rng.bernoulli(0.5)) {
    // A burst of coincident completions (triggered polls).
    const TimePoint t = completions[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(completions.size()) - 1))];
    completions.insert(completions.end(), 3, t);
    std::sort(completions.begin(), completions.end());
  }
  std::vector<PollInstant> polls;
  for (const TimePoint complete : completions) {
    const double lag = rng.bernoulli(0.2) ? on_grid(rng, 0.0, 40.0)
                                          : on_grid(rng, 0.0, 2.0);
    polls.push_back(PollInstant{std::max(0.0, complete - lag), complete});
  }
  return polls;
}

// Copy of `polls` whose first completion is moved to `front` (kept sorted).
std::vector<PollInstant> with_front(std::vector<PollInstant> polls,
                                    TimePoint front) {
  polls.front().complete = std::min(front, polls.front().complete);
  return polls;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

template <typename F>
auto outcome(F&& evaluate) -> std::optional<decltype(evaluate())> {
  try {
    return evaluate();
  } catch (const CheckFailure&) {
    return std::nullopt;
  }
}

void expect_same(const std::optional<MutualTemporalReport>& sweep,
                 const std::optional<MutualTemporalReport>& oracle) {
  ASSERT_EQ(sweep.has_value(), oracle.has_value());
  if (!sweep) return;
  EXPECT_EQ(sweep->polls, oracle->polls);
  EXPECT_EQ(sweep->violations, oracle->violations);
  EXPECT_EQ(bits(sweep->out_sync_time), bits(oracle->out_sync_time));
  EXPECT_EQ(bits(sweep->horizon), bits(oracle->horizon));
}

void expect_same(const std::optional<MutualValueReport>& sweep,
                 const std::optional<MutualValueReport>& oracle) {
  ASSERT_EQ(sweep.has_value(), oracle.has_value());
  if (!sweep) return;
  EXPECT_EQ(sweep->polls, oracle->polls);
  EXPECT_EQ(sweep->violations, oracle->violations);
  EXPECT_EQ(bits(sweep->out_sync_time), bits(oracle->out_sync_time));
  EXPECT_EQ(bits(sweep->horizon), bits(oracle->horizon));
}

void expect_same(const std::optional<std::vector<MutualValueSample>>& sweep,
                 const std::optional<std::vector<MutualValueSample>>& oracle) {
  ASSERT_EQ(sweep.has_value(), oracle.has_value());
  if (!sweep) return;
  ASSERT_EQ(sweep->size(), oracle->size());
  for (std::size_t i = 0; i < sweep->size(); ++i) {
    EXPECT_EQ(bits((*sweep)[i].time), bits((*oracle)[i].time)) << i;
    EXPECT_EQ(bits((*sweep)[i].f_server), bits((*oracle)[i].f_server)) << i;
    EXPECT_EQ(bits((*sweep)[i].f_proxy), bits((*oracle)[i].f_proxy)) << i;
  }
}

ValueTrace grid_value_trace(Rng& rng, const std::string& name,
                            Duration duration) {
  std::vector<ValueTrace::Step> steps;
  for (const TimePoint t : grid_instants(rng, 60, duration)) {
    steps.push_back(ValueTrace::Step{
        t, static_cast<double>(rng.uniform_int(90, 110)) / 4.0});
  }
  return ValueTrace(name, 25.0, std::move(steps), duration);
}

constexpr int kCases = 400;

// ---- temporal -------------------------------------------------------------

TEST(MutualSweepDifferential, TemporalMatchesOracleBitForBit) {
  Rng rng(20011);
  std::size_t evaluated = 0;
  for (int c = 0; c < kCases; ++c) {
    const Duration duration = 200.0;
    const UpdateTrace a("a", grid_instants(rng, 30, duration), duration);
    const UpdateTrace b("b", grid_instants(rng, 30, duration), duration);
    const Duration horizon = on_grid(rng, kGrid, duration);
    auto polls_a = grid_polls(rng, horizon);
    const auto polls_b = grid_polls(rng, horizon);
    if (rng.bernoulli(0.1)) polls_a = with_front(polls_a, -kGrid);
    const double delta = rng.bernoulli(0.3) ? 0.0 : on_grid(rng, 0.0, 30.0);
    const auto sweep = outcome([&] {
      return evaluate_mutual_temporal(a, polls_a, b, polls_b, delta, horizon);
    });
    const auto oracle = outcome([&] {
      return oracle_mutual_temporal(a, polls_a, b, polls_b, delta, horizon);
    });
    SCOPED_TRACE(c);
    expect_same(sweep, oracle);
    if (sweep) ++evaluated;
  }
  // Most cases evaluate; the rest start after the horizon and throw.
  EXPECT_GT(evaluated, static_cast<std::size_t>(kCases) / 2);
}

TEST(MutualSweepDifferential, TemporalEdgesMatchOracle) {
  const UpdateTrace a("a", {10.0, 20.0, 30.0}, 100.0);
  const UpdateTrace b("b", {15.0, 25.0}, 100.0);
  const std::vector<PollInstant> polls_a = {
      {0.0, 0.0}, {20.0, 20.0}, {12.0, 20.0}, {30.0, 50.0}, {40.0, 120.0}};
  const std::vector<PollInstant> polls_b = {
      {0.0, 5.0}, {16.0, 20.0}, {25.0, 50.0}, {25.0, 50.0}};
  for (const Duration horizon : {5.0, 20.0, 50.0, 60.0, 120.0}) {
    SCOPED_TRACE(horizon);
    expect_same(outcome([&] {
                  return evaluate_mutual_temporal(a, polls_a, b, polls_b, 0.0,
                                                  horizon);
                }),
                outcome([&] {
                  return oracle_mutual_temporal(a, polls_a, b, polls_b, 0.0,
                                                horizon);
                }));
  }
  // start == horizon: no segment is evaluated.
  const auto empty = evaluate_mutual_temporal(a, polls_a, b, polls_b, 0.0, 5.0);
  EXPECT_EQ(empty.violations, 0u);
  EXPECT_EQ(empty.out_sync_time, 0.0);
  // start > horizon: both fail.
  EXPECT_THROW(evaluate_mutual_temporal(a, polls_a, b, polls_b, 0.0, 4.0),
               CheckFailure);
  EXPECT_THROW(oracle_mutual_temporal(a, polls_a, b, polls_b, 0.0, 4.0),
               CheckFailure);
}

// ---- value ----------------------------------------------------------------

TEST(MutualSweepDifferential, ValueAndSeriesMatchOracleBitForBit) {
  Rng rng(20012);
  const DifferenceFunction difference;
  const RatioFunction ratio;
  std::size_t evaluated = 0;
  for (int c = 0; c < kCases; ++c) {
    const Duration duration = 200.0;
    const ValueTrace a = grid_value_trace(rng, "a", duration);
    const ValueTrace b = grid_value_trace(rng, "b", duration);
    const Duration horizon = on_grid(rng, kGrid, duration);
    auto polls_a = grid_polls(rng, horizon);
    auto polls_b = grid_polls(rng, horizon);
    // First completions before t = 0 exercise the evaluator's start floor
    // at 0, which the series does not have.
    if (rng.bernoulli(0.1)) {
      polls_a = with_front(polls_a, -kGrid);
      polls_b = with_front(polls_b, -2.0 * kGrid);
    }
    const double delta = on_grid(rng, kGrid, 4.0);
    const ConsistencyFunction& f =
        rng.bernoulli(0.5) ? static_cast<const ConsistencyFunction&>(difference)
                           : ratio;
    SCOPED_TRACE(c);
    const auto sweep = outcome([&] {
      return evaluate_mutual_value(a, polls_a, b, polls_b, f, delta, horizon);
    });
    const ValueTrace* traces[] = {&a, &b};
    const std::vector<PollInstant>* polls[] = {&polls_a, &polls_b};
    expect_same(sweep, outcome([&] {
                  return oracle_mutual_value(traces, polls, f, delta, horizon);
                }));
    expect_same(outcome([&] {
                  return mutual_value_series(a, polls_a, b, polls_b, f,
                                             horizon);
                }),
                outcome([&] {
                  return oracle_mutual_value_series(a, polls_a, b, polls_b, f,
                                                    horizon);
                }));
    if (sweep) ++evaluated;
  }
  EXPECT_GT(evaluated, static_cast<std::size_t>(kCases) / 2);
}

TEST(MutualSweepDifferential, GroupValueMatchesOracleBitForBit) {
  Rng rng(20013);
  const WeightedSumFunction index({0.5, 1.0, -0.25, 2.0});
  const MaxFunction best(4);
  for (int c = 0; c < kCases / 4; ++c) {
    const Duration duration = 200.0;
    std::vector<ValueTrace> traces;
    std::vector<std::vector<PollInstant>> schedules;
    const Duration horizon = on_grid(rng, kGrid, duration);
    for (int j = 0; j < 4; ++j) {
      traces.push_back(grid_value_trace(rng, "v" + std::to_string(j), duration));
      schedules.push_back(grid_polls(rng, horizon));
    }
    std::vector<const ValueTrace*> trace_ptrs;
    std::vector<const std::vector<PollInstant>*> poll_ptrs;
    for (int j = 0; j < 4; ++j) {
      trace_ptrs.push_back(&traces[static_cast<std::size_t>(j)]);
      poll_ptrs.push_back(&schedules[static_cast<std::size_t>(j)]);
    }
    const double delta = on_grid(rng, kGrid, 4.0);
    const ConsistencyFunction& f =
        c % 2 == 0 ? static_cast<const ConsistencyFunction&>(index) : best;
    SCOPED_TRACE(c);
    expect_same(outcome([&] {
                  return evaluate_mutual_value(trace_ptrs, poll_ptrs, f, delta,
                                               horizon);
                }),
                outcome([&] {
                  return oracle_mutual_value(trace_ptrs, poll_ptrs, f, delta,
                                             horizon);
                }));
  }
}

TEST(MutualSweepDifferential, ValueEdgesMatchOracle) {
  const ValueTrace a("a", 10.0, {{10.0, 11.0}, {20.0, 13.0}, {50.0, 9.0}},
                     100.0);
  const ValueTrace b("b", 5.0, {{20.0, 6.0}, {30.0, 4.0}}, 100.0);
  const std::vector<PollInstant> polls_a = {
      {0.0, 0.0}, {20.0, 20.0}, {10.0, 20.0}, {50.0, 50.0}, {60.0, 120.0}};
  const std::vector<PollInstant> polls_b = {
      {0.0, 5.0}, {20.0, 20.0}, {30.0, 50.0}, {30.0, 50.0}};
  const DifferenceFunction f;
  const ValueTrace* traces[] = {&a, &b};
  const std::vector<PollInstant>* polls[] = {&polls_a, &polls_b};
  for (const Duration horizon : {4.0, 5.0, 20.0, 50.0, 60.0, 120.0}) {
    SCOPED_TRACE(horizon);
    expect_same(outcome([&] {
                  return evaluate_mutual_value(a, polls_a, b, polls_b, f, 1.0,
                                               horizon);
                }),
                outcome([&] {
                  return oracle_mutual_value(traces, polls, f, 1.0, horizon);
                }));
    expect_same(outcome([&] {
                  return mutual_value_series(a, polls_a, b, polls_b, f,
                                             horizon);
                }),
                outcome([&] {
                  return oracle_mutual_value_series(a, polls_a, b, polls_b, f,
                                                    horizon);
                }));
  }
  // start == horizon: no segment, and one sample at the horizon.
  EXPECT_EQ(evaluate_mutual_value(a, polls_a, b, polls_b, f, 1.0, 5.0)
                .out_sync_time,
            0.0);
  EXPECT_EQ(mutual_value_series(a, polls_a, b, polls_b, f, 5.0).size(), 1u);
  // start > horizon: all fail.
  EXPECT_THROW(evaluate_mutual_value(a, polls_a, b, polls_b, f, 1.0, 4.0),
               CheckFailure);
  EXPECT_THROW(mutual_value_series(a, polls_a, b, polls_b, f, 4.0),
               CheckFailure);
}

}  // namespace
}  // namespace broadway
