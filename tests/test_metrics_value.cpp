// Ground-truth Δv (Eq. 3) and Mv (Eq. 5) evaluation.
#include "metrics/value_fidelity.h"

#include <gtest/gtest.h>

#include "trace/value_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

std::vector<PollInstant> at(std::initializer_list<TimePoint> times) {
  std::vector<PollInstant> out;
  for (TimePoint t : times) out.push_back(PollInstant{t, t});
  return out;
}

TEST(ValueFidelity, FlatValuePerfect) {
  const ValueTrace trace("v", 100.0, {}, 100.0);
  const auto report =
      evaluate_value_fidelity(trace, at({0.0, 50.0}), 1.0, 100.0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_DOUBLE_EQ(report.fidelity_violations(), 1.0);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 1.0);
}

TEST(ValueFidelity, DriftBeyondDeltaViolates) {
  // Cached 100 at t=0; server jumps to 102 at t=20; refresh at 60.
  // Deviation 2 >= Δ=1 from 20 to 60 -> 40 s out of sync.
  const ValueTrace trace("v", 100.0, {{20.0, 102.0}}, 100.0);
  const auto report =
      evaluate_value_fidelity(trace, at({0.0, 60.0}), 1.0, 100.0);
  EXPECT_EQ(report.windows, 2u);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 40.0);
  EXPECT_DOUBLE_EQ(report.fidelity_violations(), 0.5);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 0.6);
}

TEST(ValueFidelity, SmallDriftWithinDelta) {
  const ValueTrace trace("v", 100.0, {{20.0, 100.5}}, 100.0);
  const auto report =
      evaluate_value_fidelity(trace, at({0.0, 60.0}), 1.0, 100.0);
  EXPECT_EQ(report.violations, 0u);
}

TEST(ValueFidelity, ExcursionAndReturnStillCounts) {
  // Value spikes away and returns between polls: the window still
  // violated while the spike lasted.
  const ValueTrace trace("v", 100.0, {{20.0, 105.0}, {30.0, 100.0}},
                         100.0);
  const auto report =
      evaluate_value_fidelity(trace, at({0.0, 90.0}), 1.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 10.0);  // 20 -> 30
}

TEST(ValueFidelity, TailWindowEvaluated) {
  const ValueTrace trace("v", 100.0, {{80.0, 104.0}}, 100.0);
  const auto report =
      evaluate_value_fidelity(trace, at({0.0, 50.0}), 1.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 20.0);  // 80 -> 100
}

TEST(ValueFidelity, Validation) {
  const ValueTrace trace("v", 1.0, {}, 10.0);
  EXPECT_THROW(evaluate_value_fidelity(trace, {}, 1.0, 10.0), CheckFailure);
  EXPECT_THROW(evaluate_value_fidelity(trace, at({0.0}), 0.0, 10.0),
               CheckFailure);
  // Completions must not decrease.
  EXPECT_THROW(evaluate_value_fidelity(trace, at({0.0, 5.0, 3.0}), 1.0, 10.0),
               CheckFailure);
}

TEST(MutualValue, ConsistentWhenBothTracked) {
  // f = a - b.  Both cached at 0 and refreshed at 50; drift between the
  // two sides stays under δ.
  const ValueTrace a("a", 100.0, {{20.0, 100.4}}, 100.0);
  const ValueTrace b("b", 50.0, {{30.0, 50.2}}, 100.0);
  DifferenceFunction f;
  const auto report = evaluate_mutual_value(a, at({0.0, 50.0}), b,
                                            at({0.0, 50.0}), f, 1.0, 100.0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 1.0);
  EXPECT_EQ(report.polls, 4u);
}

TEST(MutualValue, DivergenceOfFViolates) {
  // a jumps +2 at 20 (unrefreshed until 60): f(server) - f(proxy) = 2
  // over [20, 60) -> violation for 40 s with δ = 1.
  const ValueTrace a("a", 100.0, {{20.0, 102.0}}, 100.0);
  const ValueTrace b("b", 50.0, {}, 100.0);
  DifferenceFunction f;
  const auto report = evaluate_mutual_value(a, at({0.0, 60.0}), b,
                                            at({0.0}), f, 1.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 40.0);
}

TEST(MutualValue, OppositeDriftsCancelInF) {
  // Both server values rise by the same amount: f = a - b is unchanged,
  // so the pair stays Mv-consistent even though each object individually
  // drifted beyond δ.
  const ValueTrace a("a", 100.0, {{20.0, 103.0}}, 100.0);
  const ValueTrace b("b", 50.0, {{20.0, 53.0}}, 100.0);
  DifferenceFunction f;
  const auto report = evaluate_mutual_value(a, at({0.0}), b, at({0.0}), f,
                                            1.0, 100.0);
  EXPECT_EQ(report.violations, 0u);
}

TEST(MutualValue, StaleCancellationAlsoWorksProxySide) {
  // Proxy refreshes only a; b's staleness offsets in f when drifts align.
  const ValueTrace a("a", 100.0, {{20.0, 103.0}}, 100.0);
  const ValueTrace b("b", 50.0, {{20.0, 53.0}}, 100.0);
  DifferenceFunction f;
  // a refreshed at 30 (holds 103), b stale (holds 50):
  // f(P) = 103 - 50 = 53; f(S) = 103 - 53 = 50; |50 - 53| = 3 >= 1 ->
  // violation from 30 on.
  const auto report = evaluate_mutual_value(a, at({0.0, 30.0}), b,
                                            at({0.0}), f, 1.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 70.0);
}

TEST(MutualValue, ThreeObjectWeightedSum) {
  const ValueTrace a("a", 10.0, {{10.0, 12.0}}, 100.0);
  const ValueTrace b("b", 20.0, {}, 100.0);
  const ValueTrace c("c", 30.0, {}, 100.0);
  WeightedSumFunction f({1.0, 1.0, 1.0});
  const ValueTrace* traces[] = {&a, &b, &c};
  const auto pa = at({0.0});
  const auto pb = at({0.0});
  const auto pc = at({0.0});
  const std::vector<PollInstant>* polls[] = {&pa, &pb, &pc};
  // f(S) rises by 2 at t=10; proxy holds the old sum: violation with δ=1
  // from 10 to 100.
  const auto report = evaluate_mutual_value(traces, polls, f, 1.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 90.0);
  EXPECT_EQ(report.polls, 3u);
}

TEST(MutualValue, SeriesTracksServerAndProxy) {
  const ValueTrace a("a", 100.0, {{20.0, 102.0}}, 100.0);
  const ValueTrace b("b", 50.0, {}, 100.0);
  DifferenceFunction f;
  const auto series =
      mutual_value_series(a, at({0.0, 60.0}), b, at({0.0}), f, 100.0);
  ASSERT_GE(series.size(), 3u);
  // At t=0 both agree at 50.
  EXPECT_DOUBLE_EQ(series.front().f_server, 50.0);
  EXPECT_DOUBLE_EQ(series.front().f_proxy, 50.0);
  // Between 20 and 60 the server leads by 2.
  bool saw_divergence = false;
  for (const auto& sample : series) {
    if (sample.time >= 20.0 && sample.time < 60.0) {
      EXPECT_DOUBLE_EQ(sample.f_server, 52.0);
      EXPECT_DOUBLE_EQ(sample.f_proxy, 50.0);
      saw_divergence = true;
    }
    if (sample.time >= 60.0) {
      EXPECT_DOUBLE_EQ(sample.f_proxy, 52.0);
    }
  }
  EXPECT_TRUE(saw_divergence);
}

TEST(MutualValue, Validation) {
  const ValueTrace a("a", 1.0, {}, 10.0);
  const ValueTrace b("b", 1.0, {}, 10.0);
  DifferenceFunction f;
  EXPECT_THROW(
      evaluate_mutual_value(a, {}, b, at({0.0}), f, 1.0, 10.0),
      CheckFailure);
  EXPECT_THROW(
      evaluate_mutual_value(a, at({0.0}), b, at({0.0}), f, 0.0, 10.0),
      CheckFailure);
  // Completions must not decrease: a sweep would mis-score them silently.
  EXPECT_THROW(evaluate_mutual_value(a, at({0.0}), b, at({0.0, 5.0, 3.0}), f,
                                     1.0, 10.0),
               CheckFailure);
  EXPECT_THROW(
      mutual_value_series(a, at({0.0, 5.0, 3.0}), b, at({0.0}), f, 10.0),
      CheckFailure);
}

}  // namespace
}  // namespace broadway
