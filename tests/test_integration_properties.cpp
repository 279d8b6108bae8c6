// Parameterised property sweeps (TEST_P) over the paper's tunables.
#include <gtest/gtest.h>

#include <memory>

#include "consistency/limd.h"
#include "harness/experiments.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/paper_workloads.h"
#include "trace/stock.h"
#include "util/rng.h"
#include "util/time.h"

namespace broadway {
namespace {

// ---- Δ sweep over the temporal baseline: fidelity is 1 by construction.

class BaselineDeltaSweep : public testing::TestWithParam<double> {};

TEST_P(BaselineDeltaSweep, PerfectFidelityAtEveryDelta) {
  const UpdateTrace trace = make_nytimes_reuters_trace();
  const auto result =
      run_baseline_individual(trace, minutes(GetParam()));
  EXPECT_DOUBLE_EQ(result.fidelity.fidelity_violations(), 1.0);
  EXPECT_DOUBLE_EQ(result.fidelity.fidelity_time(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(DeltaMinutes, BaselineDeltaSweep,
                         testing::Values(1.0, 2.0, 5.0, 10.0, 20.0, 30.0,
                                         45.0, 60.0));

// ---- Δ sweep over LIMD: never more polls than the baseline (modulo
// start-up), fidelity in range, TTR bounded.

class LimdDeltaSweep : public testing::TestWithParam<double> {};

TEST_P(LimdDeltaSweep, PollsBoundedByBaseline) {
  const UpdateTrace trace = make_cnn_fn_trace();
  TemporalRunConfig config;
  config.delta = minutes(GetParam());
  config.ttr_max = minutes(60.0);
  const auto limd = run_limd_individual(trace, config);
  const auto baseline =
      run_baseline_individual(trace, minutes(GetParam()));
  EXPECT_LE(static_cast<double>(limd.polls),
            1.1 * static_cast<double>(baseline.polls) + 5.0);
}

TEST_P(LimdDeltaSweep, FidelityWithinRange) {
  const UpdateTrace trace = make_cnn_fn_trace();
  TemporalRunConfig config;
  config.delta = minutes(GetParam());
  config.ttr_max = minutes(60.0);
  const auto result = run_limd_individual(trace, config);
  EXPECT_GE(result.fidelity.fidelity_violations(), 0.0);
  EXPECT_LE(result.fidelity.fidelity_violations(), 1.0);
  EXPECT_GE(result.fidelity.fidelity_time(), 0.0);
  EXPECT_LE(result.fidelity.fidelity_time(), 1.0);
}

TEST_P(LimdDeltaSweep, TtrStaysWithinBounds) {
  const UpdateTrace trace = make_guardian_trace();
  TemporalRunConfig config;
  config.delta = minutes(GetParam());
  config.ttr_max = minutes(60.0);
  const auto result = run_limd_individual(trace, config);
  for (const auto& [time, ttr] : result.ttr_series) {
    ASSERT_GE(ttr, config.delta - 1e-9);
    ASSERT_LE(ttr, minutes(60.0) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaMinutes, LimdDeltaSweep,
                         testing::Values(1.0, 5.0, 10.0, 20.0, 40.0, 60.0));

// ---- δ sweep over the mutual temporal approaches: orderings hold.

class MutualDeltaSweep : public testing::TestWithParam<double> {};

TEST_P(MutualDeltaSweep, PollAndFidelityOrderings) {
  const UpdateTrace a = make_cnn_fn_trace();
  const UpdateTrace b = make_nytimes_ap_trace();
  MutualTemporalRunConfig config;
  config.base.delta = minutes(10.0);
  config.delta_mutual = minutes(GetParam());

  config.approach = MutualApproach::kBaseline;
  const auto baseline = run_mutual_temporal(a, b, config);
  config.approach = MutualApproach::kTriggered;
  const auto triggered = run_mutual_temporal(a, b, config);
  config.approach = MutualApproach::kHeuristic;
  const auto heuristic = run_mutual_temporal(a, b, config);

  EXPECT_GE(triggered.polls, baseline.polls);
  EXPECT_GE(heuristic.polls, baseline.polls);
  EXPECT_GE(triggered.polls, heuristic.polls);
  EXPECT_GE(triggered.mutual.fidelity_time() + 1e-9,
            baseline.mutual.fidelity_time());
  EXPECT_GT(triggered.mutual.fidelity_time(), 0.98);
}

INSTANTIATE_TEST_SUITE_P(DeltaMutualMinutes, MutualDeltaSweep,
                         testing::Values(1.0, 5.0, 10.0, 20.0, 30.0));

// ---- δ sweep over the mutual value approaches on randomised stocks:
// partitioned never loses (much) fidelity to adaptive.

class MutualValueSeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MutualValueSeedSweep, PartitionedCompetitiveAcrossSeeds) {
  Rng rng(GetParam());
  StockWalkConfig fast;
  fast.name = "fast";
  fast.duration = hours(1.0);
  fast.updates = 700;
  fast.initial_value = 150.0;
  fast.min_value = 140.0;
  fast.max_value = 160.0;
  fast.step_sigma = 0.4;
  StockWalkConfig slow;
  slow.name = "slow";
  slow.duration = hours(1.0);
  slow.updates = 200;
  slow.initial_value = 40.0;
  slow.min_value = 39.0;
  slow.max_value = 41.0;
  slow.step_sigma = 0.03;
  Rng rng_fast = rng.fork();
  Rng rng_slow = rng.fork();
  const ValueTrace a = generate_stock_walk(rng_fast, fast);
  const ValueTrace b = generate_stock_walk(rng_slow, slow);

  MutualValueRunConfig config;
  config.delta = 1.0;
  config.approach = MutualValueApproach::kAdaptive;
  const auto adaptive = run_mutual_value(a, b, config);
  config.approach = MutualValueApproach::kPartitioned;
  const auto partitioned = run_mutual_value(a, b, config);

  EXPECT_GE(partitioned.mutual.fidelity_time() + 0.05,
            adaptive.mutual.fidelity_time());
  EXPECT_GE(partitioned.mutual.fidelity_time(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutualValueSeedSweep,
                         testing::Values(11u, 22u, 33u, 44u, 55u));

// ---- crash recovery mid-run keeps the system live and bounded.

class CrashRecoverySweep : public testing::TestWithParam<double> {};

TEST_P(CrashRecoverySweep, RunsToCompletionAfterCrash) {
  // Crash at various fractions of the trace; the run must finish with
  // sane accounting (polls continue after recovery).
  const UpdateTrace trace = make_nytimes_ap_trace();
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.attach_update_trace(trace.name(), trace);
  engine.add_temporal_object(
      trace.name(), std::make_unique<LimdPolicy>(
                        LimdPolicy::Config::paper_defaults(minutes(10.0))));
  engine.start();
  const TimePoint crash_at = trace.duration() * GetParam();
  sim.run_until(crash_at);
  const std::size_t polls_before = engine.polls_performed();
  engine.crash();
  engine.recover();
  sim.run_until(trace.duration());
  EXPECT_GT(engine.polls_performed(), polls_before);
  EXPECT_TRUE(engine.cache().contains(trace.name()));
}

INSTANTIATE_TEST_SUITE_P(CrashFractions, CrashRecoverySweep,
                         testing::Values(0.1, 0.5, 0.9));

}  // namespace
}  // namespace broadway
