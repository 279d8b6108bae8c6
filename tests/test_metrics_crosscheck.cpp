// Evaluator cross-checks: the exact (interval-arithmetic) fidelity
// evaluators against brute-force dense sampling of the same timeline, on
// randomised traces and poll schedules.  If the two disagree beyond the
// sampling resolution, the evaluator has a hole.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "consistency/function.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "metrics/value_fidelity.h"
#include "trace/generators.h"
#include "trace/stock.h"
#include "trace/update_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

constexpr double kHorizon = 2000.0;
constexpr double kDt = 0.25;  // sampling resolution

std::vector<PollInstant> random_polls(Rng& rng, double horizon) {
  std::vector<PollInstant> polls = {{0.0, 0.0}};
  TimePoint t = 0.0;
  while (true) {
    t += rng.uniform(5.0, 120.0);
    if (t >= horizon) break;
    polls.push_back(PollInstant{t, t});
  }
  return polls;
}

// Brute force: at each sample instant, is the cached copy out of
// tolerance?  Integrates violation time at kDt resolution.
double brute_force_temporal(const UpdateTrace& trace,
                            const std::vector<PollInstant>& polls,
                            double delta, double horizon) {
  double out_sync = 0.0;
  for (double t = kDt / 2.0; t < horizon; t += kDt) {
    // Latest poll completed at or before t.
    auto it = std::upper_bound(polls.begin(), polls.end(), t,
                               [](double lhs, const PollInstant& rhs) {
                                 return lhs < rhs.complete;
                               });
    const PollInstant& poll = *(it - 1);
    const auto first_unseen = trace.first_update_after(poll.snapshot);
    if (first_unseen && t >= *first_unseen + delta) out_sync += kDt;
  }
  return out_sync;
}

double brute_force_value(const ValueTrace& trace,
                         const std::vector<PollInstant>& polls,
                         double delta, double horizon) {
  double out_sync = 0.0;
  for (double t = kDt / 2.0; t < horizon; t += kDt) {
    auto it = std::upper_bound(polls.begin(), polls.end(), t,
                               [](double lhs, const PollInstant& rhs) {
                                 return lhs < rhs.complete;
                               });
    const PollInstant& poll = *(it - 1);
    const double cached = trace.value_at(poll.snapshot);
    if (std::abs(trace.value_at(t) - cached) >= delta) out_sync += kDt;
  }
  return out_sync;
}

class CrossCheckSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossCheckSweep, TemporalEvaluatorMatchesBruteForce) {
  Rng rng(GetParam());
  const auto updates = generate_poisson(rng, 1.0 / 90.0, kHorizon);
  const UpdateTrace trace("x", updates, kHorizon);
  const auto polls = random_polls(rng, kHorizon);
  const double delta = rng.uniform(10.0, 200.0);

  const auto report =
      evaluate_temporal_fidelity(trace, polls, delta, kHorizon);
  const double brute = brute_force_temporal(trace, polls, delta, kHorizon);
  // Dense sampling is accurate to ~kDt per violation boundary.
  const double slack =
      kDt * (2.0 * static_cast<double>(report.violations) + 4.0);
  EXPECT_NEAR(report.out_sync_time, brute, slack);
}

TEST_P(CrossCheckSweep, MutualTemporalEvaluatorMatchesBruteForce) {
  Rng rng(GetParam() + 3000);
  const UpdateTrace a("a", generate_poisson(rng, 1.0 / 90.0, kHorizon),
                      kHorizon);
  const UpdateTrace b("b", generate_poisson(rng, 1.0 / 60.0, kHorizon),
                      kHorizon);
  const auto polls_a = random_polls(rng, kHorizon);
  const auto polls_b = random_polls(rng, kHorizon);
  const double delta = rng.uniform(0.0, 60.0);

  const auto report =
      evaluate_mutual_temporal(a, polls_a, b, polls_b, delta, kHorizon);

  // At each sample instant: do the held versions' validity intervals come
  // within δ of each other (Eq. 4)?
  double brute = 0.0;
  for (double t = kDt / 2.0; t < kHorizon; t += kDt) {
    auto held = [t](const UpdateTrace& trace,
                    const std::vector<PollInstant>& polls) {
      auto it = std::upper_bound(polls.begin(), polls.end(), t,
                                 [](double lhs, const PollInstant& rhs) {
                                   return lhs < rhs.complete;
                                 });
      return trace.validity_at((it - 1)->snapshot);
    };
    if (interval_gap(held(a, polls_a), held(b, polls_b)) > delta) {
      brute += kDt;
    }
  }
  const double slack =
      kDt * (2.0 * static_cast<double>(report.violations) + 4.0);
  EXPECT_NEAR(report.out_sync_time, brute, slack);
}

TEST_P(CrossCheckSweep, ValueEvaluatorMatchesBruteForce) {
  Rng rng(GetParam() + 1000);
  StockWalkConfig config;
  config.duration = kHorizon;
  config.updates = 400;
  config.initial_value = 100.0;
  config.min_value = 90.0;
  config.max_value = 110.0;
  config.step_sigma = 0.8;
  const ValueTrace trace = generate_stock_walk(rng, config);
  const auto polls = random_polls(rng, kHorizon);
  const double delta = rng.uniform(0.5, 4.0);

  const auto report =
      evaluate_value_fidelity(trace, polls, delta, kHorizon);
  const double brute = brute_force_value(trace, polls, delta, kHorizon);
  const double slack =
      kDt * (2.0 * static_cast<double>(trace.count()) * 0.2 + 8.0);
  EXPECT_NEAR(report.out_sync_time, brute, slack);
}

TEST_P(CrossCheckSweep, MutualValueEvaluatorMatchesBruteForce) {
  Rng rng(GetParam() + 2000);
  StockWalkConfig config;
  config.duration = kHorizon;
  config.updates = 300;
  config.initial_value = 100.0;
  config.min_value = 90.0;
  config.max_value = 110.0;
  config.step_sigma = 0.6;
  Rng rng_a = rng.fork();
  Rng rng_b = rng.fork();
  config.name = "a";
  const ValueTrace a = generate_stock_walk(rng_a, config);
  config.name = "b";
  const ValueTrace b = generate_stock_walk(rng_b, config);
  const auto polls_a = random_polls(rng, kHorizon);
  const auto polls_b = random_polls(rng, kHorizon);
  const double delta = rng.uniform(0.5, 3.0);
  DifferenceFunction f;

  const auto report =
      evaluate_mutual_value(a, polls_a, b, polls_b, f, delta, kHorizon);

  double brute = 0.0;
  for (double t = kDt / 2.0; t < kHorizon; t += kDt) {
    auto cached = [t](const ValueTrace& trace,
                      const std::vector<PollInstant>& polls) {
      auto it = std::upper_bound(polls.begin(), polls.end(), t,
                                 [](double lhs, const PollInstant& rhs) {
                                   return lhs < rhs.complete;
                                 });
      return trace.value_at((it - 1)->snapshot);
    };
    const double f_server = a.value_at(t) - b.value_at(t);
    const double f_proxy = cached(a, polls_a) - cached(b, polls_b);
    if (std::abs(f_server - f_proxy) >= delta) brute += kDt;
  }
  const double slack = kDt * (static_cast<double>(a.count() + b.count()) *
                                  0.2 +
                              8.0);
  EXPECT_NEAR(report.out_sync_time, brute, slack);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossCheckSweep,
                         testing::Values(101u, 202u, 303u, 404u, 505u,
                                         606u));

}  // namespace
}  // namespace broadway
