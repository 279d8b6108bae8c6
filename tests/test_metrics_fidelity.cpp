// Ground-truth Δt fidelity evaluation on hand-computed scenarios.
#include "metrics/fidelity.h"

#include <gtest/gtest.h>

#include "trace/update_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

std::vector<PollInstant> at(std::initializer_list<TimePoint> times) {
  std::vector<PollInstant> out;
  for (TimePoint t : times) out.push_back(PollInstant{t, t});
  return out;
}

TEST(TemporalFidelity, NoUpdatesMeansPerfectFidelity) {
  const UpdateTrace trace("t", {}, 100.0);
  const auto report =
      evaluate_temporal_fidelity(trace, at({0.0, 50.0}), 10.0, 100.0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 0.0);
  EXPECT_DOUBLE_EQ(report.fidelity_violations(), 1.0);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 1.0);
}

TEST(TemporalFidelity, PollEveryDeltaIsPerfect) {
  // The baseline approach "by definition always provides perfect
  // fidelity" (§6.2.1).
  const UpdateTrace trace("t", {15.0, 34.0, 55.0, 76.0}, 100.0);
  std::vector<PollInstant> polls = at({0.0});
  for (double t = 10.0; t < 100.0; t += 10.0) {
    polls.push_back(PollInstant{t, t});
  }
  const auto report = evaluate_temporal_fidelity(trace, polls, 10.0, 100.0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_DOUBLE_EQ(report.fidelity_violations(), 1.0);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 1.0);
}

TEST(TemporalFidelity, MissedUpdateViolatesExactSpan) {
  // Update at 10, polls at 0 and 50, Δ = 15.  The copy fetched at 0 is out
  // of tolerance from 10+15=25 until the refresh at 50: 25 s, one
  // violated window.
  const UpdateTrace trace("t", {10.0}, 100.0);
  const auto report =
      evaluate_temporal_fidelity(trace, at({0.0, 50.0}), 15.0, 100.0);
  EXPECT_EQ(report.windows, 2u);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 25.0);
  EXPECT_DOUBLE_EQ(report.fidelity_violations(), 0.5);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 1.0 - 25.0 / 100.0);
}

TEST(TemporalFidelity, TailWindowCounted) {
  // Update at 60 after the last poll at 50: the tail window [50, 100)
  // violates from 60+15=75 to 100 -> 25 s.
  const UpdateTrace trace("t", {60.0}, 100.0);
  const auto report =
      evaluate_temporal_fidelity(trace, at({0.0, 50.0}), 15.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 25.0);
}

TEST(TemporalFidelity, MultiUpdateWindowUsesFirstUnseen) {
  // Fig. 1(b) ground truth: updates at 10 and 45, poll at 0 then 50,
  // Δ = 15.  Out-of-sync begins at 10+15=25 even though the *last* update
  // (45) is within Δ of the refresh.
  const UpdateTrace trace("t", {10.0, 45.0}, 100.0);
  const auto report =
      evaluate_temporal_fidelity(trace, at({0.0, 50.0}), 15.0, 100.0);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 25.0);
}

TEST(TemporalFidelity, LargeDeltaForgivesStaleness) {
  const UpdateTrace trace("t", {10.0}, 100.0);
  const auto report =
      evaluate_temporal_fidelity(trace, at({0.0, 45.0}), 40.0, 100.0);
  // Out of sync would begin at 10+40=50, but the refresh lands at 45.
  EXPECT_EQ(report.violations, 0u);
}

TEST(TemporalFidelity, SnapshotVsCompletionMatters) {
  // With RTT, a copy completed at 12 reflects server state at 10.  An
  // update at 11 is unseen by that copy.
  const UpdateTrace trace("t", {11.0}, 100.0);
  std::vector<PollInstant> polls = {{0.0, 0.0}, {10.0, 12.0}};
  const auto report = evaluate_temporal_fidelity(trace, polls, 5.0, 100.0);
  // Window [12, 100): out of sync from 11+5=16 -> 84 s.
  EXPECT_EQ(report.violations, 1u);
  EXPECT_DOUBLE_EQ(report.out_sync_time, 84.0);
}

TEST(TemporalFidelity, CoincidentPollsYieldEmptyWindow) {
  const UpdateTrace trace("t", {10.0}, 100.0);
  std::vector<PollInstant> polls = {{0.0, 0.0}, {20.0, 20.0}, {20.0, 20.0},
                                    {90.0, 90.0}};
  const auto report = evaluate_temporal_fidelity(trace, polls, 15.0, 100.0);
  EXPECT_EQ(report.windows, 4u);
  EXPECT_EQ(report.violations, 0u);
}

TEST(TemporalFidelity, Validation) {
  const UpdateTrace trace("t", {10.0}, 100.0);
  EXPECT_THROW(evaluate_temporal_fidelity(trace, {}, 10.0, 100.0),
               CheckFailure);
  EXPECT_THROW(evaluate_temporal_fidelity(trace, at({0.0}), 0.0, 100.0),
               CheckFailure);
  EXPECT_THROW(evaluate_temporal_fidelity(trace, at({0.0}), 10.0, 0.0),
               CheckFailure);
  // Completions must not decrease.
  EXPECT_THROW(
      evaluate_temporal_fidelity(trace, at({0.0, 50.0, 30.0}), 10.0, 100.0),
      CheckFailure);
}

TEST(SuccessfulPolls, FiltersLogByUriAndFailure) {
  UriTable table;
  const ObjectId a = table.intern("/a");
  const ObjectId b = table.intern("/b");
  PollLog log(table);
  log.append(a, PollCause::kScheduled, false, /*failed=*/false, 1.0, 1.5);
  log.append(a, PollCause::kScheduled, false, /*failed=*/true, 2.0, 1.5);
  log.append(b, PollCause::kScheduled, false, /*failed=*/false, 1.0, 1.5);
  const auto polls = successful_polls(log, "/a");
  ASSERT_EQ(polls.size(), 1u);
  EXPECT_DOUBLE_EQ(polls[0].snapshot, 1.0);
  EXPECT_DOUBLE_EQ(polls[0].complete, 1.5);
  EXPECT_TRUE(successful_polls(log, "/absent").empty());
}

}  // namespace
}  // namespace broadway
