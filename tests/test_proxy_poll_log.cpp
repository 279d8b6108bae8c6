// PollLog: the per-object indices and running counters must agree exactly
// with a brute-force scan of the full record vector — on a randomized
// record stream and on a live engine driving all four object kinds.
#include "proxy/poll_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consistency/fixed_poll.h"
#include "consistency/limd.h"
#include "consistency/partitioned.h"
#include "consistency/triggered.h"
#include "consistency/virtual_object.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

// One record per append, so a whole PollRecord costs 24 bytes.
static_assert(sizeof(PollRecord) <= 24);

void append(PollLog& log, const PollRecord& record) {
  log.append(record.object, record.cause, record.modified, record.failed,
             record.snapshot_time, record.complete_time);
}

// Reference implementations: scan every record.  A counter's filter of
// std::nullopt means all objects.
std::vector<TimePoint> scan_completion_times(
    const std::vector<PollRecord>& records, ObjectId object) {
  std::vector<TimePoint> out;
  for (const PollRecord& record : records) {
    if (!record.failed && record.object == object) {
      out.push_back(record.complete_time);
    }
  }
  return out;
}

std::vector<TimePoint> scan_snapshot_times(
    const std::vector<PollRecord>& records, ObjectId object) {
  std::vector<TimePoint> out;
  for (const PollRecord& record : records) {
    if (!record.failed && record.object == object) {
      out.push_back(record.snapshot_time);
    }
  }
  return out;
}

std::size_t scan_polls_performed(const std::vector<PollRecord>& records,
                                 std::optional<ObjectId> object) {
  std::size_t count = 0;
  for (const PollRecord& record : records) {
    if (record.failed || record.cause == PollCause::kInitial ||
        record.cause == PollCause::kRelay) {
      continue;
    }
    if (object && record.object != *object) continue;
    ++count;
  }
  return count;
}

std::size_t scan_triggered_polls(const std::vector<PollRecord>& records,
                                 std::optional<ObjectId> object) {
  std::size_t count = 0;
  for (const PollRecord& record : records) {
    if (record.failed || record.cause != PollCause::kTriggered) continue;
    if (object && record.object != *object) continue;
    ++count;
  }
  return count;
}

std::size_t scan_failed_polls(const std::vector<PollRecord>& records) {
  std::size_t count = 0;
  for (const PollRecord& record : records) {
    if (record.failed) ++count;
  }
  return count;
}

void expect_log_matches_scan(const PollLog& log,
                             const std::vector<ObjectId>& objects) {
  const std::vector<PollRecord>& records = log.records();
  EXPECT_EQ(log.polls_performed(),
            scan_polls_performed(records, std::nullopt));
  EXPECT_EQ(log.triggered_polls(),
            scan_triggered_polls(records, std::nullopt));
  EXPECT_EQ(log.failed_polls(), scan_failed_polls(records));
  for (const ObjectId object : objects) {
    SCOPED_TRACE(object);
    EXPECT_EQ(log.completion_times(object),
              scan_completion_times(records, object));
    EXPECT_EQ(log.snapshot_times(object),
              scan_snapshot_times(records, object));
    EXPECT_EQ(log.polls_performed(object),
              scan_polls_performed(records, object));
    EXPECT_EQ(log.triggered_polls(object),
              scan_triggered_polls(records, object));
    const std::vector<std::size_t>& successful =
        log.successful_records(object);
    for (std::size_t i = 0; i < successful.size(); ++i) {
      ASSERT_LT(successful[i], records.size());
      EXPECT_FALSE(records[successful[i]].failed);
      EXPECT_EQ(records[successful[i]].object, object);
      if (i > 0) EXPECT_GT(successful[i], successful[i - 1]);
    }
  }
}

TEST(PollLog, IndexMatchesBruteForceOnRandomizedWorkload) {
  Rng rng(20260728);
  const ObjectId objects = 8;
  const PollCause causes[] = {PollCause::kInitial, PollCause::kScheduled,
                              PollCause::kTriggered, PollCause::kRetry,
                              PollCause::kRelay};
  UriTable table;
  PollLog log(table);
  TimePoint t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    PollRecord record;
    t += rng.uniform(0.0, 5.0);
    record.snapshot_time = t;
    record.complete_time = t + rng.uniform(0.0, 2.0);
    record.object = static_cast<ObjectId>(rng.uniform_int(0, objects - 1));
    record.cause = causes[rng.uniform_int(0, 4)];
    record.failed = rng.bernoulli(0.2);
    record.modified = !record.failed && rng.bernoulli(0.5);
    append(log, record);
  }
  ASSERT_EQ(log.size(), 5000u);

  // Every polled id, one past them (never polled) and the invalid id.
  std::vector<ObjectId> queried;
  for (ObjectId id = 0; id <= objects; ++id) queried.push_back(id);
  queried.push_back(kInvalidObjectId);
  expect_log_matches_scan(log, queried);
}

TEST(PollLog, UnknownUriAnswersEmpty) {
  UriTable table;
  PollLog log(table);
  for (const ObjectId object : {ObjectId{0}, kInvalidObjectId}) {
    EXPECT_TRUE(log.completion_times(object).empty());
    EXPECT_TRUE(log.snapshot_times(object).empty());
    EXPECT_TRUE(log.successful_records(object).empty());
    EXPECT_EQ(log.polls_performed(object), 0u);
    EXPECT_EQ(log.triggered_polls(object), 0u);
    EXPECT_EQ(log.relay_refreshes(object), 0u);
    EXPECT_EQ(log.demand_fills(object), 0u);
  }
  EXPECT_EQ(log.polls_performed(), 0u);
  EXPECT_EQ(log.failed_polls(), 0u);
}

// All four object kinds, a coordinator and loss injection drive one
// engine; every indexed accessor must agree with a scan of the log it
// produced.
TEST(PollLog, EngineAccessorsMatchBruteForceScan) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig config;
  config.rtt = 0.5;
  config.loss_probability = 0.2;
  config.retry_delay = 3.0;
  config.seed = 9;
  PollingEngine engine(sim, origin, config);

  const Duration horizon = 2000.0;
  origin.attach_update_trace(
      "/t1", UpdateTrace("/t1", generate_periodic(40.0, 20.0, horizon),
                         horizon));
  origin.attach_update_trace(
      "/t2", UpdateTrace("/t2", generate_periodic(90.0, 45.0, horizon),
                         horizon));
  engine.add_temporal_object("/t1", std::make_unique<FixedPollPolicy>(25.0));
  engine.add_temporal_object(
      "/t2", std::make_unique<LimdPolicy>(
                 LimdPolicy::Config::paper_defaults(60.0, 600.0)));
  engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/t1", "/t2"}, 30.0));

  origin.attach_value_trace(
      "/v1", ValueTrace("/v1", 100.0, {{200.0, 104.0}, {900.0, 95.0}},
                        horizon));
  AdaptiveValueTtrPolicy::Config value_config;
  value_config.delta = 0.5;
  value_config.bounds = {10.0, 200.0};
  engine.add_value_object("/v1", value_config);

  origin.attach_value_trace(
      "/g1", ValueTrace("/g1", 50.0, {{300.0, 53.0}}, horizon));
  origin.attach_value_trace(
      "/g2", ValueTrace("/g2", 48.0, {{700.0, 44.0}}, horizon));
  VirtualObjectPolicy::Config virtual_config;
  virtual_config.delta = 0.5;
  virtual_config.bounds = {20.0, 200.0};
  engine.add_virtual_group(
      {"/g1", "/g2"},
      std::make_unique<VirtualObjectPolicy>(
          std::make_unique<DifferenceFunction>(), virtual_config));

  origin.attach_value_trace(
      "/p1", ValueTrace("/p1", 10.0, {{150.0, 12.5}}, horizon));
  origin.attach_value_trace(
      "/p2", ValueTrace("/p2", 11.0, {{450.0, 9.0}}, horizon));
  engine.add_partitioned_group(
      {"/p1", "/p2"},
      std::make_unique<PartitionedTolerancePolicy>(
          std::make_unique<DifferenceFunction>(),
          PartitionedTolerancePolicy::Config::paper_defaults(
              1.0, TtrBounds{15.0, 200.0})));

  engine.start();
  sim.run_until(horizon);

  const PollLog& log = engine.poll_log();
  ASSERT_GT(log.size(), 100u);
  EXPECT_GT(engine.failed_polls(), 0u);
  EXPECT_GT(engine.triggered_polls(), 0u);

  const std::vector<std::string> uris = {"/t1", "/t2", "/v1", "/g1",
                                         "/g2", "/p1", "/p2", "/absent"};
  std::vector<ObjectId> objects;
  for (const std::string& uri : uris) {
    objects.push_back(log.uri_table().find(uri));
  }
  EXPECT_EQ(objects.back(), kInvalidObjectId);
  expect_log_matches_scan(log, objects);
  // The engine's string accessors resolve once and ask the log by id.
  for (std::size_t i = 0; i < uris.size(); ++i) {
    SCOPED_TRACE(uris[i]);
    const ObjectId object = objects[i];
    EXPECT_EQ(engine.poll_completion_times(uris[i]),
              log.completion_times(object));
    EXPECT_EQ(engine.poll_snapshot_times(uris[i]),
              log.snapshot_times(object));
    EXPECT_EQ(engine.polls_performed(uris[i]), log.polls_performed(object));
    EXPECT_EQ(engine.triggered_polls(uris[i]), log.triggered_polls(object));
  }

  // ttr_series over a mixed registry: self-scheduled objects have series,
  // group-polled members and unknown uris answer empty instead of
  // aborting the run.
  EXPECT_FALSE(engine.ttr_series("/t1").empty());
  EXPECT_FALSE(engine.ttr_series("/v1").empty());
  EXPECT_FALSE(engine.ttr_series("/p1").empty());
  EXPECT_TRUE(engine.ttr_series("/g1").empty());
  EXPECT_TRUE(engine.ttr_series("/g2").empty());
  EXPECT_TRUE(engine.ttr_series("/absent").empty());
}

}  // namespace
}  // namespace broadway
