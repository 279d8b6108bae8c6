// The coordinator-dispatch differential: id-keyed subscription-routed
// dispatch, run on the binary-heap and the calendar scheduler.
//
// Over seeded random group topologies — multiple triggered and
// rate-heuristic coordinators, overlapping member sets, ungrouped
// bystander objects, loss injection and a mid-run crash — both backends
// must produce byte-identical poll logs, identical TTR series, identical
// triggered-poll and notification counts and identical fidelity.  A
// second set of pins covers the mechanism itself: the per-object
// subscriber index, and that an engine with zero coordinators performs
// zero notify work.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consistency/fixed_poll.h"
#include "consistency/heuristic.h"
#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "origin/origin_server.h"
#include "proxy/poll_log.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

constexpr Duration kHorizon = 20000.0;

UpdateTrace irregular_trace(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimePoint> updates;
  TimePoint t = 0.0;
  for (;;) {
    t += rng.uniform(60.0, 900.0);
    if (t >= kHorizon) break;
    updates.push_back(t);
  }
  return UpdateTrace(name, std::move(updates), kHorizon);
}

// One seeded random topology: every object temporal under LIMD, a random
// mix of triggered / heuristic coordinators over random (overlapping)
// member subsets, with at least one ungrouped bystander.
struct Topology {
  std::vector<UpdateTrace> traces;
  struct Group {
    bool heuristic = false;
    Duration delta = 0.0;
    std::vector<std::string> members;
  };
  std::vector<Group> groups;
};

Topology make_topology(std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  Topology topology;
  const std::size_t objects =
      static_cast<std::size_t>(rng.uniform_int(5, 9));
  for (std::size_t i = 0; i < objects; ++i) {
    topology.traces.push_back(irregular_trace(
        "/object/" + std::to_string(i), 1000 * seed + i));
  }
  const std::size_t groups =
      static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t g = 0; g < groups; ++g) {
    Topology::Group group;
    group.heuristic = rng.bernoulli(0.4);
    group.delta = rng.uniform(60.0, 600.0);
    // Sample 2–4 distinct members; objects - 1 keeps at least one
    // bystander outside every group.
    const std::size_t wanted =
        static_cast<std::size_t>(rng.uniform_int(2, 4));
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i + 1 < objects; ++i) candidates.push_back(i);
    for (std::size_t pick = 0; pick < wanted && !candidates.empty();
         ++pick) {
      const std::size_t at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1));
      group.members.push_back(topology.traces[candidates[at]].name());
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(at));
    }
    if (group.members.size() >= 2) topology.groups.push_back(group);
  }
  return topology;
}

struct RunArtifacts {
  std::vector<PollRecord> records;
  std::vector<std::vector<std::pair<TimePoint, Duration>>> ttr_series;
  std::size_t triggered = 0;
  std::uint64_t notifies = 0;
  double individual_fidelity = 0.0;
  double mutual_fidelity = 0.0;
};

RunArtifacts run_topology(const Topology& topology,
                          SchedulerBackend backend) {
  Simulator::Config sim_config;
  sim_config.scheduler = backend;
  Simulator sim(sim_config);
  OriginServer origin(sim);

  EngineConfig config;
  config.rtt = 0.25;
  config.loss_probability = 0.05;
  config.retry_delay = 4.0;
  config.seed = 77;
  PollingEngine engine(sim, origin, config);

  for (const UpdateTrace& trace : topology.traces) {
    origin.attach_update_trace(trace.name(), trace);
    engine.add_temporal_object(
        trace.name(), std::make_unique<LimdPolicy>(
                          LimdPolicy::Config::paper_defaults(300.0)));
  }
  for (const Topology::Group& group : topology.groups) {
    if (group.heuristic) {
      RateHeuristicCoordinator::Config heuristic;
      heuristic.delta_mutual = group.delta;
      engine.add_coordinator(std::make_unique<RateHeuristicCoordinator>(
          group.members, heuristic));
    } else {
      engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
          group.members, group.delta));
    }
  }

  engine.start();
  sim.run_until(kHorizon / 2);
  engine.crash();  // coordinator reset is part of the contract
  engine.recover();
  sim.run_until(kHorizon);

  RunArtifacts artifacts;
  artifacts.records = engine.poll_log().records();
  for (const UpdateTrace& trace : topology.traces) {
    artifacts.ttr_series.push_back(engine.ttr_series(trace.name()));
  }
  artifacts.triggered = engine.triggered_polls();
  artifacts.notifies = engine.coordinator_notifies();
  const auto polls_a =
      successful_polls(engine.poll_log(), topology.traces[0].name());
  const auto polls_b =
      successful_polls(engine.poll_log(), topology.traces[1].name());
  artifacts.individual_fidelity =
      evaluate_temporal_fidelity(topology.traces[0], polls_a, 300.0,
                                 kHorizon)
          .fidelity_time();
  artifacts.mutual_fidelity =
      evaluate_mutual_temporal(topology.traces[0], polls_a,
                               topology.traces[1], polls_b, 300.0, kHorizon)
          .fidelity_time();
  return artifacts;
}

void expect_records_identical(const std::vector<PollRecord>& a,
                              const std::vector<PollRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].uri, b[i].uri);
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(a[i].cause, b[i].cause);
    EXPECT_EQ(a[i].modified, b[i].modified);
    EXPECT_EQ(a[i].failed, b[i].failed);
    EXPECT_EQ(a[i].snapshot_time, b[i].snapshot_time);
    EXPECT_EQ(a[i].complete_time, b[i].complete_time);
  }
}

TEST(DispatchDifferential, RoutedHeapMatchesCalendarOverRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Topology topology = make_topology(seed);
    ASSERT_FALSE(topology.groups.empty());
    const RunArtifacts heap =
        run_topology(topology, SchedulerBackend::kBinaryHeap);
    const RunArtifacts calendar =
        run_topology(topology, SchedulerBackend::kCalendar);
    ASSERT_FALSE(heap.records.empty());
    expect_records_identical(heap.records, calendar.records);
    EXPECT_EQ(heap.ttr_series, calendar.ttr_series);
    EXPECT_EQ(heap.triggered, calendar.triggered);
    EXPECT_EQ(heap.notifies, calendar.notifies);
    EXPECT_EQ(heap.individual_fidelity, calendar.individual_fidelity);
    EXPECT_EQ(heap.mutual_fidelity, calendar.mutual_fidelity);
    EXPECT_GT(heap.notifies, 0u);
  }
}

TEST(DispatchDifferential, ZeroCoordinatorEngineDoesNoNotifyWork) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  for (int i = 0; i < 4; ++i) {
    const UpdateTrace trace =
        irregular_trace("/object/" + std::to_string(i), 400 + i);
    origin.attach_update_trace(trace.name(), trace);
    engine.add_temporal_object(
        trace.name(), std::make_unique<LimdPolicy>(
                          LimdPolicy::Config::paper_defaults(300.0)));
  }
  engine.start();
  sim.run_until(kHorizon);
  EXPECT_GT(engine.polls_performed(), 0u);
  // The subscriber index is empty, so stage 6 never dispatches.
  EXPECT_EQ(engine.coordinator_notifies(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.subscriber_count("/object/" + std::to_string(i)), 0u);
  }
}

TEST(DispatchDifferential, SubscriberIndexFollowsGroupMembership) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  for (const char* uri : {"/a", "/b", "/c"}) {
    origin.add_object(uri);
    engine.add_temporal_object(uri,
                               std::make_unique<FixedPollPolicy>(100.0));
  }
  engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/a", "/b"}, 60.0));
  engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/b", "/c"}, 60.0));
  // A null coordinator subscribes to nothing.
  engine.add_coordinator(std::make_unique<NullCoordinator>());

  EXPECT_EQ(engine.subscriber_count("/a"), 1u);
  EXPECT_EQ(engine.subscriber_count("/b"), 2u);  // overlapping groups
  EXPECT_EQ(engine.subscriber_count("/c"), 1u);
  EXPECT_EQ(engine.subscriber_count("/unknown"), 0u);
}

TEST(DispatchDifferential, UnknownMemberFailsAtRegistration) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.add_object("/a");
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  // Member interning happens at add_coordinator, so a bad member list
  // fails fast instead of aborting mid-simulation on the first trigger.
  EXPECT_THROW(
      engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
          std::vector<std::string>{"/a", "/ghost"}, 60.0)),
      CheckFailure);
}

}  // namespace
}  // namespace broadway
