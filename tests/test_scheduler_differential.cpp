// End-to-end scheduler differential tests.
//
// The calendar event queue (Simulator::Config::scheduler) changes *how*
// events are stored, and must change nothing about *what* the simulation
// computes.  These tests run full harness simulations — a cooperative-push
// fleet (run_fleet_temporal plus a direct ProxyFleet run for log-level
// access) and a value-domain run — under the heap and the calendar
// backend, selected the way CI selects them (the BROADWAY_SCHEDULER
// environment variable), and assert byte-identical poll logs, TTR series,
// fidelity and counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "consistency/limd.h"
#include "fleet/proxy_fleet.h"
#include "harness/experiments.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

// Set an environment variable for the current scope, restoring the prior
// value on exit.  The suite is single-threaded; this is how the CI matrix
// and any user of the knobs actually selects a backend.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) previous_ = old;
    had_previous_ = old != nullptr;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_previous_) {
      ::setenv(name_, previous_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string previous_;
  bool had_previous_ = false;
};

constexpr const char* kSchedulers[] = {"heap", "calendar"};

UpdateTrace irregular_trace(const std::string& name, std::uint64_t seed,
                            Duration horizon) {
  Rng rng(seed);
  std::vector<TimePoint> updates;
  TimePoint t = 0.0;
  for (;;) {
    t += rng.uniform(40.0, 900.0);
    if (t >= horizon) break;
    updates.push_back(t);
  }
  return UpdateTrace(name, std::move(updates), horizon);
}

ValueTrace wiggly_trace(const std::string& name, std::uint64_t seed,
                        Duration horizon) {
  Rng rng(seed);
  std::vector<ValueTrace::Step> steps;
  TimePoint t = 0.0;
  double value = 100.0;
  for (;;) {
    t += rng.uniform(5.0, 30.0);
    if (t >= horizon) break;
    value += rng.uniform(-0.4, 0.4);
    steps.push_back({t, value});
  }
  return ValueTrace(name, 100.0, std::move(steps), horizon);
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

// ---- cooperative fleet -----------------------------------------------------

std::vector<UpdateTrace> fleet_traces(Duration horizon) {
  std::vector<UpdateTrace> traces;
  for (int i = 0; i < 5; ++i) {
    traces.push_back(
        irregular_trace("/object/" + std::to_string(i), 300 + i, horizon));
  }
  return traces;
}

struct FleetArtifacts {
  std::vector<PollRecord> records;  // all proxies, proxy-major
  std::vector<std::vector<std::pair<TimePoint, Duration>>> ttr_series;
  std::size_t origin_requests = 0;
  std::size_t relays_delivered = 0;
  std::size_t relays_applied = 0;
  FleetRunResult harness;
};

FleetArtifacts run_fleet_variant() {
  constexpr Duration kHorizon = 25000.0;
  const std::vector<UpdateTrace> traces = fleet_traces(kHorizon);

  FleetArtifacts artifacts;
  {
    // Direct fleet run: full poll logs and TTR series per proxy.
    Simulator sim;
    OriginServer origin(sim);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
    }
    FleetConfig config;
    config.proxies = 3;
    config.cooperative_push = true;
    config.relay_latency = 0.5;
    config.engine.rtt = 0.1;
    config.engine.loss_probability = 0.03;
    config.engine.retry_delay = 2.0;
    ProxyFleet fleet(sim, origin, config);
    for (const UpdateTrace& trace : traces) {
      fleet.add_temporal_object_everywhere(trace.name(), [] {
        return std::make_unique<LimdPolicy>(
            LimdPolicy::Config::paper_defaults(600.0));
      });
    }
    fleet.start();
    sim.run_until(kHorizon);
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      const auto& records = fleet.proxy(p).poll_log().records();
      artifacts.records.insert(artifacts.records.end(), records.begin(),
                               records.end());
      for (const UpdateTrace& trace : traces) {
        artifacts.ttr_series.push_back(
            fleet.proxy(p).ttr_series(trace.name()));
      }
    }
    artifacts.origin_requests = origin.requests_served();
    artifacts.relays_delivered = fleet.relays_delivered();
    artifacts.relays_applied = fleet.relays_applied();
  }
  // Harness-level run: the whole reporting surface.
  FleetRunConfig harness_config;
  harness_config.proxies = 2;
  harness_config.cooperative_push = true;
  harness_config.base.delta = 600.0;
  artifacts.harness = run_fleet_temporal(traces, harness_config);
  return artifacts;
}

TEST(SchedulerDifferential, FleetRunsAreByteIdentical) {
  std::vector<FleetArtifacts> results;
  for (const char* backend : kSchedulers) {
    SCOPED_TRACE(backend);
    ScopedEnv scheduler("BROADWAY_SCHEDULER", backend);
    results.push_back(run_fleet_variant());
  }
  const FleetArtifacts& reference = results.front();
  ASSERT_FALSE(reference.records.empty());
  for (std::size_t v = 1; v < results.size(); ++v) {
    SCOPED_TRACE(std::string(kSchedulers[v]) + " vs " + kSchedulers[0]);
    const FleetArtifacts& candidate = results[v];
    expect_records_identical(reference.records, candidate.records);
    EXPECT_EQ(reference.ttr_series, candidate.ttr_series);
    EXPECT_EQ(reference.origin_requests, candidate.origin_requests);
    EXPECT_EQ(reference.relays_delivered, candidate.relays_delivered);
    EXPECT_EQ(reference.relays_applied, candidate.relays_applied);
    EXPECT_EQ(reference.harness.origin_requests,
              candidate.harness.origin_requests);
    EXPECT_EQ(reference.harness.origin_polls, candidate.harness.origin_polls);
    EXPECT_EQ(reference.harness.relays_delivered,
              candidate.harness.relays_delivered);
    EXPECT_EQ(reference.harness.relays_applied,
              candidate.harness.relays_applied);
    EXPECT_EQ(reference.harness.origin_polls_per_second,
              candidate.harness.origin_polls_per_second);
    EXPECT_EQ(reference.harness.mean_fidelity_time,
              candidate.harness.mean_fidelity_time);
    EXPECT_EQ(reference.harness.min_fidelity_time,
              candidate.harness.min_fidelity_time);
    EXPECT_EQ(reference.harness.mean_fidelity_violations,
              candidate.harness.mean_fidelity_violations);
  }
}

// ---- value domain ----------------------------------------------------------

struct ValueArtifacts {
  std::vector<PollRecord> records;
  ValueRunResult harness;
};

ValueArtifacts run_value_variant() {
  constexpr Duration kHorizon = 8000.0;
  const ValueTrace trace = wiggly_trace("/stock/x", 77, kHorizon);

  ValueArtifacts artifacts;
  {
    // Direct engine run for log-level access (the harness returns only
    // aggregates).
    Simulator sim;
    OriginServer origin(sim);
    origin.attach_value_trace(trace.name(), trace);
    EngineConfig engine;
    engine.rtt = 0.05;
    engine.loss_probability = 0.02;
    engine.retry_delay = 1.5;
    PollingEngine proxy(sim, origin, engine);
    AdaptiveValueTtrPolicy::Config policy;
    policy.delta = 0.5;
    policy.bounds = {1.0, 300.0};
    proxy.add_value_object(trace.name(), policy);
    proxy.start();
    sim.run_until(kHorizon);
    artifacts.records = proxy.poll_log().records();
  }
  ValueRunConfig config;
  config.delta = 0.5;
  config.bounds = {1.0, 300.0};
  artifacts.harness = run_value_individual(trace, config);
  return artifacts;
}

TEST(SchedulerDifferential, ValueRunsAreByteIdentical) {
  std::vector<ValueArtifacts> results;
  for (const char* backend : kSchedulers) {
    SCOPED_TRACE(backend);
    ScopedEnv scheduler("BROADWAY_SCHEDULER", backend);
    results.push_back(run_value_variant());
  }
  const ValueArtifacts& reference = results.front();
  ASSERT_FALSE(reference.records.empty());
  for (std::size_t v = 1; v < results.size(); ++v) {
    SCOPED_TRACE(std::string(kSchedulers[v]) + " vs " + kSchedulers[0]);
    const ValueArtifacts& candidate = results[v];
    expect_records_identical(reference.records, candidate.records);
    EXPECT_EQ(reference.harness.polls, candidate.harness.polls);
    EXPECT_EQ(reference.harness.fidelity.windows,
              candidate.harness.fidelity.windows);
    EXPECT_EQ(reference.harness.fidelity.violations,
              candidate.harness.fidelity.violations);
    EXPECT_EQ(reference.harness.fidelity.out_sync_time,
              candidate.harness.fidelity.out_sync_time);
    EXPECT_EQ(reference.harness.fidelity.horizon,
              candidate.harness.fidelity.horizon);
  }
}

// The env knob itself: what CI sets must be what the constructor reads.
TEST(SchedulerDifferential, EnvironmentSelectsBackends) {
  {
    ScopedEnv scheduler("BROADWAY_SCHEDULER", "heap");
    Simulator sim;
    EXPECT_EQ(sim.scheduler(), SchedulerBackend::kBinaryHeap);
  }
  {
    ScopedEnv scheduler("BROADWAY_SCHEDULER", "calendar");
    Simulator sim;
    EXPECT_EQ(sim.scheduler(), SchedulerBackend::kCalendar);
  }
}

}  // namespace
}  // namespace broadway
