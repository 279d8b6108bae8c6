// Broadway benchmark runner: runs ONE named workload once — set-up, run,
// evaluation — and prints one JSON line with its timings, deterministic
// outputs, output digest and correctness checks.  run.py repeats it,
// takes medians and prints the benchmark's metrics.
//
//   broadway_perfbench --workload proxy_mutual|fleet_relay|client_faulty
//                      --seed N [--traced] [--hours H]
//                      [--corrupt ledger|digest]
//
// The runner calls the library's public API directly (not the harness
// runners) so it can time each phase:
//   set-up      trace generation, origin attach, registration, start()
//   run         Simulator/ShardedFleet::run_until(horizon)
//   evaluation  fidelity, mutual fidelity, read transactions, merges
// Every input (traces, client streams, loss and fault seeds) derives from
// --seed; the library only receives the generated inputs.
//
// --traced adds the per-layer measurements: run_until is called in
// simulated-hour chunks with the counters sampled at each edge, refresh
// policies and δ-group coordinators are wrapped in timing subclasses (self
// time = span minus nested spans), and fleet_relay also runs the same
// inputs on the single-simulator ProxyFleet reference, whose outputs must
// match the sharded run byte for byte.  None of this changes the
// simulated outputs; the digest of a traced run equals the untraced one.
//
// --corrupt injects a failure on the benchmark side only (the self-test
// uses it): "ledger" breaks the ledger comparison, "digest" salts the
// digest with the process id so two runs of one seed disagree.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "client/client_traffic.h"
#include "client/read_transactions.h"
#include "consistency/function.h"
#include "consistency/limd.h"
#include "consistency/partitioned.h"
#include "consistency/triggered.h"
#include "consistency/value_ttr.h"
#include "fleet/faults.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "metrics/accounting.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "metrics/value_fidelity.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/diurnal.h"
#include "trace/generators.h"
#include "trace/stock.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace {

using namespace broadway;
using Clock = std::chrono::steady_clock;

constexpr Duration kHour = 3600.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Independent sub-seed `stream` of the workload seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- output digest ---------------------------------------------------------

/// FNV-1a over the bytes of the deterministic outputs.
class Digest {
 public:
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add_records(const std::vector<PollRecord>& records) {
    add(static_cast<std::uint64_t>(records.size()));
    for (const PollRecord& r : records) {
      add(static_cast<std::uint64_t>(r.object));
      add(static_cast<std::uint64_t>(r.cause) << 2 |
          static_cast<std::uint64_t>(r.modified) << 1 |
          static_cast<std::uint64_t>(r.failed));
      add(r.snapshot_time);
      add(r.complete_time);
    }
  }
  void salt(std::uint64_t v) { hash_ ^= v * 0x100000001b3ULL; }
  std::uint64_t value() const { return hash_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
};

std::uint64_t digest_of(const std::vector<PollRecord>& records) {
  Digest d;
  d.add_records(records);
  return d.value();
}

// ---- spans -----------------------------------------------------------------

/// Spans recorded around the calls into each layer, kept in memory and
/// emitted with the result.  Nesting is by call structure: a span opened
/// inside another records it as parent.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  // seconds since the tracer was built
    double end = 0.0;
  };

  template <typename F>
  void span(const std::string& name, F&& body) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), now(), 0.0});
    open_.push_back(index);
    body();
    open_.pop_back();
    spans_[index].end = now();
  }

  /// Summed duration of every span with this name.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }

  /// Durations of every span with this name, in order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  double now() const { return seconds_between(origin_, Clock::now()); }
};

// ---- hot-path self time (traced runs) --------------------------------------

/// Aggregated span of one hot-path call site: calls and self time.
/// Self time subtracts nested hot spans (a coordinator's on_poll contains
/// the triggered polls' next_ttr calls and nested on_poll calls).
struct HotStats {
  std::uint64_t calls = 0;
  double self_s = 0.0;

  void merge(const HotStats& o) {
    calls += o.calls;
    self_s += o.self_s;
  }
};

struct HotFrame {
  Clock::time_point start;
  double child_s = 0.0;
};

// Per thread: sharded shards run on worker threads, and each policy or
// coordinator instance is only ever touched by its shard's thread.
thread_local std::vector<HotFrame> t_hot_frames;

class HotScope {
 public:
  explicit HotScope(HotStats& stats) : stats_(stats) {
    t_hot_frames.push_back({Clock::now(), 0.0});
  }
  ~HotScope() {
    const HotFrame frame = t_hot_frames.back();
    t_hot_frames.pop_back();
    const double d = seconds_between(frame.start, Clock::now());
    ++stats_.calls;
    stats_.self_s += d - frame.child_s;
    if (!t_hot_frames.empty()) t_hot_frames.back().child_s += d;
  }
  HotScope(const HotScope&) = delete;
  HotScope& operator=(const HotScope&) = delete;

 private:
  HotStats& stats_;
};

/// Timing decorator over a refresh policy (same decisions, timed next_ttr).
class TimedPolicy final : public RefreshPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<RefreshPolicy> inner)
      : inner_(std::move(inner)) {}

  Duration initial_ttr() const override { return inner_->initial_ttr(); }
  Duration next_ttr(const TemporalPollObservation& obs) override {
    HotScope scope(stats_);
    return inner_->next_ttr(obs);
  }
  void reset() override { inner_->reset(); }
  Duration current_ttr() const override { return inner_->current_ttr(); }

  const HotStats& stats() const { return stats_; }

 private:
  std::unique_ptr<RefreshPolicy> inner_;
  HotStats stats_;
};

/// Timing subclass of the triggered-poll coordinator.
class TimedTriggered final : public TriggeredPollCoordinator {
 public:
  using TriggeredPollCoordinator::TriggeredPollCoordinator;
  using TriggeredPollCoordinator::on_poll;

  void on_poll(ObjectId object, const TemporalPollObservation& obs) override {
    HotScope scope(stats_);
    TriggeredPollCoordinator::on_poll(object, obs);
  }

  const HotStats& stats() const { return stats_; }

 private:
  HotStats stats_;
};

/// Builds LIMD policies, wrapped in TimedPolicy when traced.  Factories
/// may run on any thread; the registry of wrappers is guarded.
class PolicyMaker {
 public:
  explicit PolicyMaker(bool traced) : traced_(traced) {}

  std::unique_ptr<RefreshPolicy> limd(Duration delta) {
    auto policy =
        std::make_unique<LimdPolicy>(LimdPolicy::Config::paper_defaults(delta));
    if (!traced_) return policy;
    auto timed = std::make_unique<TimedPolicy>(std::move(policy));
    std::lock_guard<std::mutex> lock(mutex_);
    timed_.push_back(timed.get());
    return timed;
  }

  /// Summed stats of every wrapper (call after the run; the owners must
  /// still be alive).
  HotStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    HotStats sum;
    for (const TimedPolicy* p : timed_) sum.merge(p->stats());
    return sum;
  }

 private:
  bool traced_;
  mutable std::mutex mutex_;
  std::vector<const TimedPolicy*> timed_;
};

// ---- host ------------------------------------------------------------------

struct ProcStat {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Aggregate CPU jiffies from /proc/stat (zeros when unreadable).
ProcStat read_proc_stat() {
  ProcStat out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    // guest and guest_nice (fields 8, 9) are already inside user/nice.
    if (field < 8) out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double read_loadavg() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

// ---- result ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  double hours = 24.0;
  std::string corrupt;  // "", "ledger" or "digest"
};

/// One run's outputs.  `metrics` holds timings (vary run to run) and
/// `counts` the deterministic outputs (repeat exactly for a seed).
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, double> counts;
  std::vector<std::pair<std::string, bool>> checks;
  Digest digest;
  Tracer tracer;
  std::set<int> cpus;
  std::string corrupt;

  void sample_cpu() {
    const int cpu = sched_getcpu();
    if (cpu >= 0) cpus.insert(cpu);
  }

  /// Ledger comparison; --corrupt ledger breaks the first one on purpose.
  void check_equal(const std::string& name, double lhs, double rhs) {
    if (corrupt == "ledger") {
      lhs += 1.0;
      corrupt.clear();
    }
    checks.emplace_back(name, lhs == rhs);
  }
  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
};

/// Run `run_until` to the horizon: one call untraced; simulated-hour
/// chunks with a counter sample at each edge when traced.  `pending`
/// reports the simulator's pending-event count (or 0 when not visible).
void run_phase(Result& result, bool traced, Duration horizon,
               const std::function<void(TimePoint)>& run_until,
               const std::function<std::size_t()>& pending) {
  double pending_max = 0.0;
  result.tracer.span("sim.run", [&] {
    if (!traced) {
      run_until(horizon);
      return;
    }
    for (TimePoint edge = kHour;; edge += kHour) {
      const TimePoint to = std::min(edge, horizon);
      result.tracer.span("sim.hour", [&] { run_until(to); });
      pending_max = std::max(pending_max, static_cast<double>(pending()));
      result.sample_cpu();
      if (to >= horizon) break;
    }
  });
  result.counts["sim.pending_max"] = pending_max;
}

// ---- shared workload pieces ------------------------------------------------

/// Poisson update traces, mean gap log-uniform in [5 min, 2 h].
std::vector<UpdateTrace> make_traces(std::uint64_t seed, std::size_t count,
                                     const std::string& prefix,
                                     Duration horizon) {
  Rng rng(seed);
  std::vector<UpdateTrace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double gap =
        std::exp(rng.uniform(std::log(300.0), std::log(7200.0)));
    Rng stream = rng.fork();
    traces.emplace_back(prefix + std::to_string(i),
                        generate_poisson(stream, 1.0 / gap, horizon), horizon);
  }
  return traces;
}

std::size_t total_updates(const std::vector<UpdateTrace>& traces) {
  std::size_t n = 0;
  for (const UpdateTrace& t : traces) n += t.count();
  return n;
}

OriginServer::Config origin_config() {
  OriginServer::Config config;
  config.render_bodies = false;  // bodies are never read by the benchmark
  return config;
}

/// Successful polls of every trace's object in one proxy's log.
using PollSeries = std::vector<std::vector<PollInstant>>;

PollSeries polls_of(const PollLog& log, const std::vector<UpdateTrace>& traces) {
  PollSeries series;
  series.reserve(traces.size());
  for (const UpdateTrace& t : traces) series.push_back(successful_polls(log, t.name()));
  return series;
}

/// Eq. 14 fidelity of every (proxy, object) pair, folded into the digest;
/// returns the mean.  `series[p]` holds proxy p's polls, `delta_of(p)` its
/// Δ.
double mean_fidelity(Result& result, const std::vector<PollSeries>& series,
                     const std::vector<UpdateTrace>& traces,
                     const std::function<Duration(std::size_t)>& delta_of,
                     Duration horizon) {
  double sum = 0.0;
  for (std::size_t p = 0; p < series.size(); ++p) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const double f =
          evaluate_temporal_fidelity(traces[i], series[p][i], delta_of(p), horizon)
              .fidelity_time();
      result.digest.add(f);
      sum += f;
    }
  }
  return sum / static_cast<double>(series.size() * traces.size());
}

/// Mt fidelity (Eq. 4, time-based) of object pairs, averaged over the
/// pairs of every proxy.
double mean_mutual_fidelity(
    Result& result, const std::vector<PollSeries>& series,
    const std::vector<UpdateTrace>& traces,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    Duration delta_mutual, Duration horizon) {
  double sum = 0.0;
  for (const PollSeries& polls : series) {
    for (const auto& [a, b] : pairs) {
      const double f = evaluate_mutual_temporal(traces[a], polls[a], traces[b],
                                                polls[b], delta_mutual, horizon)
                           .fidelity_time();
      result.digest.add(f);
      sum += f;
    }
  }
  return sum / static_cast<double>(series.size() * pairs.size());
}

/// Objects (2k, 2k+1): the fixed pairs over which workloads without
/// δ-groups report mutual fidelity.
std::vector<std::pair<std::size_t, std::size_t>> adjacent_pairs(
    std::size_t objects) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i + 1 < objects; i += 2) pairs.emplace_back(i, i + 1);
  return pairs;
}

/// k = 3 read transactions over the poll logs (offline evaluator).
void evaluate_transactions(Result& result,
                           const std::vector<const PollLog*>& logs,
                           std::uint64_t seed, Duration horizon) {
  ReadTransactionConfig config;
  config.rate = 0.25;  // ~21.6k transactions per simulated day
  config.objects = 3;
  config.delta = 600.0;
  config.seed = seed;
  TransactionStats stats;
  result.tracer.span("client.tx_eval",
                     [&] { stats = evaluate_read_transactions(logs, config, horizon); });
  result.counts["client.transactions"] = static_cast<double>(stats.transactions);
  result.counts["tx_violation_rate"] = stats.violation_rate();
  result.digest.add(static_cast<std::uint64_t>(stats.transactions));
  result.digest.add(static_cast<std::uint64_t>(stats.complete));
  result.digest.add(static_cast<std::uint64_t>(stats.violations));
}

/// Origin ledger: origin polls == policy polls + demand fills, with the
/// counters cross-checked against cause counts recomputed from the full
/// logs.
void check_origin_ledger(Result& result, const FleetOriginLoad& load,
                         const std::vector<const PollLog*>& logs) {
  PollCauseCounts causes;
  std::size_t records = 0;
  for (const PollLog* log : logs) {
    causes.merge(count_by_cause(*log));
    records += log->size();
  }
  result.check_equal("ledger.origin_polls",
                     static_cast<double>(load.origin_polls),
                     static_cast<double>(causes.policy_polls() + causes.client_miss));
  result.check("ledger.demand_fills", load.demand_fills == causes.client_miss);
  result.check("ledger.policy_polls", load.policy_polls() == causes.policy_polls());
  result.check("ledger.records_kept", records == causes.initial + causes.scheduled +
                                                     causes.triggered + causes.retry +
                                                     causes.relay + causes.client_miss +
                                                     causes.failed);
  result.counts["metrics.records"] = static_cast<double>(records);
}

/// Relay ledger: sent == delivered + in flight + lost.
template <typename Fleet>
void check_relay_ledger(Result& result, const Fleet& fleet) {
  result.check_equal("ledger.relays",
                     static_cast<double>(fleet.relays_sent()),
                     static_cast<double>(fleet.relays_delivered() +
                                         fleet.relays_in_flight() +
                                         fleet.relays_lost()));
}

template <typename Fleet>
void record_relays(Result& result, const Fleet& fleet) {
  auto& c = result.counts;
  c["fleet.relays_sent"] = static_cast<double>(fleet.relays_sent());
  c["fleet.relays_delivered"] = static_cast<double>(fleet.relays_delivered());
  c["fleet.relays_applied"] = static_cast<double>(fleet.relays_applied());
  c["fleet.relays_lost"] = static_cast<double>(fleet.relays_lost());
  c["fleet.relays_retried"] = static_cast<double>(fleet.relays_retried());
  c["fleet.relays_dropped_dark"] = static_cast<double>(fleet.relays_dropped_dark());
  c["fleet.relay_apply_ratio"] =
      fleet.relays_delivered() == 0
          ? 0.0
          : static_cast<double>(fleet.relays_applied()) /
                static_cast<double>(fleet.relays_delivered());
  for (const std::size_t v :
       {fleet.relays_sent(), fleet.relays_delivered(), fleet.relays_applied(),
        fleet.relays_in_flight(), fleet.relays_lost(), fleet.relays_retried(),
        fleet.relays_dropped_dark()}) {
    result.digest.add(static_cast<std::uint64_t>(v));
  }
}

void record_load(Result& result, const FleetOriginLoad& load) {
  result.counts["origin_polls"] = static_cast<double>(load.origin_polls);
  for (const std::size_t v : {load.origin_messages, load.origin_polls,
                              load.relay_refreshes, load.demand_fills, load.failed}) {
    result.digest.add(static_cast<std::uint64_t>(v));
  }
}

void record_coordination(Result& result, const PolicyMaker& policies,
                         const HotStats& coordinators,
                         std::uint64_t notifies) {
  const HotStats ttr = policies.stats();
  auto& m = result.metrics;
  m["consistency.next_ttr_s"] = ttr.self_s;
  m["consistency.coordinator_self_s"] = coordinators.self_s;
  result.counts["consistency.next_ttr_calls"] = static_cast<double>(ttr.calls);
  result.counts["consistency.coordinator_calls"] =
      static_cast<double>(coordinators.calls);
  result.counts["consistency.coordinator_notifies"] = static_cast<double>(notifies);
}

// ---- workload: proxy_mutual ------------------------------------------------
//
// One PollingEngine: 4096 Poisson objects under LIMD (Δ = 10 min) in 512
// eight-member triggered-poll δ-groups (δ = 10 min), plus a value-domain
// slice — stock walks under adaptive Δv and partitioned Mv pairs.

constexpr std::size_t kMutualObjects = 4096;
constexpr std::size_t kGroupSize = 8;
constexpr std::size_t kValueObjects = 48;
constexpr std::size_t kValuePairs = 24;
constexpr Duration kDelta = 600.0;
constexpr double kValueDelta = 0.25;

void proxy_mutual(const Options& opt, Result& result) {
  const Duration horizon = opt.hours * kHour;
  std::vector<UpdateTrace> traces;
  std::vector<ValueTrace> stocks;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<PollingEngine> engine;
  PolicyMaker policies(opt.traced);
  std::vector<const TimedTriggered*> timed_groups;
  Tracer& tr = result.tracer;

  tr.span("setup", [&] {
    tr.span("trace.generate", [&] {
      traces = make_traces(derive(opt.seed, 1), kMutualObjects, "/obj/", horizon);
      Rng rng(derive(opt.seed, 2));
      for (std::size_t i = 0; i < kValueObjects + 2 * kValuePairs; ++i) {
        StockWalkConfig walk;
        walk.name = "/stock/" + std::to_string(i);
        walk.duration = horizon;
        walk.updates = static_cast<std::size_t>(2000.0 * opt.hours / 24.0) + 1;
        Rng stream = rng.fork();
        stocks.push_back(generate_stock_walk(stream, walk));
      }
    });
    tr.span("origin.attach", [&] {
      sim = std::make_unique<Simulator>();
      origin = std::make_unique<OriginServer>(*sim, origin_config());
      for (const UpdateTrace& t : traces) origin->attach_update_trace(t.name(), t);
      for (const ValueTrace& t : stocks) origin->attach_value_trace(t.name(), t);
    });
    tr.span("proxy.register", [&] {
      engine = std::make_unique<PollingEngine>(*sim, *origin);
      for (const UpdateTrace& t : traces) {
        engine->add_temporal_object(t.name(), policies.limd(kDelta));
      }
      for (std::size_t g = 0; g < kMutualObjects / kGroupSize; ++g) {
        std::vector<std::string> members;
        for (std::size_t k = 0; k < kGroupSize; ++k) {
          members.push_back(traces[g * kGroupSize + k].name());
        }
        if (opt.traced) {
          auto timed = std::make_unique<TimedTriggered>(members, kDelta);
          timed_groups.push_back(timed.get());
          engine->add_coordinator(std::move(timed));
        } else {
          engine->add_coordinator(
              std::make_unique<TriggeredPollCoordinator>(members, kDelta));
        }
      }
      const TtrBounds bounds{30.0, 600.0};
      for (std::size_t i = 0; i < kValueObjects; ++i) {
        engine->add_value_object(
            stocks[i].name(),
            AdaptiveValueTtrPolicy::Config::paper_defaults(kValueDelta, bounds));
      }
      for (std::size_t j = 0; j < kValuePairs; ++j) {
        const ValueTrace& a = stocks[kValueObjects + 2 * j];
        const ValueTrace& b = stocks[kValueObjects + 2 * j + 1];
        engine->add_partitioned_group(
            {a.name(), b.name()},
            std::make_unique<PartitionedTolerancePolicy>(
                std::make_unique<DifferenceFunction>(),
                PartitionedTolerancePolicy::Config::paper_defaults(kValueDelta,
                                                                   bounds)));
      }
    });
    tr.span("proxy.start", [&] { engine->start(); });
  });
  result.sample_cpu();
  const std::size_t initial = origin->requests_served();

  run_phase(result, opt.traced, horizon,
            [&](TimePoint t) { sim->run_until(t); },
            [&] { return sim->pending(); });
  result.sample_cpu();

  const PollLog& log = engine->poll_log();
  std::vector<PollSeries> series;
  tr.span("eval", [&] {
    tr.span("metrics.fidelity_eval", [&] {
      series.push_back(polls_of(log, traces));
      result.counts["fidelity_mean"] = mean_fidelity(
          result, series, traces, [](std::size_t) { return kDelta; }, horizon);
      for (std::size_t i = 0; i < kValueObjects; ++i) {
        result.digest.add(evaluate_value_fidelity(
                              stocks[i], successful_polls(log, stocks[i].name()),
                              kValueDelta, horizon)
                              .fidelity_time());
      }
    });
    tr.span("metrics.mutual_eval", [&] {
      std::vector<std::pair<std::size_t, std::size_t>> pairs;
      for (std::size_t g = 0; g < kMutualObjects; g += kGroupSize) {
        for (std::size_t a = g; a < g + kGroupSize; ++a) {
          for (std::size_t b = a + 1; b < g + kGroupSize; ++b) pairs.emplace_back(a, b);
        }
      }
      result.counts["mutual_fidelity_mean"] =
          mean_mutual_fidelity(result, series, traces, pairs, kDelta, horizon);
      const DifferenceFunction difference;
      for (std::size_t j = 0; j < kValuePairs; ++j) {
        const ValueTrace& a = stocks[kValueObjects + 2 * j];
        const ValueTrace& b = stocks[kValueObjects + 2 * j + 1];
        result.digest.add(
            evaluate_mutual_value(a, successful_polls(log, a.name()), b,
                                  successful_polls(log, b.name()), difference,
                                  kValueDelta, horizon)
                .fidelity_time());
      }
    });
    evaluate_transactions(result, {&log}, derive(opt.seed, 6), horizon);
  });

  // ---- outputs and checks (outside the timed phases) ----
  auto& c = result.counts;
  c["sim.events"] = static_cast<double>(sim->executed());
  c["origin.requests"] = static_cast<double>(origin->requests_served());
  c["proxy.polls"] = static_cast<double>(engine->polls_performed());
  c["proxy.polls_failed"] = static_cast<double>(engine->failed_polls());
  c["proxy.triggered_polls"] = static_cast<double>(engine->triggered_polls());
  c["proxy.poll_log_records"] = static_cast<double>(log.size());
  c["trace.updates"] = static_cast<double>(total_updates(traces));
  for (const ValueTrace& t : stocks) {
    c["trace.updates"] += static_cast<double>(t.count());
    c["proxy.value_polls"] += static_cast<double>(engine->polls_performed(t.name()));
  }
  c["ops"] = static_cast<double>(origin->requests_served());
  c["run_origin_polls"] = static_cast<double>(origin->requests_served() - initial);

  const FleetOriginLoad load = fleet_origin_load({&log});
  record_load(result, load);
  check_origin_ledger(result, load, {&log});
  result.check("ledger.origin_requests",
               origin->requests_served() == load.origin_messages);
  result.digest.add_records(log.records());
  result.digest.add(static_cast<std::uint64_t>(engine->coordinator_notifies()));

  HotStats coordinators;
  for (const TimedTriggered* g : timed_groups) coordinators.merge(g->stats());
  record_coordination(result, policies, coordinators, engine->coordinator_notifies());
}

// ---- workload: fleet_relay -------------------------------------------------
//
// ShardedFleet at 4 worker threads: 8 proxies each tracking the same 1024
// objects, cooperative push with 60 s relay latency, proxy p at
// Δ = 600 + 75·p s (distinct Δ keeps the proxies out of poll lockstep, so
// relays arrive before the receiver's own poll and are applied).

constexpr std::size_t kRelayProxies = 8;
constexpr std::size_t kRelayObjects = 1024;
constexpr std::size_t kRelayThreads = 4;
constexpr Duration kRelayLatency = 60.0;

Duration relay_delta(std::size_t proxy) {
  return 600.0 + 75.0 * static_cast<double>(proxy);
}

FleetConfig relay_fleet_config() {
  FleetConfig config;
  config.proxies = kRelayProxies;
  config.cooperative_push = true;
  config.relay_latency = kRelayLatency;
  return config;
}

/// The single-simulator reference of the fleet_relay inputs (traced runs):
/// its origin load, merged records and relay ledger must match the
/// sharded run exactly.
struct ReferenceOutputs {
  FleetOriginLoad load;
  std::uint64_t records_digest = 0;
  std::vector<std::size_t> relays;
};

ReferenceOutputs run_relay_reference(const std::vector<UpdateTrace>& traces,
                                     Duration horizon, Result& result) {
  ReferenceOutputs out;
  Tracer& tr = result.tracer;
  Simulator sim;
  OriginServer origin(sim, origin_config());
  ProxyFleet fleet(sim, origin, relay_fleet_config());
  tr.span("reference.setup", [&] {
    for (const UpdateTrace& t : traces) origin.attach_update_trace(t.name(), t);
    for (std::size_t p = 0; p < kRelayProxies; ++p) {
      for (const UpdateTrace& t : traces) {
        fleet.add_temporal_object(
            p, t.name(),
            std::make_unique<LimdPolicy>(
                LimdPolicy::Config::paper_defaults(relay_delta(p))));
      }
    }
    fleet.start();
  });
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  std::vector<double> hours;
  std::size_t pending_max = 0;
  tr.span("reference.run", [&] {
    for (TimePoint edge = kHour;; edge += kHour) {
      const TimePoint to = std::min(edge, horizon);
      const auto t0 = Clock::now();
      sim.run_until(to);
      hours.push_back(seconds_between(t0, Clock::now()));
      pending_max = std::max(pending_max, sim.pending());
      if (to >= horizon) break;
    }
  });
  result.counts["sim.pending_max"] = static_cast<double>(pending_max);
  result.metrics["sharded.reference_cpu_s"] =
      cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  result.counts["sim.events"] = static_cast<double>(sim.executed());
  std::sort(hours.begin(), hours.end());
  result.metrics["sim.hour_s_p50"] = hours[hours.size() / 2];
  result.metrics["sim.hour_s_max"] = hours.back();

  out.load = fleet.origin_load();
  std::vector<ProxyPollRecords> logs;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    logs.push_back({p, &fleet.proxy(p).poll_log().records()});
  }
  out.records_digest = digest_of(merge_poll_records(std::move(logs)));
  out.relays = {fleet.relays_sent(), fleet.relays_delivered(),
                fleet.relays_applied(), fleet.relays_in_flight(),
                fleet.relays_lost()};
  return out;
}

void fleet_relay(const Options& opt, Result& result) {
  const Duration horizon = opt.hours * kHour;
  std::vector<UpdateTrace> traces;
  std::unique_ptr<ShardedFleet> fleet;
  PolicyMaker policies(opt.traced);
  double attach_s = 0.0;
  Tracer& tr = result.tracer;

  tr.span("setup", [&] {
    tr.span("trace.generate", [&] {
      traces = make_traces(derive(opt.seed, 1), kRelayObjects, "/obj/", horizon);
    });
    tr.span("fleet.register", [&] {
      ShardedFleetConfig config;
      config.fleet = relay_fleet_config();
      config.threads = kRelayThreads;
      config.origin = origin_config();
      // Runs once per shard inside start(), on the calling thread.
      config.origin_setup = [&traces, &attach_s](OriginServer& origin) {
        const auto t0 = Clock::now();
        for (const UpdateTrace& t : traces) origin.attach_update_trace(t.name(), t);
        attach_s += seconds_between(t0, Clock::now());
      };
      fleet = std::make_unique<ShardedFleet>(std::move(config));
      for (std::size_t p = 0; p < kRelayProxies; ++p) {
        const Duration delta = relay_delta(p);
        for (const UpdateTrace& t : traces) {
          fleet->add_temporal_object(p, t.name(), [&policies, delta] {
            return policies.limd(delta);
          });
        }
      }
    });
    tr.span("sharded.start", [&] { fleet->start(); });
  });
  result.sample_cpu();
  const std::size_t initial = fleet->origin_requests();

  const double thread0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const double process0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  run_phase(result, opt.traced, horizon,
            [&](TimePoint t) { fleet->run_until(t); }, [] { return 0; });
  const double coord_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - thread0;
  const double process_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process0;
  result.sample_cpu();

  std::vector<PollRecord> merged;
  std::vector<PollSeries> series;
  std::vector<const PollLog*> logs;
  for (std::size_t p = 0; p < fleet->size(); ++p) {
    logs.push_back(&fleet->proxy(p).poll_log());
  }
  tr.span("eval", [&] {
    tr.span("metrics.fidelity_eval", [&] {
      for (const PollLog* log : logs) series.push_back(polls_of(*log, traces));
      result.counts["fidelity_mean"] =
          mean_fidelity(result, series, traces, relay_delta, horizon);
    });
    tr.span("metrics.mutual_eval", [&] {
      result.counts["mutual_fidelity_mean"] = mean_mutual_fidelity(
          result, series, traces, adjacent_pairs(traces.size()), kDelta, horizon);
    });
    tr.span("metrics.merge_records", [&] { merged = fleet->merged_poll_records(); });
    evaluate_transactions(result, logs, derive(opt.seed, 6), horizon);
  });

  auto& c = result.counts;
  auto& m = result.metrics;
  const FleetOriginLoad load = fleet->origin_load();
  record_load(result, load);
  record_relays(result, *fleet);
  check_origin_ledger(result, load, logs);
  check_relay_ledger(result, *fleet);
  result.check("relay_apply_ratio_above_0.9", c["fleet.relay_apply_ratio"] > 0.9);
  const std::uint64_t records_digest = digest_of(merged);
  result.digest.add(records_digest);

  c["origin.requests"] = static_cast<double>(fleet->origin_requests());
  c["ops"] = static_cast<double>(fleet->origin_requests() + fleet->relays_delivered());
  c["run_origin_polls"] = static_cast<double>(fleet->origin_requests() - initial);
  c["trace.updates"] = static_cast<double>(total_updates(traces));
  c["proxy.polls"] = static_cast<double>(load.origin_polls);
  c["proxy.polls_failed"] = static_cast<double>(load.failed);
  c["proxy.poll_log_records"] = static_cast<double>(merged.size());
  c["sharded.shards"] = static_cast<double>(fleet->shard_count());
  c["sharded.threads"] = static_cast<double>(fleet->thread_count());
  m["origin.attach_s"] = attach_s;
  m["sharded.coord_cpu_s"] = coord_cpu;
  m["sharded.worker_cpu_s"] = process_cpu - coord_cpu;
  m["sharded.process_cpu_s"] = process_cpu;
  record_coordination(result, policies, HotStats{}, 0);

  if (opt.traced) {
    const ReferenceOutputs ref = run_relay_reference(traces, horizon, result);
    std::uint64_t sharded_records = records_digest;
    if (opt.corrupt == "digest") sharded_records ^= 1;
    result.check("reference.origin_load",
                 ref.load.origin_messages == load.origin_messages &&
                     ref.load.origin_polls == load.origin_polls &&
                     ref.load.relay_refreshes == load.relay_refreshes &&
                     ref.load.demand_fills == load.demand_fills &&
                     ref.load.failed == load.failed);
    result.check("reference.merged_records", ref.records_digest == sharded_records);
    result.check("reference.relay_ledger",
                 ref.relays == std::vector<std::size_t>{
                                   fleet->relays_sent(), fleet->relays_delivered(),
                                   fleet->relays_applied(), fleet->relays_in_flight(),
                                   fleet->relays_lost()});
  }
}

// ---- workload: client_faulty -----------------------------------------------
//
// Single-simulator ProxyFleet: 4 proxies × 256 objects, cooperative push
// (0.5 s relay latency), Zipf 0.9 newsroom-diurnal client streams at
// 2.5 req/s per proxy with session locality 0.3, demand fill on, engine
// loss 0.1 (600 s retry), relay loss 0.1 with jitter and capped-backoff
// retry, and two proxy crash windows.

constexpr std::size_t kClientProxies = 4;
constexpr std::size_t kClientObjects = 256;

void client_faulty(const Options& opt, Result& result) {
  const Duration horizon = opt.hours * kHour;
  std::vector<UpdateTrace> traces;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<ProxyFleet> fleet;
  PolicyMaker policies(opt.traced);
  Tracer& tr = result.tracer;

  tr.span("setup", [&] {
    tr.span("trace.generate", [&] {
      traces = make_traces(derive(opt.seed, 1), kClientObjects, "/obj/", horizon);
    });
    tr.span("origin.attach", [&] {
      sim = std::make_unique<Simulator>();
      origin = std::make_unique<OriginServer>(*sim, origin_config());
      for (const UpdateTrace& t : traces) origin->attach_update_trace(t.name(), t);
    });
    tr.span("fleet.register", [&] {
      FleetConfig config;
      config.proxies = kClientProxies;
      config.cooperative_push = true;
      config.relay_latency = 0.5;
      config.engine.demand_fill = true;
      config.engine.loss_probability = 0.1;
      config.engine.retry_delay = 600.0;
      config.engine.seed = derive(opt.seed, 3);
      config.faults.relay_loss = 0.1;
      config.faults.relay_jitter_max = 0.25;
      config.faults.retry_backoff_base = 1.0;
      config.faults.retry_backoff_cap = 8.0;
      config.faults.relay_retry_limit = 6;
      config.faults.seed = derive(opt.seed, 4);
      config.faults.crashes.push_back({1, {{0.375 * horizon, 0.4375 * horizon}}});
      config.faults.crashes.push_back({3, {{0.625 * horizon, 0.6875 * horizon}}});
      ClientTrafficConfig clients;
      clients.request_rate = 2.5;
      clients.zipf_exponent = 0.9;
      clients.session_locality = 0.3;
      clients.profile = DiurnalProfile::newsroom();
      clients.seed = derive(opt.seed, 5);
      config.client_traffic = clients;
      fleet = std::make_unique<ProxyFleet>(*sim, *origin, config);
      for (const UpdateTrace& t : traces) {
        fleet->add_temporal_object_everywhere(t.name(),
                                              [&] { return policies.limd(kDelta); });
      }
    });
    tr.span("proxy.start", [&] { fleet->start(); });
  });
  result.sample_cpu();
  const std::size_t initial = origin->requests_served();

  run_phase(result, opt.traced, horizon,
            [&](TimePoint t) { sim->run_until(t); },
            [&] { return sim->pending(); });
  result.sample_cpu();

  std::vector<const PollLog*> logs;
  for (std::size_t p = 0; p < fleet->size(); ++p) {
    logs.push_back(&fleet->proxy(p).poll_log());
  }
  ClientMetrics clients;
  std::vector<PollSeries> series;
  tr.span("eval", [&] {
    tr.span("metrics.fidelity_eval", [&] {
      for (const PollLog* log : logs) series.push_back(polls_of(*log, traces));
      result.counts["fidelity_mean"] = mean_fidelity(
          result, series, traces, [](std::size_t) { return kDelta; }, horizon);
    });
    tr.span("metrics.mutual_eval", [&] {
      result.counts["mutual_fidelity_mean"] = mean_mutual_fidelity(
          result, series, traces, adjacent_pairs(traces.size()), kDelta, horizon);
    });
    tr.span("metrics.merge_records", [&] {
      std::vector<ProxyPollRecords> tagged;
      for (std::size_t p = 0; p < logs.size(); ++p) {
        tagged.push_back({p, &logs[p]->records()});
      }
      result.digest.add(digest_of(merge_poll_records(std::move(tagged))));
      clients = fleet->merged_client_metrics();
    });
    evaluate_transactions(result, logs, derive(opt.seed, 6), horizon);
  });

  auto& c = result.counts;
  const FleetOriginLoad load = fleet->origin_load();
  record_load(result, load);
  record_relays(result, *fleet);
  check_origin_ledger(result, load, logs);
  check_relay_ledger(result, *fleet);
  result.check("ledger.client_fills", clients.demand_fills == load.demand_fills);
  result.check("client.requests_split", clients.requests == clients.hits + clients.misses);

  c["sim.events"] = static_cast<double>(sim->executed());
  c["origin.requests"] = static_cast<double>(origin->requests_served());
  c["ops"] = static_cast<double>(origin->requests_served() + fleet->relays_delivered() +
                                 clients.requests);
  c["run_origin_polls"] = static_cast<double>(origin->requests_served() - initial);
  c["trace.updates"] = static_cast<double>(total_updates(traces));
  c["proxy.polls"] = static_cast<double>(load.origin_polls);
  c["proxy.polls_failed"] = static_cast<double>(load.failed);
  std::size_t triggered = 0, records = 0;
  for (std::size_t p = 0; p < fleet->size(); ++p) {
    triggered += fleet->proxy(p).triggered_polls();
    records += logs[p]->size();
  }
  c["proxy.triggered_polls"] = static_cast<double>(triggered);
  c["proxy.poll_log_records"] = static_cast<double>(records);
  c["client.requests"] = static_cast<double>(clients.requests);
  c["client.hits"] = static_cast<double>(clients.hits);
  c["client.fresh"] = static_cast<double>(clients.fresh);
  c["client.stale"] = static_cast<double>(clients.stale);
  c["client.misses"] = static_cast<double>(clients.misses);
  c["client.demand_fills"] = static_cast<double>(clients.demand_fills);
  c["client.dark_reads"] = static_cast<double>(clients.dark_reads);
  c["client.fresh_rate"] = clients.requests == 0
                               ? 0.0
                               : static_cast<double>(clients.fresh) /
                                     static_cast<double>(clients.requests);
  for (const std::uint64_t v :
       {clients.requests, clients.hits, clients.misses, clients.fresh, clients.stale,
        clients.demand_fills, clients.dark_reads, clients.dark_stale,
        clients.dark_misses}) {
    result.digest.add(v);
  }
  result.digest.add(clients.age.mean());
  result.digest.add(clients.staleness.mean());
  record_coordination(result, policies, HotStats{}, 0);
}

// ---- output ----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void write_map(std::ostream& os, const std::map<std::string, double>& values) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  os << "}";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload proxy_mutual|fleet_relay|client_faulty --seed N"
               " [--traced] [--hours H] [--corrupt ledger|digest]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--hours" && has_value) {
      opt.hours = std::stod(argv[++i]);
    } else if (arg == "--corrupt" && has_value) {
      opt.corrupt = argv[++i];
    } else if (arg == "--traced") {
      opt.traced = true;
    } else {
      return usage(argv[0]);
    }
  }
  const std::map<std::string, void (*)(const Options&, Result&)> workloads = {
      {"proxy_mutual", proxy_mutual},
      {"fleet_relay", fleet_relay},
      {"client_faulty", client_faulty}};
  const auto workload = workloads.find(opt.workload);
  if (workload == workloads.end() || !(opt.hours > 0.0) ||
      (!opt.corrupt.empty() && opt.corrupt != "ledger" && opt.corrupt != "digest")) {
    return usage(argv[0]);
  }

  Result result;
  result.corrupt = opt.corrupt;
  const ProcStat stat0 = read_proc_stat();
  const double load = read_loadavg();
  result.sample_cpu();
  workload->second(opt, result);
  const ProcStat stat1 = read_proc_stat();
  if (opt.corrupt == "digest") result.digest.salt(static_cast<std::uint64_t>(getpid()));

  // ---- timings ----
  const Tracer& tr = result.tracer;
  auto& m = result.metrics;
  const double run_s = tr.total("sim.run");
  m["setup_s"] = tr.total("setup");
  m["run_s"] = run_s;
  m["eval_s"] = tr.total("eval");
  m["wall_s"] = m["setup_s"] + run_s + m["eval_s"];
  const auto& c = result.counts;
  const auto count = [&c](const std::string& k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  m["sim_ops_per_s"] = per(count("ops"), run_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  m["trace.generate_s"] = tr.total("trace.generate");
  if (!m.count("origin.attach_s")) m["origin.attach_s"] = tr.total("origin.attach");
  m["proxy.register_s"] = tr.total("proxy.register");
  m["proxy.start_s"] = tr.total("proxy.start");
  m["fleet.register_s"] = tr.total("fleet.register");
  // The sharded start() span contains the per-shard origin attach.
  m["sharded.start_s"] =
      std::max(0.0, tr.total("sharded.start") -
                        (opt.workload == "fleet_relay" ? m["origin.attach_s"] : 0.0));
  m["proxy.ns_per_poll"] = 1e9 * per(run_s, count("run_origin_polls"));
  m["fleet.ns_per_relay"] = 1e9 * per(run_s, count("fleet.relays_delivered"));
  m["client.ns_per_request"] = 1e9 * per(run_s, count("client.requests"));
  m["client.tx_eval_s"] = tr.total("client.tx_eval");
  m["metrics.fidelity_eval_s"] = tr.total("metrics.fidelity_eval");
  m["metrics.mutual_eval_s"] = tr.total("metrics.mutual_eval");
  m["metrics.merge_records_s"] = tr.total("metrics.merge_records");
  m["consistency.next_ttr_share"] = per(m["consistency.next_ttr_s"], run_s);
  if (opt.workload != "fleet_relay") {
    m["sim.ns_per_event"] = 1e9 * per(run_s, count("sim.events"));
    std::vector<double> hours = tr.durations("sim.hour");
    std::sort(hours.begin(), hours.end());
    m["sim.hour_s_p50"] = hours.empty() ? 0.0 : hours[hours.size() / 2];
    m["sim.hour_s_max"] = hours.empty() ? 0.0 : hours.back();
  } else {
    const double ref_run = tr.total("reference.run");
    m["sim.ns_per_event"] = 1e9 * per(ref_run, count("sim.events"));
    m["sharded.reference_run_s"] = ref_run;
    m["sharded.speedup"] = per(ref_run, run_s);
    m["sharded.cpu_overhead"] =
        per(m["sharded.process_cpu_s"], m["sharded.reference_cpu_s"]);
    m["sharded.utilization"] =
        per(m["sharded.worker_cpu_s"], run_s * count("sharded.threads"));
  }
  const double jiffies = static_cast<double>(stat1.total - stat0.total);
  m["host.steal_frac"] = per(static_cast<double>(stat1.steal - stat0.steal), jiffies);
  m["host.loadavg"] = load;

  bool ok = true;
  std::ostringstream checks;
  checks << "{";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    const auto& [name, passed] = result.checks[i];
    ok = ok && passed;
    checks << (i ? ", " : "") << json_string(name) << ": "
           << (passed ? "true" : "false");
  }
  checks << "}";

  std::ostringstream spans;
  spans << "[";
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Tracer::Span& s = tr.spans()[i];
    spans << (i ? ", " : "") << "[" << json_string(s.name) << ", " << s.parent
          << ", " << json_number(s.start) << ", " << json_number(s.end) << "]";
  }
  spans << "]";

  std::ostringstream cpus;
  cpus << "[";
  bool first = true;
  for (const int cpu : result.cpus) {
    cpus << (first ? "" : ", ") << cpu;
    first = false;
  }
  cpus << "]";

  std::ostream& os = std::cout;
  os << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"traced\": " << (opt.traced ? "true" : "false")
     << ", \"hours\": " << json_number(opt.hours)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpus\": " << cpus.str()
     << ", \"digest\": " << json_string(result.digest.hex())
     << ", \"ok\": " << (ok ? "true" : "false") << ", \"checks\": " << checks.str()
     << ", \"metrics\": ";
  write_map(os, result.metrics);
  os << ", \"counts\": ";
  write_map(os, result.counts);
  os << ", \"spans\": " << spans.str() << "}\n";
  os.flush();
  return ok ? 0 : 1;
}
