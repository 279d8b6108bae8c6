// Coordinator decision logic against scripted engine hooks (no simulator).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "consistency/coordinator.h"
#include "consistency/heuristic.h"
#include "consistency/triggered.h"
#include "util/check.h"
#include "util/uri_table.h"

namespace broadway {
namespace {

// Scripted stand-in for the polling engine: hooks are ObjectId-keyed like
// the real ones (ids interned into a local table), while the test bodies
// keep scripting state by uri string and translate with id().
struct FakeEngine {
  UriTable table;
  std::map<std::string, TimePoint> next_poll;
  std::map<std::string, TimePoint> last_poll;
  std::vector<std::string> triggered;

  ObjectId id(const std::string& uri) { return table.intern(uri); }

  CoordinatorHooks hooks() {
    CoordinatorHooks out;
    out.resolve = [this](const std::string& uri) {
      return table.intern(uri);
    };
    out.next_poll_time = [this](ObjectId id) {
      auto it = next_poll.find(table.uri(id));
      return it == next_poll.end() ? kTimeInfinity : it->second;
    };
    out.last_poll_time = [this](ObjectId id) {
      auto it = last_poll.find(table.uri(id));
      return it == last_poll.end() ? 0.0 : it->second;
    };
    out.trigger_poll = [this](ObjectId id) {
      triggered.push_back(table.uri(id));
    };
    return out;
  }
};

TemporalPollObservation modified_at(TimePoint prev, TimePoint now,
                                    TimePoint update) {
  TemporalPollObservation obs;
  obs.previous_poll_time = prev;
  obs.poll_time = now;
  obs.modified = true;
  obs.last_modified = update;
  obs.history = {update};
  return obs;
}

TemporalPollObservation unmodified(TimePoint prev, TimePoint now) {
  TemporalPollObservation obs;
  obs.previous_poll_time = prev;
  obs.poll_time = now;
  obs.modified = false;
  return obs;
}

TEST(NullCoordinator, NeverTriggers) {
  FakeEngine engine;
  NullCoordinator coordinator;
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), modified_at(0.0, 100.0, 50.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(TriggeredCoordinator, TriggersRelatedOnUpdate) {
  FakeEngine engine;
  engine.last_poll["b"] = 10.0;    // long ago
  engine.next_poll["b"] = 5000.0;  // far away
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_EQ(engine.triggered, (std::vector<std::string>{"b"}));
  EXPECT_EQ(coordinator.triggers_requested(), 1u);
}

TEST(TriggeredCoordinator, NoTriggerWithoutUpdate) {
  FakeEngine engine;
  engine.last_poll["b"] = 10.0;
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), unmodified(900.0, 1000.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(TriggeredCoordinator, SkipsRecentlyPolledMember) {
  // "no poll is required if the next/previous poll occurs within δ".
  FakeEngine engine;
  engine.last_poll["b"] = 980.0;  // 20 s ago, δ = 60
  engine.next_poll["b"] = 5000.0;
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(TriggeredCoordinator, SkipsImminentlyScheduledMember) {
  FakeEngine engine;
  engine.last_poll["b"] = 10.0;
  engine.next_poll["b"] = 1030.0;  // 30 s away, δ = 60
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(TriggeredCoordinator, DeltaZeroSelfStabilises) {
  // A member polled at this very instant must not be re-triggered even
  // with δ = 0 (cascade termination).
  FakeEngine engine;
  engine.last_poll["b"] = 1000.0;
  TriggeredPollCoordinator coordinator({"a", "b"}, 0.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(TriggeredCoordinator, HandlesLargerGroups) {
  FakeEngine engine;
  for (const char* uri : {"b", "c", "d"}) {
    engine.last_poll[uri] = 10.0;
    engine.next_poll[uri] = 5000.0;
  }
  engine.last_poll["c"] = 990.0;  // within δ: skipped
  TriggeredPollCoordinator coordinator({"a", "b", "c", "d"}, 60.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("a"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_EQ(engine.triggered, (std::vector<std::string>{"b", "d"}));
}

TEST(TriggeredCoordinator, Validation) {
  EXPECT_THROW(TriggeredPollCoordinator({"only"}, 60.0), CheckFailure);
  EXPECT_THROW(TriggeredPollCoordinator({"a", "b"}, -1.0), CheckFailure);
}

RateHeuristicCoordinator::Config heuristic_config() {
  RateHeuristicCoordinator::Config config;
  config.delta_mutual = 60.0;
  config.similarity = 0.8;
  config.rate_smoothing = 1.0;  // exact gaps, predictable tests
  return config;
}

// Teach the coordinator that `uri` updates every `gap` seconds, ending at
// time `until`.
void teach_rate(RateHeuristicCoordinator& coordinator, FakeEngine& engine,
                const std::string& uri, Duration gap, TimePoint until) {
  // Keep everyone's last_poll recent so teaching polls never trigger.
  TimePoint t = gap;
  TimePoint update = gap / 2.0;
  while (t <= until) {
    for (auto& [name, last] : engine.last_poll) last = t;
    coordinator.on_poll(engine.id(uri), modified_at(t - gap, t, update));
    update += gap;
    t += gap;
  }
}

TEST(HeuristicCoordinator, TriggersFasterMemberOnly) {
  FakeEngine engine;
  engine.last_poll["slow"] = 0.0;
  engine.last_poll["fast"] = 0.0;
  engine.next_poll["slow"] = 1e9;
  engine.next_poll["fast"] = 1e9;
  RateHeuristicCoordinator coordinator({"slow", "fast"},
                                       heuristic_config());
  coordinator.bind(engine.hooks());
  teach_rate(coordinator, engine, "fast", 50.0, 2000.0);
  teach_rate(coordinator, engine, "slow", 400.0, 2000.0);
  EXPECT_GT(coordinator.estimated_rate("fast"),
            coordinator.estimated_rate("slow"));
  engine.triggered.clear();

  // The slow object updates -> the faster one is triggered (Fig. 6: "only
  // the slower object triggers extra polls of the faster object").
  engine.last_poll["slow"] = 2400.0;
  engine.last_poll["fast"] = 2000.0;
  coordinator.on_poll(engine.id("slow"), modified_at(2000.0, 2400.0, 2200.0));
  EXPECT_EQ(engine.triggered, (std::vector<std::string>{"fast"}));

  // The fast object updates -> the slower one is NOT triggered.
  engine.triggered.clear();
  engine.last_poll["fast"] = 2450.0;
  coordinator.on_poll(engine.id("fast"), modified_at(2400.0, 2450.0, 2425.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(HeuristicCoordinator, UnknownRateMembersNotTriggered) {
  FakeEngine engine;
  engine.last_poll["a"] = 0.0;
  engine.last_poll["b"] = 0.0;
  RateHeuristicCoordinator coordinator({"a", "b"}, heuristic_config());
  coordinator.bind(engine.hooks());
  // First observed update of "a"; "b" has no rate estimate yet.
  coordinator.on_poll(engine.id("a"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(HeuristicCoordinator, StillRespectsDeltaWindow) {
  FakeEngine engine;
  engine.last_poll["a"] = 0.0;
  engine.last_poll["b"] = 0.0;
  engine.next_poll["b"] = 1e9;
  RateHeuristicCoordinator coordinator({"a", "b"}, heuristic_config());
  coordinator.bind(engine.hooks());
  teach_rate(coordinator, engine, "b", 50.0, 2000.0);
  teach_rate(coordinator, engine, "a", 50.0, 2000.0);
  engine.triggered.clear();
  // b polled 10 s ago (δ = 60): within the window, no trigger.
  engine.last_poll["b"] = 2390.0;
  coordinator.on_poll(engine.id("a"), modified_at(2000.0, 2400.0, 2200.0));
  EXPECT_TRUE(engine.triggered.empty());
}

TEST(HeuristicCoordinator, ResetClearsRates) {
  FakeEngine engine;
  engine.last_poll["a"] = 0.0;
  engine.last_poll["b"] = 0.0;
  RateHeuristicCoordinator coordinator({"a", "b"}, heuristic_config());
  coordinator.bind(engine.hooks());
  teach_rate(coordinator, engine, "a", 50.0, 1000.0);
  EXPECT_GT(coordinator.estimated_rate("a"), 0.0);
  coordinator.reset();
  EXPECT_DOUBLE_EQ(coordinator.estimated_rate("a"), 0.0);
}

TEST(HeuristicCoordinator, Validation) {
  EXPECT_THROW(RateHeuristicCoordinator({"x"}, heuristic_config()),
               CheckFailure);
}

TEST(Coordinator, UnboundUseFailsLoudly) {
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  EXPECT_THROW(coordinator.on_poll(ObjectId{0}, modified_at(0.0, 10.0, 5.0)),
               CheckFailure);
}

TEST(Coordinator, SubscriptionsExposeInternedMembers) {
  FakeEngine engine;
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  EXPECT_TRUE(coordinator.subscriptions().empty());  // nothing before bind
  coordinator.bind(engine.hooks());
  const std::vector<ObjectId> subscriptions = coordinator.subscriptions();
  ASSERT_EQ(subscriptions.size(), 2u);
  EXPECT_EQ(subscriptions[0], engine.table.find("a"));
  EXPECT_EQ(subscriptions[1], engine.table.find("b"));
  // The null coordinator watches nothing: the engine never calls it.
  NullCoordinator null_coordinator;
  null_coordinator.bind(engine.hooks());
  EXPECT_TRUE(null_coordinator.subscriptions().empty());
}

TEST(TriggeredCoordinator, IgnoresNonMemberPolls) {
  // The engine only routes member polls here, but a direct caller may
  // hand a coordinator polls of unrelated objects; they must not
  // re-synchronise the group.
  FakeEngine engine;
  engine.last_poll["a"] = 10.0;
  engine.last_poll["b"] = 10.0;
  TriggeredPollCoordinator coordinator({"a", "b"}, 60.0);
  coordinator.bind(engine.hooks());
  coordinator.on_poll(engine.id("outsider"), modified_at(900.0, 1000.0, 950.0));
  EXPECT_TRUE(engine.triggered.empty());
  EXPECT_EQ(coordinator.triggers_requested(), 0u);
}

TEST(HeuristicCoordinator, IgnoresNonMemberPolls) {
  FakeEngine engine;
  engine.last_poll["a"] = 0.0;
  engine.last_poll["b"] = 0.0;
  engine.next_poll["a"] = 1e9;
  engine.next_poll["b"] = 1e9;
  RateHeuristicCoordinator coordinator({"a", "b"}, heuristic_config());
  coordinator.bind(engine.hooks());
  teach_rate(coordinator, engine, "a", 50.0, 2000.0);
  teach_rate(coordinator, engine, "b", 50.0, 2000.0);
  engine.triggered.clear();
  // Both members have established (fast) rates, yet an unrelated object's
  // update must not trigger either of them.
  coordinator.on_poll(engine.id("outsider"),
                      modified_at(2000.0, 2400.0, 2200.0));
  EXPECT_TRUE(engine.triggered.empty());
}

}  // namespace
}  // namespace broadway
