// The Simulator's pending-event queue: a binary heap of (time, seq, id)
// entries whose cancelled events stay behind as tombstones until they
// reach the top.
//
// A scheduler change is exactly the kind of change that silently reorders
// same-instant events, so the queue is held to its ordering contract as an
// observer sees it: a seeded mix of schedule / cancel / reschedule /
// current_event operations must fire every live event exactly once, at its
// scheduled time, in (time, FIFO) order.  Targeted pins cover what the
// random mix cannot see directly: tombstones at the head of the queue,
// cancellation after a peek, far-apart fire times, long same-instant
// bursts and reserved sequence numbers.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- queue pins --------------------------------------------------------------

TEST(EventQueue, CancelledEventsAreSkippedAndNotCounted) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(static_cast<double>(i),
                                  [&fired, i] { fired.push_back(i); }));
  }
  // Kill the current head and a band in the middle.
  EXPECT_TRUE(sim.cancel(ids[0]));
  for (int i = 40; i < 60; ++i) EXPECT_TRUE(sim.cancel(ids[i]));
  EXPECT_EQ(sim.pending(), 79u);
  EXPECT_EQ(sim.run(), 79u);
  ASSERT_EQ(fired.size(), 79u);
  EXPECT_EQ(fired.front(), 1);  // the dead head was skipped
  for (const int i : fired) EXPECT_TRUE(i < 40 || i >= 60) << i;
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.next_event_info().valid);
}

TEST(EventQueue, CancelAfterPeekExposesTheNextEvent) {
  Simulator sim;
  const EventId first = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  Simulator::NextEvent next = sim.next_event_info();
  ASSERT_TRUE(next.valid);
  EXPECT_EQ(next.time, 1.0);
  // Cancel after the peek located the minimum.
  EXPECT_TRUE(sim.cancel(first));
  next = sim.next_event_info();
  ASSERT_TRUE(next.valid);
  EXPECT_EQ(next.time, 2.0);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_FALSE(sim.next_event_info().valid);
  EXPECT_FALSE(sim.step());
}

TEST(EventQueue, SparseEventsFarApartStillOrdered) {
  Simulator sim;
  std::vector<double> fired;
  const auto record = [&fired, &sim] { fired.push_back(sim.now()); };
  sim.schedule_at(10.0, record);
  sim.schedule_at(1.0e6, record);
  sim.schedule_at(5.0e8, record);
  EXPECT_EQ(sim.run(1), 1u);
  // A push well before the far event must still fire first.
  sim.schedule_at(1.5e6, record);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{10.0, 1.0e6, 1.5e6, 5.0e8}));
}

TEST(EventQueue, SameInstantBurstStaysFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(42.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

// ---- seeded op-mix contract -------------------------------------------------

// One seeded script of schedule / cancel / reschedule / burst operations
// interleaved with bounded runs, and what an observer of it can check.
// Every scheduled event gets the next integer tag, so tag order is
// schedule (FIFO sequence) order.
struct ScriptRun {
  std::vector<std::pair<TimePoint, int>> fires;  // (now(), tag) per firing
  std::map<int, TimePoint> scheduled_for;        // tag -> requested time
  std::set<int> cancelled;                       // tags whose cancel() won
};

ScriptRun run_script(std::uint64_t seed) {
  Simulator sim;
  ScriptRun out;
  Rng rng(seed);
  std::vector<std::pair<EventId, int>> pending;
  int next_tag = 0;

  const auto schedule = [&](TimePoint t) {
    const int tag = next_tag++;
    out.scheduled_for[tag] = t;
    const EventId id = sim.schedule_at(t, [&sim, &out, tag] {
      // current_event() must identify the running callback (the engine's
      // retry path depends on it).
      BROADWAY_CHECK(sim.current_event() != kInvalidEventId);
      out.fires.emplace_back(sim.now(), tag);
    });
    pending.emplace_back(id, tag);
  };
  const auto cancel_one = [&] {
    const std::size_t victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
    // Only still-pending events are in `pending`, so every cancel wins.
    EXPECT_TRUE(sim.cancel(pending[victim].first));
    out.cancelled.insert(pending[victim].second);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
  };

  for (int phase = 0; phase < 30; ++phase) {
    const int ops = static_cast<int>(rng.uniform_int(5, 40));
    for (int op = 0; op < ops; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.55 || pending.empty()) {
        // Quantised delays manufacture plenty of same-instant ties,
        // including zero-delay events at the current instant.
        schedule(sim.now() + rng.uniform_int(0, 40) * 0.25);
      } else if (dice < 0.75) {
        cancel_one();
      } else if (dice < 0.9) {
        // Reschedule: cancel + schedule at a fresh instant, like
        // PeriodicTask::reschedule does.
        cancel_one();
        schedule(sim.now() + rng.uniform_int(0, 40) * 0.25);
      } else {
        // Burst: several events at one shared instant.
        const double t = sim.now() + rng.uniform_int(0, 20) * 0.5;
        const int burst = static_cast<int>(rng.uniform_int(2, 6));
        for (int i = 0; i < burst; ++i) schedule(t);
      }
    }
    // Advance: sometimes a bounded number of steps, sometimes to a
    // horizon (which exercises peek-without-pop at the boundary).
    if (rng.bernoulli(0.5)) {
      sim.run(static_cast<std::size_t>(rng.uniform_int(1, 30)));
    } else {
      sim.run_until(sim.now() + rng.uniform_int(0, 12) * 1.0);
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&sim](const std::pair<EventId, int>& p) {
                                   return !sim.is_pending(p.first);
                                 }),
                  pending.end());
  }
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), out.fires.size());
  return out;
}

TEST(EventQueue, RandomOpMixHonoursTheOrderingContract) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScriptRun run = run_script(seed);
    ASSERT_FALSE(run.fires.empty());
    ASSERT_FALSE(run.cancelled.empty());
    std::map<int, int> fire_count;
    for (std::size_t i = 0; i < run.fires.size(); ++i) {
      const auto& [time, tag] = run.fires[i];
      ++fire_count[tag];
      EXPECT_EQ(time, run.scheduled_for.at(tag)) << "tag " << tag;
      EXPECT_EQ(run.cancelled.count(tag), 0u) << "cancelled tag " << tag;
      if (i == 0) continue;
      const auto& [prev_time, prev_tag] = run.fires[i - 1];
      EXPECT_LE(prev_time, time) << "time went backwards at fire " << i;
      if (prev_time == time) {
        EXPECT_LT(prev_tag, tag) << "same-instant fires out of FIFO order";
      }
    }
    for (const auto& [tag, when] : run.scheduled_for) {
      const int expected = run.cancelled.count(tag) != 0 ? 0 : 1;
      EXPECT_EQ(fire_count[tag], expected) << "tag " << tag << " at " << when;
    }
  }
}

TEST(ReservedSequences, TieBreakAsIfScheduledAtReservationTime) {
  Simulator sim;
  std::vector<int> order;
  // Reserve three numbers *before* the competing event is scheduled...
  const std::uint64_t base = sim.reserve_sequence(3);
  sim.schedule_at(5.0, [&] { order.push_back(99); });
  // ...then spend them afterwards, even out of reservation order.
  sim.schedule_at_reserved(5.0, base + 2, [&] { order.push_back(2); });
  sim.schedule_at_reserved(5.0, base + 0, [&] { order.push_back(0); });
  sim.schedule_at_reserved(5.0, base + 1, [&] { order.push_back(1); });
  sim.run();
  // All three reserved events outrank the later-sequenced competitor.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 99}));
}

TEST(ReservedSequences, UnreservedSequenceIsRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at_reserved(1.0, 17, [] {}), CheckFailure);
}

}  // namespace
}  // namespace broadway
