// The proxy's poll log: the append-only record stream the paper's
// evaluation is computed from, with per-object indices and running
// counters.
//
// Every poll of every tracked object — temporal, value, virtual-group
// member or partitioned-group member — is appended here by the engine's
// single poll pipeline.  The harness sweeps query per-object series
// (completion/snapshot instants) and per-object counters (polls performed,
// triggered polls) after every run; indexing at append time turns those
// from O(total-polls) scans of the global log into O(records-for-object)
// and O(1) lookups respectively.
//
// Records, the index and every query are keyed by interned ObjectId: the
// engine appends by id, so the hot path neither hashes nor copies a
// string.  Callers that hold a uri resolve it once through uri_table()
// (PollingEngine's string accessors do exactly that).
//
// The log keeps every record of the run: the evaluation replays each
// object's full series.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "consistency/types.h"
#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// One completed (or failed) poll.  The polled object is its interned
/// id; the log's uri_table() maps it back to the uri.
struct PollRecord {
  /// Server-state instant the response reflects (fire time).
  TimePoint snapshot_time = 0.0;
  /// Instant the refreshed copy became visible at the proxy.
  TimePoint complete_time = 0.0;
  ObjectId object = kInvalidObjectId;
  PollCause cause = PollCause::kScheduled;
  /// True when the server answered 200.
  bool modified = false;
  /// True when the poll was lost (no other fields beyond
  /// object/cause/time are meaningful).
  bool failed = false;
};

/// Append-only, indexed poll log.  Reads behave like a record vector
/// (size/operator[]/iteration), and the indexed queries answer the
/// evaluation's per-object questions without scanning other objects'
/// records.
class PollLog {
 public:
  /// Log resolving ids through `table` (a polling engine shares its
  /// origin's).  `table` must outlive the log.
  explicit PollLog(const UriTable& table) : table_(&table) {}

  PollLog(const PollLog&) = delete;
  PollLog& operator=(const PollLog&) = delete;
  PollLog(PollLog&&) = default;
  PollLog& operator=(PollLog&&) = default;

  /// Append one record of `object`, updating the per-object index and the
  /// counters.  No hashing, no lookup.
  void append(ObjectId object, PollCause cause, bool modified, bool failed,
              TimePoint snapshot, TimePoint complete);

  // ---- whole-log access (vector-compatible) ----

  const std::vector<PollRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const PollRecord& operator[](std::size_t index) const {
    return records_[index];
  }
  std::vector<PollRecord>::const_iterator begin() const {
    return records_.begin();
  }
  std::vector<PollRecord>::const_iterator end() const {
    return records_.end();
  }

  /// The intern table this log resolves uris through.
  const UriTable& uri_table() const { return *table_; }

  // ---- per-object indexed queries ----

  /// Indices (into records()) of the successful polls of `object`,
  /// ascending.  Empty for an object that was never polled (including
  /// kInvalidObjectId).
  const std::vector<std::size_t>& successful_records(ObjectId object) const;

  /// Completion instants of successful polls of `object`, ascending,
  /// including the initial fetch.
  std::vector<TimePoint> completion_times(ObjectId object) const {
    return times_of(object, &PollRecord::complete_time);
  }

  /// Snapshot instants of successful polls of `object` (same indexing as
  /// completion_times).
  std::vector<TimePoint> snapshot_times(ObjectId object) const {
    return times_of(object, &PollRecord::snapshot_time);
  }

  // ---- O(1) counters ----
  // The zero-argument forms total all objects; the ObjectId forms count
  // one object (0 for one never polled).

  /// Successful polls excluding initial fetches — the paper's "number of
  /// polls" metric.  Relay refreshes (PollCause::kRelay) are *not*
  /// counted: they refresh the cached copy without an origin message, so
  /// they are not polls in the paper's sense.
  std::size_t polls_performed() const { return performed_total_; }
  std::size_t polls_performed(ObjectId object) const {
    return count_of(object, &UriIndex::performed);
  }

  /// Successful triggered polls (the mutual-consistency overhead).
  std::size_t triggered_polls() const { return triggered_total_; }
  std::size_t triggered_polls(ObjectId object) const {
    return count_of(object, &UriIndex::triggered);
  }

  /// Refreshes applied from sibling-proxy relays (cooperative push).
  std::size_t relay_refreshes() const { return relay_total_; }
  std::size_t relay_refreshes(ObjectId object) const {
    return count_of(object, &UriIndex::relays);
  }

  /// Successful demand fills (PollCause::kClientMiss): origin fetches
  /// triggered by a client read that missed the cache.  A subset of
  /// polls_performed() — demand fills are real origin polls — split out
  /// so accounting can separate policy-driven polls from demand-driven
  /// ones (`polls_performed == policy polls + demand_fills`).
  std::size_t demand_fills() const { return demand_total_; }
  std::size_t demand_fills(ObjectId object) const {
    return count_of(object, &UriIndex::demand);
  }

  /// Successful initial fetches, all objects.
  std::size_t initial_polls() const { return initial_total_; }

  /// Failed (lost) poll attempts, all objects.
  std::size_t failed_polls() const { return failed_total_; }

 private:
  struct UriIndex {
    std::vector<std::size_t> successful;  ///< record indices, !failed
    std::size_t performed = 0;            ///< successful, non-initial origin
    std::size_t triggered = 0;            ///< successful, kTriggered
    std::size_t relays = 0;               ///< successful, kRelay
    std::size_t demand = 0;               ///< successful, kClientMiss
  };

  /// One per-object counter; 0 for an object that has no records.
  std::size_t count_of(ObjectId object, std::size_t UriIndex::*counter) const {
    return object < by_id_.size() ? by_id_[object].*counter : 0;
  }
  /// One field of the object's successful records, in record order.
  std::vector<TimePoint> times_of(ObjectId object,
                                  TimePoint PollRecord::*field) const;
  UriIndex& index_for(ObjectId object);

  void count(UriIndex& index, const PollRecord& record);

  const UriTable* table_;
  std::vector<PollRecord> records_;
  std::vector<UriIndex> by_id_;
  std::size_t performed_total_ = 0;
  std::size_t triggered_total_ = 0;
  std::size_t relay_total_ = 0;
  std::size_t demand_total_ = 0;
  std::size_t initial_total_ = 0;
  std::size_t failed_total_ = 0;
};

}  // namespace broadway
