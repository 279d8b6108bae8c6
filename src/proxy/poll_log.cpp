#include "proxy/poll_log.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

namespace {
const std::vector<std::size_t> kNoRecords;
// Compaction runs when at least this many records are evictable AND they
// are at least half the log — amortised O(1) per append.
constexpr std::size_t kMinCompactSlack = 64;
}  // namespace

PollLog::UriIndex& PollLog::index_for(ObjectId object) {
  if (by_id_.size() <= object) by_id_.resize(object + 1);
  return by_id_[object];
}

void PollLog::count(UriIndex& index, const PollRecord& record) {
  ++index.live;
  if (window_ > 0 && index.live > window_) ++evictable_;
  if (record.failed) {
    ++failed_total_;
    return;
  }
  index.successful.push_back(records_.size());
  if (record.cause == PollCause::kRelay) {
    // A relay refreshes the copy without an origin message: it appears
    // in the successful-record series (the evaluation sees the refresh)
    // but not in the origin-poll counters.
    ++index.relays;
    ++relay_total_;
  } else if (record.cause == PollCause::kInitial) {
    ++initial_total_;
  } else {
    ++index.performed;
    ++performed_total_;
  }
  if (record.cause == PollCause::kTriggered) {
    ++index.triggered;
    ++triggered_total_;
  } else if (record.cause == PollCause::kClientMiss) {
    ++index.demand;
    ++demand_total_;
  }
}

void PollLog::append(ObjectId object, PollCause cause, bool modified,
                     bool failed, TimePoint snapshot, TimePoint complete) {
  const PollRecord record{snapshot, complete, object, cause, modified,
                          failed};
  count(index_for(object), record);
  records_.push_back(record);
  maybe_compact();
}

const std::vector<std::size_t>& PollLog::successful_records(
    ObjectId object) const {
  return object < by_id_.size() ? by_id_[object].successful : kNoRecords;
}

std::vector<TimePoint> PollLog::times_of(ObjectId object,
                                         TimePoint PollRecord::*field) const {
  const std::vector<std::size_t>& indices = successful_records(object);
  std::vector<TimePoint> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(records_[i].*field);
  return out;
}

void PollLog::set_retention_window(std::size_t window) {
  window_ = window;
  evictable_ = 0;
  if (window_ == 0) return;
  for (const UriIndex& index : by_id_) {
    if (index.live > window_) evictable_ += index.live - window_;
  }
  maybe_compact();
}

void PollLog::maybe_compact() {
  if (window_ == 0 || evictable_ < kMinCompactSlack) return;
  if (evictable_ * 2 < records_.size()) return;
  compact();
}

void PollLog::compact() {
  if (window_ == 0 || evictable_ == 0) return;
  // Per-object: drop the oldest (live - window) records.  One forward
  // pass keeps relative order, so the rebuilt successful indices stay
  // ascending in both record order and time.
  std::vector<std::size_t> drop(by_id_.size(), 0);
  for (std::size_t id = 0; id < by_id_.size(); ++id) {
    if (by_id_[id].live > window_) drop[id] = by_id_[id].live - window_;
  }
  std::vector<PollRecord> kept;
  kept.reserve(records_.size() - evictable_);
  for (PollRecord& record : records_) {
    BROADWAY_CHECK(record.object < drop.size());
    if (drop[record.object] > 0) {
      --drop[record.object];
      continue;
    }
    kept.push_back(std::move(record));
  }
  records_ = std::move(kept);
  // Rebuild the positional state (successful indices, live counts); the
  // running counters are *totals* and must survive eviction untouched.
  for (UriIndex& index : by_id_) {
    index.successful.clear();
    index.live = 0;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    UriIndex& index = by_id_[records_[i].object];
    ++index.live;
    if (!records_[i].failed) index.successful.push_back(i);
  }
  evictable_ = 0;
}

}  // namespace broadway
