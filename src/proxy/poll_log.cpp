#include "proxy/poll_log.h"

namespace broadway {

namespace {
const std::vector<std::size_t> kNoRecords;
}  // namespace

PollLog::UriIndex& PollLog::index_for(ObjectId object) {
  if (by_id_.size() <= object) by_id_.resize(object + 1);
  return by_id_[object];
}

void PollLog::count(UriIndex& index, const PollRecord& record) {
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

}  // namespace broadway
