// Multi-object read transactions across proxies: counting the mutual-
// consistency violations clients can actually see.
//
// A client assembling a page from k objects cached on different proxies
// (the paper's §1 example: a news story and its images; PAPERS.md's
// cache-serializability framing) observes a *mutual* inconsistency when
// the served copies reflect server states further apart than the δ-group
// tolerance — even if each copy is individually fresh enough.  This
// module samples such transactions and measures the snapshot spread of
// the copies each one would have been served.
//
// Evaluation is offline, from the fleet's poll logs: a proxy serves, at
// time t, the copy installed by its latest record whose complete_time
// (the instant the copy became visible at the proxy) is <= t, and that
// copy reflects server state record.snapshot_time — for a relay-delivered
// record, the *sender's* poll instant, never the delivery time.  Offline
// evaluation keeps the sharded fleet's shard isolation intact (a live
// cross-shard read would couple timelines) and is deterministic given the
// logs, which are themselves pinned byte-identical across fleet
// implementations — so violation counts are too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "proxy/poll_log.h"
#include "util/stats.h"
#include "util/time.h"

namespace broadway {

/// Transaction sampling parameters.
struct ReadTransactionConfig {
  /// Fleet-wide transaction rate (transactions/s); 0 disables sampling.
  double rate = 0.0;
  /// Objects read per transaction: k distinct (proxy, object) pairs,
  /// sampled uniformly over the pairs the fleet actually served.
  std::size_t objects = 2;
  /// δ bound: a completed transaction violates mutual consistency when
  /// the served snapshots spread over more than this.
  Duration delta = 600.0;
  std::uint64_t seed = 1;
};

/// Transaction-level results.
struct TransactionStats {
  std::size_t transactions = 0;  ///< sampled
  std::size_t complete = 0;      ///< every read was served from cache
  std::size_t incomplete = 0;    ///< >= 1 read hit a not-yet-fetched copy
  std::size_t violations = 0;    ///< complete, with snapshot spread > delta
  /// Snapshot spread (max - min served snapshot) of complete transactions.
  OnlineStats spread;

  double violation_rate() const {
    return complete == 0 ? 0.0 : static_cast<double>(violations) /
                                     static_cast<double>(complete);
  }
};

/// Sample Poisson transaction instants over [0, horizon) and evaluate each
/// against the copies the proxies would have served.  `logs` holds one
/// poll log per proxy in ascending global proxy id order; determinism of
/// the result follows from determinism of the logs and the seed.
TransactionStats evaluate_read_transactions(
    const std::vector<const PollLog*>& logs,
    const ReadTransactionConfig& config, Duration horizon);

}  // namespace broadway
