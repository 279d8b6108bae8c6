// The origin web server model.
//
// Applies trace-driven updates to its object store on the simulator's
// timeline and answers HTTP requests with the conditional-GET semantics the
// paper's mechanisms rely on (paper §5): an `if-modified-since` request is
// answered 304 when the object is unchanged, otherwise 200 with the new
// body, Last-Modified, the value extension for value-domain objects, and —
// when enabled — the X-Modification-History extension of §5.1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "http/extensions.h"
#include "http/message.h"
#include "origin/store.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/uri_table.h"

namespace broadway {

/// Origin server bound to a simulator.  One instance can host any number
/// of objects, each driven by its own trace.
///
/// The server owns the UriTable every co-located consumer (polling
/// engines, their caches and poll logs, the fleet relay path) shares:
/// interning happens once at registration, and the poll hot path carries
/// dense ObjectId handles end to end.
class OriginServer {
 public:
  /// `history_limit` caps the X-Modification-History entries per response
  /// (0 = unlimited).  `history_enabled` turns the extension off entirely —
  /// the stock-HTTP configuration the paper contrasts against (§3.1).
  /// `render_bodies` = false elides HTML body rendering on 200s — typed
  /// responses carry everything the consistency machinery reads in
  /// ResponseMeta, so simulation sweeps that never inspect payloads (the
  /// benches; default on there) skip the per-poll body allocation.
  struct Config {
    bool history_enabled = true;
    std::size_t history_limit = 16;
    bool render_bodies = true;
  };

  explicit OriginServer(Simulator& sim);
  OriginServer(Simulator& sim, Config config);

  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  /// Create a temporal-domain object (no numeric value) at sim.now().
  VersionedObject& add_object(const std::string& uri);

  /// Create a value-domain object with an initial value at sim.now().
  VersionedObject& add_value_object(const std::string& uri,
                                    double initial_value);

  /// Create the object (if needed) and replay the trace's updates on the
  /// simulator's timeline.  Must be called before the simulation passes
  /// the first update.
  ///
  /// Each attached trace is ONE self-rechaining simulator event (the chain
  /// re-enqueues itself at the next update instant), so the pending set
  /// scales with the number of traces, not updates.  The chain spends
  /// FIFO sequence numbers reserved at attach time, so same-instant
  /// updates interleave with polls exactly as one pre-scheduled event per
  /// update would.
  VersionedObject& attach_update_trace(const std::string& uri,
                                       const UpdateTrace& trace);

  /// Create a value object and replay its ticks (chained as above).
  VersionedObject& attach_value_trace(const std::string& uri,
                                      const ValueTrace& trace);

  /// Handle a request at the current simulation time.
  Response handle(const Request& request);

  /// Allocation-light variant: the response is written into `out` (reset
  /// first), so a polling engine can reuse one scratch Response across
  /// polls.  Requests with an active typed sideband are answered on the
  /// typed path: validators, value and history land in out.meta (history
  /// as a span into this server's per-object storage — valid until the
  /// object's next update) and no header strings are rendered.
  void handle(const Request& request, Response& out);

  /// The shared intern table.  Engines bound to this origin key their
  /// caches and poll logs through it.
  UriTable& uri_table() { return uris_; }
  const UriTable& uri_table() const { return uris_; }

  /// Interned id for a hosted object's uri; kInvalidObjectId if unknown.
  ObjectId object_id(const std::string& uri) const {
    return uris_.find(uri);
  }

  /// Direct (non-HTTP) read access for evaluators and tests.
  const ObjectStore& store() const { return store_; }
  ObjectStore& store() { return store_; }

  /// Hosted object for an interned id; nullptr when the table interned a
  /// uri this origin does not host (e.g. a proxy-only registration).
  /// O(1) — the client layer's ground-truth read.
  const VersionedObject* object_by_id(ObjectId id) const {
    return id < by_id_.size() ? by_id_[id] : nullptr;
  }

  const Config& config() const { return config_; }
  void set_config(Config config) { config_ = config; }

  /// Request accounting (cross-checks the proxy's poll counters).
  std::size_t requests_served() const { return requests_served_; }
  std::size_t responses_200() const { return responses_200_; }
  std::size_t responses_304() const { return responses_304_; }

 private:
  /// Replay state of one attached trace: the chained event applies
  /// update `next` and re-enqueues itself for `next + 1` with the
  /// sequence number reserved for it at attach time.
  struct TraceCursor {
    VersionedObject* target = nullptr;
    std::vector<TimePoint> times;
    std::vector<double> values;  ///< empty for temporal traces
    std::size_t next = 0;
    std::uint64_t seq_base = 0;
  };

  Simulator& sim_;
  Config config_;
  ObjectStore store_;
  UriTable uris_;
  /// Dense ObjectId -> object lookup (nullptr where the table interned a
  /// uri this origin does not host, e.g. a proxy-only registration).
  std::vector<VersionedObject*> by_id_;
  /// Cursors of attached traces (stable addresses: the chained
  /// events capture raw pointers).
  std::vector<std::unique_ptr<TraceCursor>> trace_cursors_;
  std::size_t requests_served_ = 0;
  std::size_t responses_200_ = 0;
  std::size_t responses_304_ = 0;

  /// Lookup for the request: by interned id when present, else by uri.
  const VersionedObject* find_object(const Request& request) const;

  /// Validate the trace, reserve its sequence numbers
  /// and schedule the head of the chain.  `values` is empty for temporal
  /// traces, else parallel to `times`.
  void attach_chained(VersionedObject& object, std::vector<TimePoint> times,
                      std::vector<double> values);

  /// Apply update `cursor.next` and re-enqueue the chain.
  void step_trace(TraceCursor& cursor);

  void respond_full(const VersionedObject& object,
                    std::optional<TimePoint> since, bool typed,
                    Response& out);
};

}  // namespace broadway
