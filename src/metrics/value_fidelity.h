// Ground-truth Δv and Mv evaluation (paper Eqs. 3 and 5).
//
// Δv: the cached value of an object must stay within Δ of the server value
// at all times.  Mv: |f(server values) − f(cached values)| must stay within
// δ.  Both are computed exactly from the value traces by sweeping the step
// and poll events; no sampling error.  The Mv evaluator and the Fig. 8
// series share one k-way cursor sweep over the group's trace steps and
// poll completions: linear in the events, no sort and no per-segment
// search.  Every poll vector must have non-decreasing completions; the
// evaluators CHECK it.
#pragma once

#include <span>
#include <vector>

#include "consistency/function.h"
#include "metrics/fidelity.h"
#include "trace/value_trace.h"
#include "util/time.h"

namespace broadway {

/// Result of evaluating one value object's schedule against its trace.
struct ValueFidelityReport {
  std::size_t windows = 0;
  std::size_t violations = 0;
  Duration out_sync_time = 0.0;
  Duration horizon = 0.0;

  double fidelity_violations() const;
  double fidelity_time() const;
};

/// Evaluate Δv fidelity.  `polls` non-empty and sorted by completion.
ValueFidelityReport evaluate_value_fidelity(
    const ValueTrace& trace, const std::vector<PollInstant>& polls,
    double delta, Duration horizon);

/// Result of evaluating a group schedule against Eq. 5.
struct MutualValueReport {
  /// Total successful polls across the group (Eq. 13 denominator).
  std::size_t polls = 0;
  /// Entries into |f(S) − f(P)| >= δ.
  std::size_t violations = 0;
  Duration out_sync_time = 0.0;
  Duration horizon = 0.0;

  double fidelity_violations() const;
  double fidelity_time() const;
};

/// Evaluate Mv fidelity of a group of value objects under `f`.
/// `traces[i]` pairs with `polls[i]`; all poll vectors non-empty and
/// sorted by completion.
MutualValueReport evaluate_mutual_value(
    std::span<const ValueTrace* const> traces,
    std::span<const std::vector<PollInstant>* const> polls,
    const ConsistencyFunction& function, double delta, Duration horizon);

/// Two-object convenience overload.
MutualValueReport evaluate_mutual_value(
    const ValueTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const ValueTrace& trace_b, const std::vector<PollInstant>& polls_b,
    const ConsistencyFunction& function, double delta, Duration horizon);

/// One point of the Fig. 8 series: f at the server vs f at the proxy.
struct MutualValueSample {
  TimePoint time = 0.0;
  double f_server = 0.0;
  double f_proxy = 0.0;
};

/// The (time, f_server, f_proxy) step series over [start, horizon] —
/// the reproduction of the paper's Fig. 8.
std::vector<MutualValueSample> mutual_value_series(
    const ValueTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const ValueTrace& trace_b, const std::vector<PollInstant>& polls_b,
    const ConsistencyFunction& function, Duration horizon);

}  // namespace broadway
