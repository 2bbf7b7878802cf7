// Decision audit trail: a fixed-capacity, lock-free ring of dispatch
// decisions (DESIGN.md §13).
//
// PR 5's staleness observatory measures how wrong the load indexes are;
// this ring captures what the balancer *did* with them — per decision, the
// polled server set with reported loads and report ages, the chosen server,
// and the blind-fallback/blacklist flags. Records are produced at the
// single choke point in core/selection.h (pick_least_loaded /
// pick_random_fallback with a DecisionContext), so the simulator and the
// prototype fill structurally identical rings.
//
// The ring is a SeqRing<DecisionRecord> (telemetry/seq_ring.h), the same
// lock-free storage as TraceRing: wait-free recording, torn-read-free
// snapshots, TSan-clean under concurrent writers, and nothing at all under
// FINELB_TELEMETRY=OFF.
//
// Decision quality: the sim computes exact mistake/regret online against
// its omniscient queue view; the prototype reconstructs the measured
// analogue post-run by joining these records with the clock-aligned merged
// traces (reconstruct_decision_quality below) — the chosen server's actual
// queue depth at dispatch comes from its kResponse trace record.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/selection.h"
#include "telemetry/merge.h"
#include "telemetry/metrics.h"
#include "telemetry/seq_ring.h"

namespace finelb::telemetry {

/// The decision ring, and the DecisionSink the selection choke point writes
/// through. `sample_period` of 0 disables recording entirely; N records
/// every decision whose request id is a multiple of N — use 1 to audit
/// every decision, or the trace sample period so decision records join the
/// traced subset.
class DecisionRing final : public SeqRing<DecisionRecord>,
                           public DecisionSink {
 public:
  using SeqRing::SeqRing;

  /// The sink the choke point writes through (null when inactive, so the
  /// selection call skips record construction entirely).
  DecisionSink* sink() { return active() ? this : nullptr; }

  void record_decision(const DecisionRecord& record) override;
};

// --- regret accounting -------------------------------------------------------

/// Decision-quality aggregates with identical metric names in the sim
/// (exact, omniscient baseline) and the prototype (trace-reconstructed).
/// Regret = extra queue depth the decision suffered over the best available
/// choice; a mistake is any decision with positive regret.
struct DecisionQualitySummary {
  std::int64_t decisions = 0;
  std::int64_t mistakes = 0;
  std::int64_t blind_fallbacks = 0;
  /// Sum of per-decision regret (queue-depth units).
  std::int64_t regret_total = 0;

  double mistake_rate() const {
    return decisions > 0
               ? static_cast<double>(mistakes) / static_cast<double>(decisions)
               : 0.0;
  }
  double mean_regret() const {
    return decisions > 0 ? static_cast<double>(regret_total) /
                               static_cast<double>(decisions)
                         : 0.0;
  }
};

/// Exports the summary under the shared metric names (decisions_total,
/// decision_mistakes_total, decision_blind_fallbacks, decision_regret_total;
/// values decision_mistake_rate, decision_regret_mean) — appended to an
/// existing snapshot so sim and prototype documents stay name-compatible.
void append_decision_metrics(MetricsSnapshot& snapshot,
                             const DecisionQualitySummary& summary);

/// Renders the summary as a JSON object for bench output.
std::string decision_quality_to_json(const DecisionQualitySummary& summary);

/// Prototype-side reconstruction: joins decision records with the
/// clock-aligned merged timeline. For each decision whose request also left
/// a kResponse trace record (detail = the chosen server's queue length when
/// the dispatched request arrived), the measured regret is
///   max(0, Q_arrival(chosen) - min reported queue length in the polled set)
/// — how much deeper the chosen queue actually was than the best promise
/// the balancer acted on. Exact in-sim regret compares true queue depths
/// instead; both definitions coincide when load reports are fresh.
/// Blind-fallback decisions count (and count as mistakes when their
/// realized queue was nonzero) but contribute no reported minimum.
DecisionQualitySummary reconstruct_decision_quality(
    const std::vector<DecisionRecord>& decisions,
    const std::vector<MergedRecord>& merged);

}  // namespace finelb::telemetry
