#include "telemetry/decision.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace finelb::telemetry {

void DecisionRing::record_decision(const DecisionRecord& record) {
  if (record.polled_count <= kDecisionPollMax) {
    SeqRing::record(record);
    return;
  }
  // Readers walk polled[0, polled_count): never store a count past the
  // inline array.
  DecisionRecord clamped = record;
  clamped.polled_count = static_cast<std::uint8_t>(kDecisionPollMax);
  SeqRing::record(clamped);
}

void append_decision_metrics(MetricsSnapshot& snapshot,
                             const DecisionQualitySummary& summary) {
  snapshot.counters.emplace_back("decisions_total", summary.decisions);
  snapshot.counters.emplace_back("decision_mistakes_total", summary.mistakes);
  snapshot.counters.emplace_back("decision_blind_fallbacks",
                                 summary.blind_fallbacks);
  snapshot.counters.emplace_back("decision_regret_total",
                                 summary.regret_total);
  snapshot.values.emplace_back("decision_mistake_rate",
                               summary.mistake_rate());
  snapshot.values.emplace_back("decision_regret_mean", summary.mean_regret());
}

std::string decision_quality_to_json(const DecisionQualitySummary& summary) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"decisions\":%" PRId64 ",\"mistakes\":%" PRId64
                ",\"blind_fallbacks\":%" PRId64 ",\"regret_total\":%" PRId64
                ",\"mistake_rate\":%.6g,\"mean_regret\":%.6g}",
                summary.decisions, summary.mistakes, summary.blind_fallbacks,
                summary.regret_total, summary.mistake_rate(),
                summary.mean_regret());
  return buf;
}

DecisionQualitySummary reconstruct_decision_quality(
    const std::vector<DecisionRecord>& decisions,
    const std::vector<MergedRecord>& merged) {
  // One pass over the merged timeline: request id -> the chosen server's
  // realized queue depth at dispatch arrival (kResponse detail). The trace
  // and decision rings key records identically, so the join is a hash
  // lookup.
  std::unordered_map<std::uint64_t, std::int64_t> arrival_qlen;
  arrival_qlen.reserve(merged.size() / 4 + 1);
  for (const MergedRecord& m : merged) {
    if (m.record.point == TracePoint::kResponse) {
      arrival_qlen.emplace(m.record.request_id, m.record.detail);
    }
  }
  DecisionQualitySummary summary;
  for (const DecisionRecord& d : decisions) {
    const auto it = arrival_qlen.find(d.request_id);
    if (it == arrival_qlen.end()) continue;  // untraced or lost response
    const std::int64_t realized = it->second;
    std::int64_t promised = 0;
    if (!d.blind_fallback && d.polled_count > 0) {
      promised = d.polled[0].queue_length;
      for (std::uint8_t i = 1; i < d.polled_count; ++i) {
        promised = std::min<std::int64_t>(promised,
                                          d.polled[i].queue_length);
      }
    }
    const std::int64_t regret = std::max<std::int64_t>(0, realized - promised);
    ++summary.decisions;
    if (d.blind_fallback) ++summary.blind_fallbacks;
    if (regret > 0) ++summary.mistakes;
    summary.regret_total += regret;
  }
  return summary;
}

}  // namespace finelb::telemetry
