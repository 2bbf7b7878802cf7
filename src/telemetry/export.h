// Snapshot exporter: JSON documents, the one telemetry export format.
//
// Documents leave a node only by pull: a STATS_INQUIRY on its load-index UDP
// socket is answered with the node's to_json document (telemetry/scrape.h
// holds both the answering helper and the client side).
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace finelb::telemetry {

/// Renders one node's snapshot as a single JSON object:
///   {"node":"server.3","counters":{...},"gauges":{...},"values":{...},
///    "histograms":{"service_time_ms":{"count":...,"mean":...,"p50":...,
///    "p95":...,"p99":...,"min":...,"max":...,"buckets":[[v,n],...]}}}
std::string to_json(const MetricsSnapshot& snapshot);

/// Same, with a "trace" array of sampled lifecycle records appended.
std::string to_json(const MetricsSnapshot& snapshot,
                    const std::vector<TraceRecord>& trace);

/// Merges per-node JSON documents into {"nodes":[...]} — inputs must
/// already be valid JSON objects (e.g. from to_json or a STATS_REPLY).
std::string cluster_to_json(const std::vector<std::string>& node_documents);

}  // namespace finelb::telemetry
