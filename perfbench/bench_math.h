// The benchmark's own arithmetic, kept free of I/O so it can be tested on
// synthetic inputs (bench_math_test.cc): percentiles that count failures,
// open-loop lateness from a draw schedule, the stage partition of a traced
// access, and the capacity-rung rule.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "stats/histogram.h"
#include "telemetry/merge.h"

namespace perfbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Nearest-rank q-quantile (rank ceil(q*n), at least 1) of unsorted values;
/// 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// True when at least `min_beyond` of `n` samples lie above the q-quantile's
/// rank, so the percentile is backed by data rather than by one sample.
bool percentile_supported(std::int64_t n, double q,
                          std::int64_t min_beyond = 10);

/// q-quantile over every issued access, failed ones ranked above every
/// completion: a failure is beyond any latency limit. `completed_quantile`
/// answers quantiles of the completed accesses alone with the same
/// nearest-rank rule. Returns kFailed when the rank lands on a failure.
double quantile_with_failures(
    const std::function<double(double)>& completed_quantile,
    std::int64_t completed, std::int64_t failed, double q);

/// Nearest-rank q-quantile of a LatencyHistogram (default bucketing),
/// placed linearly inside its bucket by rank rather than at the bucket's
/// midpoint, so that nearby runs do not all report one bucket's value.
double interpolated_quantile(const finelb::LatencyHistogram& h, double q);

/// Due time (ns) of each access of one open-loop stream. `draw_at[k]` is
/// when the client drew interval k; the first draw happens as the stream
/// starts, so access k is due at draw_at[0] + interval[0] + ... +
/// interval[k]. Only accesses followed by another draw are returned.
std::vector<std::int64_t> due_ns(const std::vector<std::int64_t>& draw_at,
                                 const std::vector<std::int64_t>& interval);

/// Lateness (issue minus due, ns) of each access returned by due_ns: access
/// k has been issued by the time draw k+1 happens.
std::vector<std::int64_t> lateness_ns(const std::vector<std::int64_t>& draw_at,
                                      const std::vector<std::int64_t>& interval);

/// The seven stages of one traced access, in ns. They partition the access
/// from its due time to the client receiving the response.
struct Stages {
  std::int64_t client_queue = 0;   // due -> poll round sent
  std::int64_t poll_round = 0;     // poll sent -> server picked
  std::int64_t dispatch = 0;       // picked -> request sent
  std::int64_t wire_request = 0;   // request sent -> server enqueued it
  std::int64_t server_queue = 0;   // enqueued -> worker started it
  std::int64_t service = 0;        // started -> response sent
  std::int64_t wire_response = 0;  // response sent -> client received it
  std::int64_t end_to_end = 0;     // due -> client received the response

  std::int64_t sum() const {
    return client_queue + poll_round + dispatch + wire_request +
           server_queue + service + wire_response;
  }
};

inline constexpr int kStageCount = 7;
/// Metric names of the stages, in Stages field order.
extern const char* const kStageNames[kStageCount];
std::int64_t stage_value(const Stages& s, int index);

/// The records of one request id from a merged timeline, split by the kind
/// of node that recorded them.
struct Chain {
  std::vector<finelb::telemetry::TraceRecord> client;
  std::vector<finelb::telemetry::TraceRecord> server;
};

/// Groups merged records by request id. `is_client_source(i)` tells whether
/// source index i of the merge input is a client node.
std::vector<Chain> group_chains(
    const std::vector<finelb::telemetry::MergedRecord>& merged,
    const std::function<bool(std::int32_t)>& is_client_source);

/// Partitions a complete chain: the client's enqueue, poll-sent, pick,
/// exactly one dispatch and its response, plus the dispatched server's
/// service start and response. `due` is when the access was due. Returns
/// nothing for an incomplete chain.
std::optional<Stages> partition_chain(const Chain& chain, std::int64_t due);

/// One run at a fixed offered rate, as the capacity search judges it.
struct Rung {
  double offered_aps = 0.0;
  std::int64_t issued = 0;
  std::int64_t failed = 0;
  double latency_p99_ms = 0.0;     // over issued, failures = kFailed
  double issue_late_p99_ms = 0.0;  // open-loop generator lateness
  double drain_ms = 0.0;           // last access issued -> last resolved
};

/// A run passes when its p99 and its generator lateness p99 stay under the
/// limit, nothing failed, and the backlog drains within the limit once
/// arrivals stop (completions kept up with arrivals).
bool rung_passes(const Rung& run, double limit_ms);

/// One offered rate of the capacity ramp and the share of its runs that
/// passed.
struct RungResult {
  double offered_aps = 0.0;
  double pass_fraction = 0.0;
};

/// Capacity of an ascending ramp: the rate at which the pass fraction first
/// falls below one half, interpolated on a log-rate scale between that rung
/// and the one before it. 0 when the first rung already fails; the top rate
/// when none does. A rate where some runs collapse and others do not thus
/// counts by how often it collapses, not by one coin flip.
double capacity_aps(const std::vector<RungResult>& ascending);

}  // namespace perfbench
