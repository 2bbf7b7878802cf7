#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

using finelb::telemetry::MergedRecord;
using finelb::telemetry::TracePoint;
using finelb::telemetry::TraceRecord;

const char* const kStageNames[kStageCount] = {
    "client.queue_us",      "client.poll_round_us", "client.dispatch_us",
    "wire.request_us",      "server.queue_wait_us", "server.service_us",
    "wire.response_us"};

namespace {

std::int64_t rank_of(std::int64_t n, double q) {
  const auto rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<std::int64_t>(values.size());
  const auto at = static_cast<std::size_t>(rank_of(n, q) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(at),
                   values.end());
  return values[at];
}

bool percentile_supported(std::int64_t n, double q, std::int64_t min_beyond) {
  return n > 0 && n - rank_of(n, q) >= min_beyond;
}

double quantile_with_failures(
    const std::function<double(double)>& completed_quantile,
    std::int64_t completed, std::int64_t failed, double q) {
  const std::int64_t n = completed + failed;
  if (n <= 0) return 0.0;
  const std::int64_t rank = rank_of(n, q);
  if (rank > completed) return kFailed;
  // Ask for the same rank among completions; the half-step keeps
  // ceil(q' * completed) == rank despite rounding.
  return completed_quantile((static_cast<double>(rank) - 0.5) /
                            static_cast<double>(completed));
}

double interpolated_quantile(const finelb::LatencyHistogram& h, double q) {
  const std::int64_t n = h.count();
  if (n == 0) return 0.0;
  const double mid = h.quantile(q);
  const finelb::LogBucketing scheme{5, -40, 40};  // LatencyHistogram's default
  const std::size_t bucket = scheme.index(mid);
  if (bucket == 0) return mid;
  const double lower = scheme.lower(bucket);
  const double upper = scheme.upper(bucket);
  const auto count_above = [&h, n](double value) {
    return static_cast<std::int64_t>(
        std::llround(h.fraction_above(value) * static_cast<double>(n)));
  };
  const std::int64_t above = count_above(mid);  // buckets past this one
  const std::int64_t from = count_above(std::nextafter(lower, 0.0));
  const std::int64_t in_bucket = from - above;
  if (in_bucket <= 0) return mid;
  const std::int64_t below = n - from;
  const double pos = static_cast<double>(rank_of(n, q) - below) - 0.5;
  return lower + (upper - lower) *
                     std::clamp(pos / static_cast<double>(in_bucket), 0.0, 1.0);
}

std::vector<std::int64_t> due_ns(const std::vector<std::int64_t>& draw_at,
                                 const std::vector<std::int64_t>& interval) {
  std::vector<std::int64_t> out;
  const std::size_t n = std::min(draw_at.size(), interval.size());
  if (n < 2) return out;
  out.reserve(n - 1);
  std::int64_t due = draw_at[0];
  for (std::size_t k = 0; k + 1 < n; ++k) {
    due += interval[k];
    out.push_back(due);
  }
  return out;
}

std::vector<std::int64_t> lateness_ns(
    const std::vector<std::int64_t>& draw_at,
    const std::vector<std::int64_t>& interval) {
  std::vector<std::int64_t> out = due_ns(draw_at, interval);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = draw_at[k + 1] - out[k];
  return out;
}

std::int64_t stage_value(const Stages& s, int index) {
  switch (index) {
    case 0: return s.client_queue;
    case 1: return s.poll_round;
    case 2: return s.dispatch;
    case 3: return s.wire_request;
    case 4: return s.server_queue;
    case 5: return s.service;
    default: return s.wire_response;
  }
}

std::vector<Chain> group_chains(
    const std::vector<MergedRecord>& merged,
    const std::function<bool(std::int32_t)>& is_client_source) {
  std::map<std::uint64_t, Chain> by_id;
  for (const MergedRecord& m : merged) {
    if (m.record.point == TracePoint::kLeaderElected) continue;
    Chain& chain = by_id[m.record.request_id];
    (is_client_source(m.source) ? chain.client : chain.server)
        .push_back(m.record);
  }
  std::vector<Chain> out;
  out.reserve(by_id.size());
  for (auto& [id, chain] : by_id) out.push_back(std::move(chain));
  return out;
}

std::optional<Stages> partition_chain(const Chain& chain, std::int64_t due) {
  // Each client point must appear once; a retried access dispatches twice
  // and is left out rather than split between two servers.
  const auto only = [](const std::vector<TraceRecord>& records,
                       TracePoint point,
                       std::int32_t node) -> const TraceRecord* {
    const TraceRecord* found = nullptr;
    for (const TraceRecord& r : records) {
      if (r.point != point || (node >= 0 && r.node != node)) continue;
      if (found != nullptr) return nullptr;
      found = &r;
    }
    return found;
  };
  const TraceRecord* enqueue = only(chain.client, TracePoint::kClientEnqueue, -1);
  const TraceRecord* sent = only(chain.client, TracePoint::kPollSent, -1);
  const TraceRecord* pick = only(chain.client, TracePoint::kServerPick, -1);
  const TraceRecord* dispatch = only(chain.client, TracePoint::kDispatch, -1);
  const TraceRecord* received = only(chain.client, TracePoint::kResponse, -1);
  if (!enqueue || !sent || !pick || !dispatch || !received) return std::nullopt;
  const std::int32_t server = dispatch->node;
  const TraceRecord* start = only(chain.server, TracePoint::kServiceStart, server);
  const TraceRecord* replied = only(chain.server, TracePoint::kResponse, server);
  if (!start || !replied) return std::nullopt;

  // The server enqueued the request queue-wait before the worker took it.
  const std::int64_t enqueued = start->at_ns - start->detail;
  Stages s;
  s.client_queue = sent->at_ns - due;
  s.poll_round = pick->at_ns - sent->at_ns;
  s.dispatch = dispatch->at_ns - pick->at_ns;
  s.wire_request = enqueued - dispatch->at_ns;
  s.server_queue = start->detail;
  s.service = replied->at_ns - start->at_ns;
  s.wire_response = received->at_ns - replied->at_ns;
  s.end_to_end = received->at_ns - due;
  return s;
}

bool rung_passes(const Rung& run, double limit_ms) {
  return run.issued > 0 && run.failed == 0 && run.latency_p99_ms <= limit_ms &&
         run.issue_late_p99_ms <= limit_ms && run.drain_ms <= limit_ms;
}

double capacity_aps(const std::vector<RungResult>& ascending) {
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    const RungResult& hi = ascending[i];
    if (hi.pass_fraction >= 0.5) continue;
    if (i == 0) return 0.0;
    const RungResult& lo = ascending[i - 1];
    const double t = (lo.pass_fraction - 0.5) /
                     (lo.pass_fraction - hi.pass_fraction);
    return std::exp(std::log(lo.offered_aps) +
                    t * (std::log(hi.offered_aps) - std::log(lo.offered_aps)));
  }
  return ascending.empty() ? 0.0 : ascending.back().offered_aps;
}

}  // namespace perfbench
