// Request lifecycle tracing: a fixed-capacity ring of trace records.
//
// Captures the canonical request path of the paper's polling protocol —
// client enqueue → poll sent → each poll reply/discard → server pick →
// dispatch → service start → response — for a *sampled* subset of requests,
// so full traces can be dumped without paying per-request cost on every
// access. The ring is a SeqRing<TraceRecord> (telemetry/seq_ring.h):
// wait-free recording, torn-read-free snapshots, TSan-clean with
// concurrent writers on every point.
#pragma once

#include <cstdint>

#include "telemetry/seq_ring.h"

namespace finelb::telemetry {

enum class TracePoint : std::uint8_t {
  kClientEnqueue = 0,  // access entered the client's open queue
  kPollSent = 1,       // one poll round fanned out (detail = targets)
  kPollReply = 2,      // load reply accepted (node = server, detail = qlen)
  kPollDiscard = 3,    // stale/slow reply discarded (Table 2's metric)
  kServerPick = 4,     // poll round resolved (detail = chosen server)
  kDispatch = 5,       // request sent to the server (node = server)
  kServiceStart = 6,   // server worker dequeued it (detail = queue wait ns)
  kResponse = 7,       // response sent / received (detail = qlen at arrival)
  kLoadReplied = 8,    // server answered a traced inquiry (detail = qlen
                       // reported — the t_reply side of the staleness pair)
  kLeaderElected = 9,  // directory replica won an election (node = replica,
                       // detail = term; request_id carries the term too so
                       // the instant survives request-keyed merges)
};

const char* trace_point_name(TracePoint point);

struct TraceRecord {
  std::uint64_t request_id = 0;
  TracePoint point = TracePoint::kClientEnqueue;
  std::int32_t node = -1;    // server index / client id; -1 when n/a
  std::int64_t at_ns = 0;    // caller-supplied clock (net::monotonic_now())
  std::int64_t detail = 0;   // point-specific payload, see enum comments
};

/// The trace ring: SeqRing plus a field-wise record() for call sites.
/// sampled(request_id) gates a client's own sampling; active() gates
/// *propagated* trace contexts — a request whose wire trace_id is set was
/// sampled by the issuing client, so the receiving node records it whenever
/// its own ring is live, regardless of its local sampling period.
class TraceRing : public SeqRing<TraceRecord> {
 public:
  using SeqRing::SeqRing;

  void record(std::uint64_t request_id, TracePoint point, std::int32_t node,
              std::int64_t at_ns, std::int64_t detail = 0) {
    SeqRing::record(TraceRecord{request_id, point, node, at_ns, detail});
  }
};

}  // namespace finelb::telemetry
