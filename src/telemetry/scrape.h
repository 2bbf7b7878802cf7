// Both ends of the telemetry pull channels on a node's UDP sockets:
// STATS_INQUIRY (a JSON snapshot), and the chunked ring pulls
// TRACE_INQUIRY and DECISION_INQUIRY, which share one answer helper and
// one client walk. Every node answers through the helpers here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/selection.h"
#include "net/message.h"
#include "net/pingpong.h"
#include "net/socket.h"
#include "telemetry/trace.h"

namespace finelb::telemetry {

/// Sends a STATS_INQUIRY to `load_addr` and waits up to `timeout` for the
/// matching STATS_REPLY. Returns the JSON payload, or nullopt on timeout /
/// malformed reply. Cold path: allocates freely, creates its own socket.
std::optional<std::string> scrape_stats(const net::Address& load_addr,
                                        SimDuration timeout = 200 *
                                                              kMillisecond);

/// Lossy-link-hardened cluster scrape: every node gets its own inquiry and
/// per-node timeout, and a node that stays silent (or answers garbage)
/// costs one `failed` slot instead of sinking the whole scrape — the
/// partial document set is still returned in input order.
struct ClusterStatsScrape {
  /// One entry per requested address; nullopt where the node never answered.
  std::vector<std::optional<std::string>> documents;
  int answered = 0;
  int failed = 0;

  /// The answered documents, in input order (feed to cluster_to_json).
  std::vector<std::string> answered_documents() const;
};

ClusterStatsScrape scrape_cluster_stats(
    const std::vector<net::Address>& load_addrs,
    SimDuration per_node_timeout = 200 * kMillisecond,
    int retries_per_node = 1);

/// One node's ring (trace or decision records) pulled over the wire, plus
/// the clock-sync samples each chunked round trip yielded for free (every
/// reply carries the answering node's monotonic clock — feed these to
/// ClockSync::add_sample).
template <class Record>
struct NodeRingScrape {
  /// Node id the replies reported (-1 if the node didn't say).
  std::int32_t node = -1;
  std::vector<Record> records;
  std::vector<net::ClockSample> clock_samples;
  /// False when a later chunk timed out on a lossy link: `records` then
  /// holds the prefix pulled so far (still usable for merging — the caller
  /// just has fewer samples) rather than nothing.
  bool complete = true;
};
using NodeTraceScrape = NodeRingScrape<TraceRecord>;
using NodeDecisionScrape = NodeRingScrape<DecisionRecord>;

/// Pulls the full trace ring from `load_addr` with chunked TRACE_INQUIRYs
/// (each reply stays under the 64 KiB datagram cap). Returns nullopt only
/// when the very first chunk goes unanswered; a scrape cut short mid-walk
/// returns the partial prefix with `complete` false. Cold path: allocates
/// freely, creates its own socket.
std::optional<NodeTraceScrape> scrape_trace(const net::Address& load_addr,
                                            SimDuration timeout = 200 *
                                                                  kMillisecond);

/// Pulls the full decision ring from `addr` (a socket answering
/// DECISION_INQUIRY — the prototype client's service socket) with the same
/// chunked walk and partial-result contract as scrape_trace.
std::optional<NodeDecisionScrape> scrape_decisions(
    const net::Address& addr, SimDuration timeout = 200 * kMillisecond);

/// Serve side of the ring pulls: answers `inquiry` with the chunk of
/// `records` (the node's current ring snapshot) starting at its offset,
/// stamped with `node` and this node's clock, sent to `to` on `socket`.
/// An offset past the end yields an empty, stamped chunk (the clock
/// probe). Returns false when the reply could not be sent. Cold path:
/// allocates.
bool answer_ring_inquiry(net::UdpSocket& socket, const net::Address& to,
                         std::int32_t node, const net::TraceInquiry& inquiry,
                         std::span<const TraceRecord> records);
bool answer_ring_inquiry(net::UdpSocket& socket, const net::Address& to,
                         std::int32_t node,
                         const net::DecisionInquiry& inquiry,
                         std::span<const DecisionRecord> records);

/// Serve side of the stats pull: answers a STATS_INQUIRY numbered `seq`
/// with `json` (the node's stats document), sent to `to` on `socket`.
/// Returns false, sending nothing, when the document is over the wire
/// format's 64 KiB string cap, and false when the send fails. Cold path:
/// allocates.
bool answer_stats_inquiry(net::UdpSocket& socket, const net::Address& to,
                          std::uint64_t seq, std::string json);

/// One clock-probe round trip: an out-of-range TRACE_INQUIRY (offset past any
/// ring) that returns an empty, stamped TRACE_REPLY. Cheaper than a full
/// scrape when only the clock sample is wanted. Returns nullopt on timeout.
std::optional<net::ClockSample> probe_clock(const net::Address& load_addr,
                                            SimDuration timeout = 200 *
                                                                  kMillisecond);

}  // namespace finelb::telemetry
