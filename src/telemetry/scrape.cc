#include "telemetry/scrape.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"

namespace finelb::telemetry {

std::optional<std::string> scrape_stats(const net::Address& load_addr,
                                        SimDuration timeout) {
  static std::atomic<std::uint64_t> next_seq{1};

  net::UdpSocket socket;
  net::StatsInquiry inquiry;
  inquiry.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
  std::array<std::uint8_t, net::kMaxFixedMsgSize> out;
  const std::size_t n = inquiry.encode_into(out);
  if (n == 0 || !socket.send_to({out.data(), n}, load_addr)) {
    return std::nullopt;
  }

  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::vector<std::uint8_t> buf(64 * 1024);
  const SimTime deadline = net::monotonic_now() + timeout;
  while (true) {
    const SimDuration remaining = deadline - net::monotonic_now();
    if (remaining <= 0) return std::nullopt;
    if (poller.wait(remaining).empty()) continue;
    while (const auto dgram = socket.recv_from(buf)) {
      net::StatsReply reply;
      if (net::StatsReply::try_decode({buf.data(), dgram->size}, reply) &&
          reply.seq == inquiry.seq) {
        return std::move(reply.payload);
      }
      // Anything else on this ephemeral socket is noise; keep waiting.
    }
  }
}

std::vector<std::string> ClusterStatsScrape::answered_documents() const {
  std::vector<std::string> docs;
  docs.reserve(static_cast<std::size_t>(answered));
  for (const auto& doc : documents) {
    if (doc) docs.push_back(*doc);
  }
  return docs;
}

ClusterStatsScrape scrape_cluster_stats(
    const std::vector<net::Address>& load_addrs, SimDuration per_node_timeout,
    int retries_per_node) {
  ClusterStatsScrape result;
  result.documents.reserve(load_addrs.size());
  for (const net::Address& addr : load_addrs) {
    std::optional<std::string> doc;
    // Each attempt is a fresh inquiry on a fresh ephemeral socket — on a
    // lossy link a retry beats waiting longer for a datagram that is gone.
    for (int attempt = 0; attempt <= retries_per_node && !doc; ++attempt) {
      doc = scrape_stats(addr, per_node_timeout);
    }
    if (doc) {
      ++result.answered;
    } else {
      ++result.failed;
    }
    result.documents.push_back(std::move(doc));
  }
  return result;
}

namespace {

static_assert(net::kDecisionWirePollMax == kDecisionPollMax,
              "wire and core polled-set caps must agree");

/// Wire mapping of a ring's records: the inquiry/reply message pair of its
/// pull channel, the chunk size that keeps a reply under the datagram cap,
/// and the record <-> wire-record conversions.
template <class Record>
struct RingWire;

template <>
struct RingWire<TraceRecord> {
  using Inquiry = net::TraceInquiry;
  using Reply = net::TraceReply;
  static constexpr std::size_t kMaxRecords = net::kTraceReplyMaxRecords;

  static net::TraceRecordWire to_wire(const TraceRecord& rec) {
    net::TraceRecordWire wire;
    wire.request_id = rec.request_id;
    wire.point = static_cast<std::uint8_t>(rec.point);
    wire.node = rec.node;
    wire.at_ns = rec.at_ns;
    wire.detail = rec.detail;
    return wire;
  }

  static TraceRecord from_wire(const net::TraceRecordWire& wire) {
    return {wire.request_id, static_cast<TracePoint>(wire.point), wire.node,
            wire.at_ns, wire.detail};
  }
};

template <>
struct RingWire<DecisionRecord> {
  using Inquiry = net::DecisionInquiry;
  using Reply = net::DecisionReply;
  static constexpr std::size_t kMaxRecords = net::kDecisionReplyMaxRecords;

  static net::DecisionRecordWire to_wire(const DecisionRecord& rec) {
    net::DecisionRecordWire wire;
    wire.request_id = rec.request_id;
    wire.at_ns = rec.at_ns;
    wire.chosen = rec.chosen;
    wire.polled_count = std::min<std::uint8_t>(
        rec.polled_count, static_cast<std::uint8_t>(kDecisionPollMax));
    wire.flags = rec.blind_fallback ? 1 : 0;
    wire.blacklist_filtered = rec.blacklist_filtered;
    for (std::uint8_t p = 0; p < wire.polled_count; ++p) {
      wire.polled[p] = {rec.polled[p].server, rec.polled[p].queue_length,
                        rec.polled[p].age_ns};
    }
    return wire;
  }

  static DecisionRecord from_wire(const net::DecisionRecordWire& wire) {
    // try_decode already rejected polled counts past the inline cap.
    DecisionRecord rec;
    rec.request_id = wire.request_id;
    rec.at_ns = wire.at_ns;
    rec.chosen = wire.chosen;
    rec.polled_count = wire.polled_count;
    rec.blind_fallback = (wire.flags & 1) != 0;
    rec.blacklist_filtered = wire.blacklist_filtered;
    for (std::uint8_t p = 0; p < rec.polled_count; ++p) {
      rec.polled[p] = {wire.polled[p].server, wire.polled[p].queue_length,
                       wire.polled[p].age_ns};
    }
    return rec;
  }
};

template <class Record>
bool answer_chunk(net::UdpSocket& socket, const net::Address& to,
                  std::int32_t node,
                  const typename RingWire<Record>::Inquiry& inquiry,
                  std::span<const Record> records) {
  // The snapshot is re-taken per inquiry, so a scraper walking offsets sees
  // a consistent total only while the ring is quiescent — fine for the
  // post-run pull this serves; a live scrape just re-pulls.
  using Wire = RingWire<Record>;
  typename Wire::Reply reply;
  reply.seq = inquiry.seq;
  reply.node = node;
  reply.server_ns = net::monotonic_now();
  reply.total = static_cast<std::uint32_t>(records.size());
  reply.offset = std::min(inquiry.offset, reply.total);
  const std::size_t end =
      std::min<std::size_t>(records.size(), reply.offset + Wire::kMaxRecords);
  reply.records.reserve(end - reply.offset);
  for (std::size_t i = reply.offset; i < end; ++i) {
    reply.records.push_back(Wire::to_wire(records[i]));
  }
  const std::vector<std::uint8_t> bytes = reply.encode();
  return !bytes.empty() && socket.send_to(bytes, to);
}

/// One ring-pull round trip on `socket`: returns the reply matching a fresh
/// inquiry for `offset` (and the local send/recv stamps bracketing it in
/// `sample`) or nullopt at `deadline`.
template <class Record>
std::optional<typename RingWire<Record>::Reply> ring_round_trip(
    net::UdpSocket& socket, const net::Address& addr, std::uint32_t offset,
    SimTime deadline, net::ClockSample& sample) {
  static std::atomic<std::uint64_t> next_seq{1};

  typename RingWire<Record>::Inquiry inquiry;
  inquiry.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
  inquiry.offset = offset;
  std::array<std::uint8_t, net::kMaxFixedMsgSize> out;
  const std::size_t n = inquiry.encode_into(out);
  sample.local_send_ns = net::monotonic_now();
  if (n == 0 || !socket.send_to({out.data(), n}, addr)) return std::nullopt;

  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::vector<std::uint8_t> buf(64 * 1024);
  while (true) {
    const SimDuration remaining = deadline - net::monotonic_now();
    if (remaining <= 0) return std::nullopt;
    if (poller.wait(remaining).empty()) continue;
    while (const auto dgram = socket.recv_from(buf)) {
      typename RingWire<Record>::Reply reply;
      if (RingWire<Record>::Reply::try_decode({buf.data(), dgram->size},
                                              reply) &&
          reply.seq == inquiry.seq) {
        sample.local_recv_ns = net::monotonic_now();
        sample.remote_ns = reply.server_ns;
        return reply;
      }
    }
  }
}

/// The chunked client walk: pulls offsets until a reply's records reach
/// its advertised total.
template <class Record>
std::optional<NodeRingScrape<Record>> scrape_ring(const net::Address& addr,
                                                  SimDuration timeout) {
  const SimTime deadline = net::monotonic_now() + timeout;
  net::UdpSocket socket;
  NodeRingScrape<Record> result;
  std::uint32_t offset = 0;
  while (true) {
    net::ClockSample sample{};
    auto reply =
        ring_round_trip<Record>(socket, addr, offset, deadline, sample);
    if (!reply) {
      // First chunk lost: the node is unreachable. A later chunk lost:
      // return the prefix pulled so far (partial-result hardening for
      // lossy links) instead of discarding everything.
      if (offset == 0) return std::nullopt;
      result.complete = false;
      return result;
    }
    result.node = reply->node;
    result.clock_samples.push_back(sample);
    for (const auto& wire : reply->records) {
      result.records.push_back(RingWire<Record>::from_wire(wire));
    }
    offset = reply->offset + static_cast<std::uint32_t>(reply->records.size());
    if (offset >= reply->total || reply->records.empty()) break;
  }
  return result;
}

}  // namespace

std::optional<NodeTraceScrape> scrape_trace(const net::Address& load_addr,
                                            SimDuration timeout) {
  return scrape_ring<TraceRecord>(load_addr, timeout);
}

std::optional<NodeDecisionScrape> scrape_decisions(const net::Address& addr,
                                                   SimDuration timeout) {
  return scrape_ring<DecisionRecord>(addr, timeout);
}

bool answer_ring_inquiry(net::UdpSocket& socket, const net::Address& to,
                         std::int32_t node, const net::TraceInquiry& inquiry,
                         std::span<const TraceRecord> records) {
  return answer_chunk<TraceRecord>(socket, to, node, inquiry, records);
}

bool answer_ring_inquiry(net::UdpSocket& socket, const net::Address& to,
                         std::int32_t node,
                         const net::DecisionInquiry& inquiry,
                         std::span<const DecisionRecord> records) {
  return answer_chunk<DecisionRecord>(socket, to, node, inquiry, records);
}

bool answer_stats_inquiry(net::UdpSocket& socket, const net::Address& to,
                          std::uint64_t seq, std::string json) {
  net::StatsReply reply;
  reply.seq = seq;
  reply.payload = std::move(json);
  // Empty when the document outgrew the 64 KiB string cap.
  const std::vector<std::uint8_t> bytes = reply.encode();
  return !bytes.empty() && socket.send_to(bytes, to);
}

std::optional<net::ClockSample> probe_clock(const net::Address& load_addr,
                                            SimDuration timeout) {
  const SimTime deadline = net::monotonic_now() + timeout;
  net::UdpSocket socket;
  net::ClockSample sample{};
  // Offset past any plausible ring: the node clamps it, answers an empty
  // (but stamped) reply, and never iterates its ring.
  if (!ring_round_trip<TraceRecord>(socket, load_addr, 0xffffffffu, deadline,
                                    sample)) {
    return std::nullopt;
  }
  return sample;
}

}  // namespace finelb::telemetry
