// Golden wire images: one fully populated instance of every wire message
// type (the 23 net::MsgType messages plus the two Neptune RPC messages) and
// the exact bytes it encodes to, written out as hex.
//
// The hex strings pin the wire format: any codec change that alters a
// single byte of any message fails the golden test, and the mutational
// fuzz test starts every mutation run from these encodings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "neptune/rpc.h"
#include "net/message.h"

namespace finelb::golden {

inline std::vector<std::uint8_t> from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(nibble(hex[2 * i]) << 4 |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

inline std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

inline net::LoadInquiry load_inquiry() {
  net::LoadInquiry m;
  m.seq = 0x0102030405060708ull;
  m.trace_id = 0x1112131415161718ull;
  m.origin_ns = -2;
  return m;
}

inline net::LoadReply load_reply() {
  net::LoadReply m;
  m.seq = 0x0102030405060708ull;
  m.queue_length = -3;
  m.trace_id = 0x2122232425262728ull;
  m.origin_ns = 0x3132333435363738ll;
  m.server_ns = -4;
  return m;
}

inline net::ServiceRequest service_request() {
  net::ServiceRequest m;
  m.request_id = (7ull << 40) | 12345;
  m.service_us = 22200;
  m.partition = 0xa1a2a3a4u;
  m.trace_id = 0x4142434445464748ull;
  m.origin_ns = 987654321;
  return m;
}

inline net::ServiceResponse service_response() {
  net::ServiceResponse m;
  m.request_id = 0xf0e0d0c0b0a09080ull;
  m.server = 11;
  m.queue_at_arrival = -5;
  m.trace_id = 0x5152535455565758ull;
  m.server_ns = 0x6162636465666768ll;
  return m;
}

inline net::Acquire acquire() {
  net::Acquire m;
  m.seq = 0xdeadbeefcafef00dull;
  return m;
}

inline net::AcquireReply acquire_reply() {
  net::AcquireReply m;
  m.seq = 1001;
  m.server = -9;
  return m;
}

inline net::Release release() {
  net::Release m;
  m.server = 0x12345678;
  return m;
}

inline net::Publish publish() {
  net::Publish m;
  m.service = "photo-album";
  m.partition = 0x01020304u;
  m.server = -14;
  m.service_port = 40001;
  m.load_port = 40002;
  m.ttl_ms = 2000;
  return m;
}

inline net::SnapshotRequest snapshot_request() {
  net::SnapshotRequest m;
  m.seq = 0x8070605040302010ull;
  m.service = "search";
  return m;
}

inline net::SnapshotReply snapshot_reply() {
  net::SnapshotReply m;
  m.seq = 77;
  m.entries.push_back(publish());
  net::Publish second;
  second.service = "kv";
  second.partition = 3;
  second.server = 4;
  second.service_port = 1;
  second.load_port = 65535;
  second.ttl_ms = 0xffffffffu;
  m.entries.push_back(second);
  return m;
}

inline net::LoadAnnounce load_announce() {
  net::LoadAnnounce m;
  m.server = 12;
  m.queue_length = -34;
  return m;
}

inline net::Subscribe subscribe() {
  net::Subscribe m;
  m.ttl_ms = 0xdeadbeefu;
  return m;
}

inline net::StatsInquiry stats_inquiry() {
  net::StatsInquiry m;
  m.seq = 31337;
  return m;
}

inline net::StatsReply stats_reply() {
  net::StatsReply m;
  m.seq = 31338;
  m.payload = "{\"served\":12}";
  return m;
}

inline net::TraceInquiry trace_inquiry() {
  net::TraceInquiry m;
  m.seq = 4242;
  m.offset = 0xfffffffeu;
  return m;
}

inline net::TraceReply trace_reply() {
  net::TraceReply m;
  m.seq = 4243;
  m.node = -7;
  m.server_ns = 123456789012345ll;
  m.total = 100;
  m.offset = 40;
  net::TraceRecordWire a;
  a.request_id = (1ull << 40) | 5;
  a.point = 8;
  a.node = 13;
  a.at_ns = -9;
  a.detail = 0x7fffffffffffffffll;
  m.records.push_back(a);
  net::TraceRecordWire b;
  b.request_id = 6;
  b.point = 2;
  b.node = -1;
  b.at_ns = 1000000;
  b.detail = -42;
  m.records.push_back(b);
  return m;
}

inline net::DecisionInquiry decision_inquiry() {
  net::DecisionInquiry m;
  m.seq = 777;
  m.offset = 12345;
  return m;
}

inline net::DecisionReply decision_reply() {
  net::DecisionReply m;
  m.seq = 778;
  m.node = 5;
  m.server_ns = -987654321012345ll;
  m.total = 30;
  m.offset = 10;
  net::DecisionRecordWire polled;
  polled.request_id = 0xfeedface0003ull;
  polled.at_ns = -1000;
  polled.chosen = 2;
  polled.polled_count = 3;
  polled.flags = 0;
  polled.blacklist_filtered = 255;
  for (std::uint8_t p = 0; p < 3; ++p) {
    polled.polled[p].server = 0x7fffffff - p;
    polled.polled[p].queue_length = -2 - p;
    polled.polled[p].age_ns = 500ll * (p + 1);
  }
  m.records.push_back(polled);
  net::DecisionRecordWire blind;
  blind.request_id = 9;
  blind.at_ns = 4000;
  blind.chosen = 6;
  blind.polled_count = 0;
  blind.flags = 1;
  blind.blacklist_filtered = 1;
  m.records.push_back(blind);
  return m;
}

inline net::VoteRequest vote_request() {
  net::VoteRequest m;
  m.term = 0xabcdef0123456789ull;
  m.candidate = 4;
  return m;
}

inline net::VoteReply vote_reply() {
  net::VoteReply m;
  m.term = 17;
  m.voter = 2;
  m.granted = true;
  return m;
}

inline net::Heartbeat heartbeat() {
  net::Heartbeat m;
  m.term = 3;
  m.leader = 1;
  return m;
}

inline net::HeartbeatAck heartbeat_ack() {
  net::HeartbeatAck m;
  m.term = 4;
  m.follower = -1;
  return m;
}

inline net::Redirect redirect() {
  net::Redirect m;
  m.seq = 0x1122334455667788ull;
  m.term = 9;
  m.leader = 2;
  m.leader_port = 40123;
  return m;
}

inline neptune::RpcRequest rpc_request() {
  neptune::RpcRequest m;
  m.request_id = 0xabcdef0123456789ull;
  m.method = 7;
  m.partition = 3;
  m.args = {1, 2, 3, 4, 5};
  return m;
}

inline neptune::RpcResponse rpc_response() {
  neptune::RpcResponse m;
  m.request_id = 42;
  m.status = neptune::RpcStatus::kNoSuchPartition;
  m.server = 11;
  m.queue_at_arrival = -2;
  m.result = {9, 8, 7};
  return m;
}

// The pinned encodings, in the order of the factories above.
inline constexpr char kLoadInquiryHex[] =
    "0108070605040302011817161514131211feffffffffffffff";
inline constexpr char kLoadReplyHex[] =
    "020807060504030201fdffffff28272625242322213837363534333231fcffff"
    "ffffffffff";
inline constexpr char kServiceRequestHex[] =
    "033930000000070000b8560000a4a3a2a14847464544434241b168de3a000000"
    "00";
inline constexpr char kServiceResponseHex[] =
    "048090a0b0c0d0e0f00b000000fbffffff585756555453525168676665646362"
    "61";
inline constexpr char kAcquireHex[] =
    "050df0fecaefbeadde";
inline constexpr char kAcquireReplyHex[] =
    "06e903000000000000f7ffffff";
inline constexpr char kReleaseHex[] =
    "0778563412";
inline constexpr char kPublishHex[] =
    "080b0070686f746f2d616c62756d04030201f2ffffff419c429cd0070000";
inline constexpr char kSnapshotRequestHex[] =
    "0910203040506070800600736561726368";
inline constexpr char kSnapshotReplyHex[] =
    "0a4d00000000000000020000000b0070686f746f2d616c62756d04030201f2ff"
    "ffff419c429cd007000002006b7603000000040000000100ffffffffffff";
inline constexpr char kLoadAnnounceHex[] =
    "0b0c000000deffffff";
inline constexpr char kSubscribeHex[] =
    "0cefbeadde";
inline constexpr char kStatsInquiryHex[] =
    "0d697a000000000000";
inline constexpr char kStatsReplyHex[] =
    "0e6a7a0000000000000d007b22736572766564223a31327d";
inline constexpr char kTraceInquiryHex[] =
    "0f9210000000000000feffffff";
inline constexpr char kTraceReplyHex[] =
    "109310000000000000f9ffffff79df0d86487000006400000028000000020000"
    "000500000000010000080d000000f7ffffffffffffffffffffffffffff7f0600"
    "00000000000002ffffffff40420f0000000000d6ffffffffffffff";
inline constexpr char kVoteRequestHex[] =
    "118967452301efcdab04000000";
inline constexpr char kVoteReplyHex[] =
    "1211000000000000000200000001";
inline constexpr char kHeartbeatHex[] =
    "13030000000000000001000000";
inline constexpr char kHeartbeatAckHex[] =
    "140400000000000000ffffffff";
inline constexpr char kRedirectHex[] =
    "158877665544332211090000000000000002000000bb9c";
inline constexpr char kDecisionInquiryHex[] =
    "16090300000000000039300000";
inline constexpr char kDecisionReplyHex[] =
    "170a0300000000000005000000870109cfbb7dfcff1e0000000a000000020000"
    "000300cefaedfe000018fcffffffffffff020000000300ffffffff7ffeffffff"
    "f401000000000000feffff7ffdffffffe803000000000000fdffff7ffcffffff"
    "dc050000000000000900000000000000a00f00000000000006000000000101";
inline constexpr char kRpcRequestHex[] =
    "158967452301efcdab070003000000050000000102030405";
inline constexpr char kRpcResponseHex[] =
    "162a00000000000000020b000000feffffff03000000090807";

/// Calls `f(name, message, hex)` once per golden message.
template <class F>
void for_each_golden(F&& f) {
  f("LoadInquiry", load_inquiry(), kLoadInquiryHex);
  f("LoadReply", load_reply(), kLoadReplyHex);
  f("ServiceRequest", service_request(), kServiceRequestHex);
  f("ServiceResponse", service_response(), kServiceResponseHex);
  f("Acquire", acquire(), kAcquireHex);
  f("AcquireReply", acquire_reply(), kAcquireReplyHex);
  f("Release", release(), kReleaseHex);
  f("Publish", publish(), kPublishHex);
  f("SnapshotRequest", snapshot_request(), kSnapshotRequestHex);
  f("SnapshotReply", snapshot_reply(), kSnapshotReplyHex);
  f("LoadAnnounce", load_announce(), kLoadAnnounceHex);
  f("Subscribe", subscribe(), kSubscribeHex);
  f("StatsInquiry", stats_inquiry(), kStatsInquiryHex);
  f("StatsReply", stats_reply(), kStatsReplyHex);
  f("TraceInquiry", trace_inquiry(), kTraceInquiryHex);
  f("TraceReply", trace_reply(), kTraceReplyHex);
  f("VoteRequest", vote_request(), kVoteRequestHex);
  f("VoteReply", vote_reply(), kVoteReplyHex);
  f("Heartbeat", heartbeat(), kHeartbeatHex);
  f("HeartbeatAck", heartbeat_ack(), kHeartbeatAckHex);
  f("Redirect", redirect(), kRedirectHex);
  f("DecisionInquiry", decision_inquiry(), kDecisionInquiryHex);
  f("DecisionReply", decision_reply(), kDecisionReplyHex);
  f("RpcRequest", rpc_request(), kRpcRequestHex);
  f("RpcResponse", rpc_response(), kRpcResponseHex);
}

}  // namespace finelb::golden
