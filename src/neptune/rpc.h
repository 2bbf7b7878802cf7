// Neptune-style RPC messages (paper §3.1).
//
// "Neptune encapsulates an application-level network service through a
// service access interface which contains several RPC-like access methods.
// Each service access through one of these methods can be fulfilled
// exclusively on one data partition."
//
// An RpcRequest names a method (small integer chosen by the service),
// the data partition the access is bound to, and an opaque argument blob;
// the RpcResponse carries a status, the result blob, and the queue length
// observed on arrival (the same diagnostic the load-balancing experiments
// use). Transport is a UDP datagram per message, like the rest of the
// prototype; payloads must fit one datagram (~60 KiB ceiling, checked).
#pragma once

#include <cstdint>
#include <vector>

#include "net/codec.h"

namespace finelb::neptune {

enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kNoSuchMethod = 1,
  kNoSuchPartition = 2,
  kAppError = 3,
};

/// Message type tags; disjoint from net::MsgType so a service socket can
/// never confuse an experiment datagram with an RPC.
constexpr std::uint8_t kRpcRequestTag = 21;
constexpr std::uint8_t kRpcResponseTag = 22;

/// Largest args/result blob an RPC may carry: well under the 64 KiB UDP
/// datagram ceiling, leaving header room. encode_into() refuses (returns 0)
/// and try_decode() rejects anything larger.
constexpr std::size_t kMaxRpcPayload = 60 * 1024;

struct RpcRequest : net::Message<RpcRequest> {
  static constexpr std::uint8_t kType = kRpcRequestTag;
  std::uint64_t request_id = 0;
  std::uint16_t method = 0;
  std::uint32_t partition = 0;
  std::vector<std::uint8_t> args;

  template <class Self, class V>
  static void fields(Self& m, V& v) {
    v(m.request_id, m.method, m.partition, m.args);
  }
  bool valid() const { return args.size() <= kMaxRpcPayload; }
};

struct RpcResponse : net::Message<RpcResponse> {
  static constexpr std::uint8_t kType = kRpcResponseTag;
  std::uint64_t request_id = 0;
  RpcStatus status = RpcStatus::kOk;
  std::int32_t server = 0;
  std::int32_t queue_at_arrival = 0;
  std::vector<std::uint8_t> result;

  template <class Self, class V>
  static void fields(Self& m, V& v) {
    v(m.request_id, m.status, m.server, m.queue_at_arrival, m.result);
  }
  bool valid() const {
    return status <= RpcStatus::kAppError && result.size() <= kMaxRpcPayload;
  }
};

}  // namespace finelb::neptune
