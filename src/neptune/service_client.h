// Neptune service client: the client-side stub for accessing a replicated,
// partitioned service (paper §3.1).
//
// "Conceptually, for each service access, the client first acquires the set
// of available server nodes through a service availability subsystem. Then
// it chooses one node from the available set through a load balancing
// subsystem before sending the service request."
//
// This class packages those two steps behind one synchronous call():
//   * availability — a service mapping table (partition -> live replicas)
//     refreshed from the directory on an interval and on demand when a
//     partition looks empty or an access times out;
//   * load balancing — a core::PolicyConfig: random, round-robin, or
//     random polling over the partition's replicas (with optional discard
//     of slow polls), run by a core::Dispatcher, the state machine the
//     simulator and the prototype client drive too. Each call feeds it one
//     arrival, then blocks on the poll round it asks for (one unconnected
//     socket, one sendmmsg, replies matched by source address and seq).
// Failed accesses are retried against a fresh replica choice, which is how
// the flat architecture "operates smoothly in the presence of transient
// failures".
//
// Thread-compatibility: one ServiceClient per thread; instances share
// nothing.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cluster/directory.h"
#include "common/rng.h"
#include "core/dispatcher.h"
#include "core/policy.h"
#include "net/poller.h"
#include "net/socket.h"
#include "neptune/rpc.h"

namespace finelb::neptune {

struct ServiceClientOptions {
  std::string service_name;
  net::Address directory;
  PolicyConfig policy = PolicyConfig::polling(2);
  /// Wait per RPC attempt before retrying elsewhere.
  SimDuration rpc_timeout = 500 * kMillisecond;
  int max_attempts = 3;
  /// Mapping table refresh interval (soft-state re-pull).
  SimDuration mapping_refresh = kSecond;
  /// Poll-reply wait when the discard optimization is off.
  SimDuration max_poll_wait = 20 * kMillisecond;
  /// A replica whose RPC timed out is excluded from replica choice for
  /// this long (0 disables), so retries and subsequent calls steer around
  /// a dead node until the directory's soft state expires it.
  SimDuration blacklist_cooldown = kSecond;
  std::uint64_t seed = 1;
};

struct CallResult {
  RpcStatus status = RpcStatus::kAppError;
  bool transport_ok = false;  // false: no replica answered in time
  std::vector<std::uint8_t> data;
  ServerId server = kInvalidServer;
  /// Decision + transport + service latency of the successful attempt.
  SimDuration latency = 0;
};

struct ServiceClientStats {
  std::int64_t calls = 0;
  std::int64_t retries = 0;
  std::int64_t transport_failures = 0;
  std::int64_t polls_sent = 0;
  std::int64_t mapping_refreshes = 0;
  /// Directory fetches that timed out; the stale table is kept and the next
  /// refresh is delayed by an exponentially backed-off, jittered interval.
  std::int64_t refresh_failures = 0;
  std::int64_t blacklist_insertions = 0;
  std::int64_t blacklist_hits = 0;  // replicas excluded by cooldown
};

class ServiceClient {
 public:
  explicit ServiceClient(ServiceClientOptions options);

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Invokes `method` on `partition` with `args`; blocks until a response
  /// arrives or every attempt times out (transport_ok = false).
  CallResult call(std::uint16_t method, std::uint32_t partition,
                  std::span<const std::uint8_t> args);

  /// Live replica count for a partition (forces a table refresh if stale).
  std::size_t replicas(std::uint32_t partition);

  const ServiceClientStats& stats() const { return stats_; }

 private:
  void refresh_mapping(bool force);
  /// Dense index of `endpoint` in endpoints_, added (or its addresses
  /// updated) as needed.
  ServerId endpoint_index(const cluster::ServiceEndpoint& endpoint);
  /// Chooses the endpoint for one attempt among `group` (endpoint indices)
  /// per the configured policy; polls when the policy says so.
  ServerId choose(const std::vector<ServerId>& group, int attempt);
  /// Runs the poll round `action` asks for; returns its decision's target.
  ServerId poll(const core::Action& action);

  ServiceClientOptions options_;
  cluster::DirectoryClient directory_;
  /// Every endpoint the directory has listed, by dense index: the
  /// dispatcher's endpoint ids (published server ids may be sparse).
  std::vector<cluster::ServiceEndpoint> endpoints_;
  std::map<std::uint32_t, std::vector<ServerId>> mapping_;  // -> endpoints_
  core::Dispatcher dispatcher_;
  Rng jitter_rng_;  // refresh backoff and empty-partition pauses
  net::UdpSocket rpc_socket_;
  net::UdpSocket poll_socket_;  // unconnected; inquiries to every replica
  SimTime mapping_fetched_at_ = 0;
  std::uint64_t next_id_ = 1;
  SimTime refresh_backoff_until_ = 0;
  SimDuration refresh_backoff_ = 0;

  // Reused across calls so the steady-state RPC path stays off the
  // allocator: pollers keep their registration arrays, the batches their
  // buffers, and request_scratch_.args keeps the arg buffer.
  net::Poller rpc_poller_;   // watches rpc_socket_ only
  net::Poller poll_poller_;  // watches poll_socket_ only
  net::DatagramBatch poll_send_batch_;  // one round's inquiries
  net::DatagramBatch recv_batch_{32, 256};
  RpcRequest request_scratch_;

  ServiceClientStats stats_;
};

}  // namespace finelb::neptune
