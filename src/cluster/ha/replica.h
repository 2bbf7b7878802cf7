// Replicated directory node: DirectoryTable + ElectionCore behind sockets.
//
// Each HaDirectoryReplica runs one thread multiplexing two UDP sockets:
//   * data socket — the ordinary directory protocol (Publish in,
//     SnapshotReply out), plus Redirect replies when this replica is not
//     the lease-holding leader;
//   * control socket — the term-carrying election traffic (VoteRequest /
//     VoteReply / Heartbeat / HeartbeatAck) feeding the pure ElectionCore.
// Servers publish to *every* replica's data address, so each replica's
// soft-state table converges independently within one refresh interval —
// that is what lets failover skip log replication entirely (DESIGN.md §12).
//
// Both sockets take independent FaultInjector hooks so loss/delay/partition
// schedules can hit elections and the data plane separately.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/directory.h"
#include "cluster/ha/election.h"
#include "common/time.h"
#include "fault/fault.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/waker.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace finelb::cluster::ha {

struct HaReplicaConfig {
  std::int32_t id = 0;
  std::int32_t cluster_size = 1;
  SimDuration heartbeat_interval = 25 * kMillisecond;
  SimDuration election_timeout_min = 100 * kMillisecond;
  SimDuration election_timeout_max = 200 * kMillisecond;
  SimDuration leader_lease = 75 * kMillisecond;
  std::uint64_t seed = 1;
  /// Trace-ring knobs for the kLeaderElected instants the observatory
  /// scrapes; capacity 0 disables the ring.
  std::size_t trace_capacity = 64;
};

class HaDirectoryReplica {
 public:
  explicit HaDirectoryReplica(const HaReplicaConfig& config);
  ~HaDirectoryReplica();

  HaDirectoryReplica(const HaDirectoryReplica&) = delete;
  HaDirectoryReplica& operator=(const HaDirectoryReplica&) = delete;

  net::Address data_address() const { return data_socket_.local_address(); }
  net::Address control_address() const {
    return control_socket_.local_address();
  }

  /// Wires the full replica set (own entry included, indexed by id). Must
  /// be called before start().
  void connect_peers(std::vector<net::Address> control_addrs,
                     std::vector<net::Address> data_addrs);

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Loss/dup/delay on the election traffic only. Must be called before
  /// start(): the socket's injector slot is read unsynchronized by the
  /// replica thread (checked — attaching to a running replica aborts).
  void attach_control_fault_injector(
      std::shared_ptr<fault::FaultInjector> injector);
  /// Loss/dup/delay on publishes and snapshot requests only. Same
  /// before-start() rule as attach_control_fault_injector.
  void attach_data_fault_injector(
      std::shared_ptr<fault::FaultInjector> injector);

  // Cross-thread views, mirrored from the replica thread after every
  // election event.
  Role role() const { return static_cast<Role>(role_.load()); }
  std::uint64_t term() const { return term_.load(); }
  std::int32_t leader() const { return leader_.load(); }
  std::int32_t id() const { return config_.id; }

  std::int64_t publishes_received() const {
    return table_.publishes_received();
  }

  telemetry::Registry& registry() { return registry_; }
  const telemetry::TraceRing& trace_ring() const { return trace_; }

 private:
  void run_loop();
  void handle_data(std::span<const std::uint8_t> data,
                   const net::Address& from, SimTime now);
  void handle_control(std::span<const std::uint8_t> data, SimTime now);
  void perform_actions(const std::vector<Action>& actions);
  void send_control(std::int32_t to, const PeerMessage& msg);
  /// Publishes the election state to the atomic mirrors and records
  /// counters / trace instants on transitions.
  void mirror_election_state(SimTime now);

  HaReplicaConfig config_;
  net::UdpSocket data_socket_;
  net::UdpSocket control_socket_;
  std::vector<net::Address> control_addrs_;
  std::vector<net::Address> data_addrs_;
  ElectionCore election_;
  DirectoryTable table_;
  net::Waker waker_;  // stop() ends the loop's wait at once
  std::atomic<bool> running_{false};
  std::thread thread_;

  std::atomic<int> role_{static_cast<int>(Role::kFollower)};
  std::atomic<std::uint64_t> term_{0};
  std::atomic<std::int32_t> leader_{-1};
  Role last_role_ = Role::kFollower;

  telemetry::Registry registry_;
  telemetry::TraceRing trace_;
  telemetry::Counter elections_started_;
  telemetry::Counter leadership_gains_;
  telemetry::Counter heartbeats_sent_;
  telemetry::Counter snapshots_served_;
  telemetry::Counter redirects_sent_;
  telemetry::Gauge term_gauge_;
  telemetry::Gauge is_leader_;
  std::int64_t last_elections_started_ = 0;

  std::vector<Action> actions_scratch_;
};

/// Per-replica FaultInjector factories, invoked with the replica id before
/// its thread starts. Injectors cannot be attached after start() (the
/// socket slot is read unsynchronized by the replica thread), so fault
/// schedules for a whole cluster are supplied here instead.
struct HaClusterFaults {
  std::function<std::shared_ptr<fault::FaultInjector>(std::int32_t)> control;
  std::function<std::shared_ptr<fault::FaultInjector>(std::int32_t)> data;
};

/// Convenience owner of a full replica set sharing derived seeds; used by
/// tests, the experiment harness, and the benches.
class HaDirectoryCluster {
 public:
  HaDirectoryCluster(std::int32_t replicas, const HaReplicaConfig& base,
                     const HaClusterFaults& faults = {});
  ~HaDirectoryCluster();

  HaDirectoryCluster(const HaDirectoryCluster&) = delete;
  HaDirectoryCluster& operator=(const HaDirectoryCluster&) = delete;

  std::int32_t size() const {
    return static_cast<std::int32_t>(replicas_.size());
  }
  HaDirectoryReplica& replica(std::int32_t i) {
    return *replicas_[static_cast<std::size_t>(i)];
  }
  std::vector<net::Address> data_addresses() const;

  /// Index of the current leader as self-reported, or -1 mid-election.
  std::int32_t leader_index() const;
  /// Blocks until some running replica claims leadership; returns its
  /// index, or -1 on timeout.
  std::int32_t wait_for_leader(SimDuration timeout = 5 * kSecond) const;
  /// Stops the current leader's thread (directed kill for failover runs);
  /// returns the killed index, or -1 if there was no leader to kill.
  std::int32_t kill_leader();

 private:
  std::vector<std::unique_ptr<HaDirectoryReplica>> replicas_;
};

}  // namespace finelb::cluster::ha
