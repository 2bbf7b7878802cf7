// Prototype client node (paper §3.1, Figure 5 left half).
//
// A client node drives an open-loop request stream against the server set.
// It is a single-threaded event loop multiplexed with ppoll(2), mirroring
// the paper's polling agent, which "sends out load inquiry requests ...
// through connected UDP sockets and asynchronously collects the responses
// using select":
//
//   * one unconnected UDP socket for load inquiries to every server. A
//     round's inquiries leave in one sendmmsg; each reply is mapped back to
//     its endpoint by source address, and replies from any other address
//     are dropped — the filtering a connected socket per server would do
//     in the kernel, without holding one fd per server;
//   * one UDP socket for service requests/responses;
//   * one connected UDP socket to the centralized load-index manager (used
//     only when emulating IDEAL).
//
// Arrivals are paced by absolute deadlines accumulated from the workload's
// inter-arrival intervals, so the stream is open: a slow access never
// throttles subsequent arrivals (queueing happens at the servers, as in the
// paper, not in the client).
//
// Policy execution lives in a core::Dispatcher (core/dispatcher.h), the
// same state machine the simulator drives: this node feeds it arrivals,
// poll replies, round deadlines, broadcast announcements and response
// outcomes, and carries out what it returns — dispatch now, send a round's
// inquiries, or Acquire from the IDEAL manager (dispatch to its answer,
// Release on completion). The node keeps the I/O: the ppoll loop, sockets,
// tracing, metrics, outstanding accesses and the manager exchange.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/directory.h"
#include "common/rng.h"
#include "core/dispatcher.h"
#include "core/policy.h"
#include "fault/fault.h"
#include "net/poller.h"
#include "net/socket.h"
#include "stats/accumulator.h"
#include "stats/histogram.h"
#include "telemetry/decision.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/workload.h"

namespace finelb::cluster {

struct ServerEndpoints {
  ServerId id = 0;
  net::Address service_addr;
  net::Address load_addr;
};

struct ClientOptions {
  int id = 0;
  PolicyConfig policy;
  std::vector<ServerEndpoints> servers;
  std::optional<net::Address> ideal_manager;
  /// Broadcast channel address; required by the broadcast policy
  /// (prototype extension — see cluster/broadcast_channel.h).
  std::optional<net::Address> broadcast_channel;
  /// Accesses this client issues (its share of the experiment total).
  std::int64_t total_requests = 1000;
  /// Leading accesses excluded from statistics.
  std::int64_t warmup_requests = 100;
  /// Backstop wait for poll replies when the discard optimization is off
  /// (UDP can drop; the basic policy would otherwise wait forever).
  SimDuration max_poll_wait = 50 * kMillisecond;
  /// Wait for the IDEAL manager before falling back to a random server.
  SimDuration manager_timeout = 50 * kMillisecond;
  /// An access not answered within this bound counts as failed — the same
  /// 2-second criterion the paper's load calibration uses (§4).
  SimDuration response_timeout = 2 * kSecond;

  // --- failure hardening (all off by default; seed behavior unchanged) -----

  /// Fault injector attached to every socket this client owns (loss/dup/
  /// delay per fault/fault.h). Null = no injection.
  std::shared_ptr<fault::FaultInjector> fault;
  /// A server whose access times out is excluded from candidate sets for
  /// this long (0 disables). Keeps poll rounds and requests away from dead
  /// nodes while the directory's soft-state TTL catches up.
  SimDuration blacklist_cooldown = 0;
  /// Consecutive response timeouts from one server before it is
  /// blacklisted. 1 = first strike. Under ambient message loss a single
  /// timeout is weak evidence (a dead server fails every access, a lossy
  /// link only a fraction), so raising this keeps the blacklist from
  /// thrashing on healthy servers.
  int blacklist_after = 1;
  /// When set, the client re-fetches the service mapping from this
  /// directory every `mapping_refresh`, and marks endpoints missing from
  /// the snapshot unavailable — how a killed server's expired entry makes
  /// subsequent polls route around it mid-run.
  std::optional<net::Address> directory;
  /// Replicated-directory form: every replica's data address. Takes
  /// precedence over `directory` when non-empty; the client fails over
  /// between replicas and follows leader redirects (cluster/ha/).
  std::vector<net::Address> directory_replicas;
  std::string directory_service;
  SimDuration mapping_refresh = 0;
  /// Bucket width for the per-client completion/failure timeline used by
  /// the fault-tolerance bench to measure recovery (0 disables).
  SimDuration timeline_bucket = 0;
  /// A timed-out access is re-dispatched (to a fresh candidate, after the
  /// failing server is blacklisted) up to this many times before counting
  /// as failed. 0 = fail on first timeout, the paper's behavior.
  int max_access_retries = 0;

  /// Lifecycle tracing: every Nth access (by access index) leaves its full
  /// enqueue → poll → pick → dispatch → response path in the client's trace
  /// ring; 0 = off. Records are keyed by the globally unique request id
  /// (client id << 40 | access index) and the same id travels on the wire
  /// as `trace_id`, so server-side records of the same request merge with
  /// these (telemetry/merge.h). Discarded poll replies are traced under the
  /// echoed trace id when present, else by inquiry sequence.
  std::uint32_t trace_sample_period = 0;
  std::size_t trace_capacity = 256;

  /// Decision auditing: every Nth access's dispatch decision (the polled
  /// server set with reported loads and report ages, the chosen server, the
  /// blind-fallback/blacklist flags) lands in the client's decision ring;
  /// 0 = off. Records are keyed by the same request id as traces, so the
  /// post-run join (telemetry::reconstruct_decision_quality) can look up
  /// what actually happened to each audited decision. Use 1 to audit every
  /// decision, or trace_sample_period so audits cover the traced subset.
  std::uint32_t decision_sample_period = 0;
  std::size_t decision_capacity = 256;

  std::uint64_t seed = 1;
};

struct ClientStats {
  Accumulator response_ms;
  LatencyHistogram response_hist_ms;
  /// Time from access start to dispatch (load-information acquisition).
  Accumulator poll_time_ms;
  /// Round-trip time of individual poll replies (drives the §3.2 profile).
  LatencyHistogram poll_rtt_ms;
  /// Server queue length seen by dispatched requests on arrival.
  Accumulator queue_at_arrival;

  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::int64_t recorded = 0;
  std::int64_t polls_sent = 0;
  std::int64_t poll_replies_used = 0;
  std::int64_t polls_discarded = 0;  // replies after the round was decided
  std::int64_t polls_timed_out = 0;  // rounds decided by deadline
  std::int64_t manager_timeouts = 0;
  std::int64_t response_timeouts = 0;
  std::int64_t send_failures = 0;
  std::int64_t broadcasts_received = 0;

  // Failure-hardening counters (see ClientOptions).
  std::int64_t fallback_dispatches = 0;  // poll rounds decided blind
  std::int64_t access_retries = 0;       // timed-out accesses re-dispatched
  std::int64_t blacklist_insertions = 0;
  std::int64_t blacklist_hits = 0;  // candidates excluded by cooldown
  std::int64_t mapping_refreshes = 0;
  std::int64_t refresh_failures = 0;
  std::int64_t snapshot_retries = 0;  // directory retransmits (backoff)
  std::int64_t directory_failovers = 0;   // replica rotations on timeout
  std::int64_t directory_redirects = 0;   // leader redirects followed

  /// Completion/failure counts per timeline bucket (ClientOptions::
  /// timeline_bucket); empty when disabled.
  struct TimelineBucket {
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    double sum_response_ms = 0.0;
  };
  std::vector<TimelineBucket> timeline;

  void merge(const ClientStats& other);
};

class ClientNode {
 public:
  ClientNode(ClientOptions options, std::unique_ptr<RequestSource> source);

  ClientNode(const ClientNode&) = delete;
  ClientNode& operator=(const ClientNode&) = delete;

  /// Runs the full request stream to completion; blocking (call from a
  /// dedicated thread in multi-client experiments).
  void run();

  const ClientStats& stats() const { return stats_; }

  /// Telemetry registry (metric naming: DESIGN.md §10). ClientStats stays
  /// the authoritative experiment record; the registry mirrors the headline
  /// counters/latencies in exporter form. Safe to scrape from another
  /// thread while run() is live (every cell and probe reads atomics).
  const telemetry::Registry& metrics() const { return metrics_; }
  const telemetry::TraceRing& trace() const { return trace_; }
  const telemetry::DecisionRing& decisions() const { return decision_ring_; }

  /// Where the service socket listens. DECISION_INQUIRY datagrams sent here
  /// are answered (chunked) while run() is live — decisions happen at
  /// clients, so the client's service socket doubles as its scrape
  /// endpoint, the way a server's load socket serves STATS/TRACE pulls.
  net::Address decision_scrape_addr() const {
    return service_socket_.local_address();
  }

  /// The node's snapshot (+ sampled trace) as JSON.
  std::string stats_json() const;

 private:
  // Manager rounds and outstanding accesses live in flat unordered vectors
  // (swap-remove on completion) instead of std::map: the active sets are
  // small (bounded by in-flight accesses), deadline scans are O(n) either
  // way, and flat storage keeps the steady state allocation-free. Each
  // record carries its own key.

  struct ManagerRound {
    std::uint64_t seq = 0;  // acquire sequence (lookup key)
    core::Access access;
    SimTime deadline = 0;
  };

  struct Outstanding {
    std::uint64_t request_id = 0;  // lookup key
    core::Access access;
    std::size_t server_index = 0;
    SimTime deadline = 0;
    /// True when the IDEAL manager granted this slot; only such accesses
    /// send a Release (fallback-dispatched ones never incremented).
    bool manager_acquired = false;
  };

  void begin_access(const core::Access& access);
  void send_polls(const core::Action& action);
  void ask_manager(const core::Access& access);
  void finish_poll_round(const core::Decision& decision, SimTime now);
  /// The one path for accesses whose target took load information to pick
  /// (a poll round or the IDEAL manager): records the acquisition time,
  /// then dispatches.
  void dispatch_decided(const core::Access& access, std::size_t server_index,
                        bool manager_acquired, SimTime now);
  void dispatch(const core::Access& access, std::size_t server_index,
                bool manager_acquired = false);
  /// Tells the IDEAL manager that an access it counted against `server`
  /// is over.
  void release_manager_slot(ServerId server);
  void drain_service_socket();
  void drain_manager_socket();
  void drain_broadcast_socket();
  void drain_poll_socket();
  /// Endpoint index whose load address is `from`, or servers.size() when
  /// the address belongs to no endpoint.
  std::size_t endpoint_of(const net::Address& from) const;
  /// Endpoint index of server `id`, or servers.size() when unknown.
  std::size_t index_of(ServerId id) const;
  void fire_deadlines(SimTime now);
  /// Earliest of `next_arrival` and every pending deadline (kNoDeadline:
  /// nothing pending).
  SimTime next_deadline(SimTime next_arrival) const;
  bool should_record(const core::Access& access) const {
    return access.index >= options_.warmup_requests;
  }
  /// Globally unique request id for an access — the trace key shared by
  /// client- and server-side records of the same request.
  std::uint64_t request_key(std::int64_t index) const {
    return (static_cast<std::uint64_t>(options_.id) << 40) |
           static_cast<std::uint64_t>(index);
  }
  void refresh_mapping(SimTime now);
  /// Mirrors the dispatcher's blacklist counters into stats_ and metrics_.
  void sync_blacklist_counters();
  void record_outcome(SimTime now, bool completed, double response_ms);

  ClientOptions options_;
  std::unique_ptr<RequestSource> source_;
  /// Endpoints are indices into options_.servers.
  core::Dispatcher dispatcher_;
  Rng refresh_rng_;  // mapping-refresh jitter

  net::UdpSocket service_socket_;
  net::UdpSocket poll_socket_;  // unconnected; inquiries to every server
  net::DatagramBatch poll_send_batch_;  // one round's inquiries
  // Reused across every drain_* call: responses and poll replies arrive in
  // bursts, and one recvmmsg per burst beats one recvfrom per datagram.
  net::DatagramBatch recv_batch_{32, 256};
  std::unique_ptr<net::UdpSocket> manager_socket_;
  std::unique_ptr<net::UdpSocket> broadcast_socket_;
  SimTime subscribe_refresh_at_ = 0;
  net::Poller poller_;

  std::vector<ManagerRound> manager_rounds_;  // active, unordered
  std::vector<Outstanding> outstanding_;      // active, unordered
  std::uint64_t next_manager_seq_ = 1;
  std::int64_t resolved_ = 0;

  // Failure hardening (see ClientOptions).
  std::unique_ptr<DirectoryClient> directory_client_;
  std::vector<ServerId> live_scratch_;  // endpoints a snapshot lists
  SimTime next_mapping_refresh_ = 0;
  SimDuration mapping_refresh_interval_ = 0;  // backs off on failure
  SimTime run_started_at_ = 0;

  ClientStats stats_;

  // Telemetry mirrors (handles into metrics_, created once in the
  // constructor; recording is lock- and allocation-free).
  telemetry::Registry metrics_;
  telemetry::TraceRing trace_;
  telemetry::DecisionRing decision_ring_;
  telemetry::Counter m_issued_;
  telemetry::Counter m_completed_;
  telemetry::Counter m_polls_sent_;
  telemetry::Counter m_polls_discarded_;
  telemetry::Counter m_polls_timed_out_;
  telemetry::Counter m_fallback_dispatches_;
  telemetry::Counter m_response_timeouts_;
  telemetry::Counter m_send_failures_;
  telemetry::Counter m_blacklist_insertions_;
  telemetry::Counter m_blacklist_hits_;
  telemetry::Histogram m_poll_rtt_ms_;
  telemetry::Histogram m_response_time_ms_;
  telemetry::Histogram m_poll_time_ms_;
  /// Issued-minus-resolved accesses, kept as an atomic so the
  /// requests_in_flight probe can run from a scraping thread.
  std::atomic<std::int64_t> m_in_flight_{0};
};

}  // namespace finelb::cluster
