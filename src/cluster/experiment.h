// Prototype experiment orchestration (paper §4).
//
// Assembles the full Figure 5 system on one host: N server nodes, an
// optional availability directory the servers publish into, an optional
// centralized load-index manager (IDEAL only), and C client nodes each
// running on its own thread. Returns merged client statistics plus server
// counters — the measurements behind Figure 6 and Table 2.
//
// Load calibration: the paper defines 100% load empirically (98% of
// single-server requests completing within 2 s) because real overheads make
// the analytic rho optimistic. We fold those overheads into an effective
// per-request cost (mean service time + per_request_overhead) and size the
// aggregate arrival rate as  servers * load / effective_service_time.
// `calibrate_overhead()` measures the overhead with a short single-server
// probe, mirroring the spirit of the paper's calibration without its
// multi-minute search.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/client_node.h"
#include "cluster/server_node.h"
#include "core/policy.h"
#include "fault/fault.h"
#include "telemetry/decision.h"
#include "telemetry/merge.h"
#include "workload/workload.h"

namespace finelb::cluster {

/// Fault-tolerance extension: stop server `server` once `after` of the
/// measurement has elapsed (restart is not modelled in the prototype; the
/// server simply goes silent, as a crashed node would).
struct ServerKill {
  int server = 0;
  SimDuration after = 0;
};

struct PrototypeConfig {
  int servers = 16;
  int clients = 6;
  PolicyConfig policy;
  /// Target per-server load in (0, 1).
  double load = 0.9;
  /// Total accesses across all clients.
  std::int64_t total_requests = 20'000;
  /// Leading accesses per client excluded from statistics.
  std::int64_t warmup_fraction_percent = 10;
  int worker_threads_per_server = 1;
  /// Run service availability through a directory (publish/subscribe) as in
  /// the paper, instead of wiring endpoints statically.
  bool use_directory = true;
  /// Busy-reply delay injection at the load-index servers (DESIGN.md §3,
  /// server_node.h for the model). Values here override ServerOptions
  /// defaults; busy_slow_prob = 0 keeps only the short stack tail.
  bool inject_busy_reply_delay = true;
  double busy_reply_alpha = 1.3;
  SimDuration busy_reply_xm = from_us(80);
  double busy_slow_prob = 0.05;
  /// Per-request overhead (seconds) folded into load calibration; covers
  /// messaging, context switches, and client bookkeeping.
  double per_request_overhead_sec = 400e-6;
  SimDuration response_timeout = 2 * kSecond;

  // --- fault tolerance (all off by default; seed behavior unchanged) -------

  /// Datagram-level fault spec applied at every node's sockets. Each node
  /// gets its own injector with a seed derived from fault.seed and the node
  /// index, so the whole fault schedule reproduces for a fixed config.
  fault::FaultSpec fault;
  /// Servers to kill mid-run (see ServerKill).
  std::vector<ServerKill> kills;
  /// Soft-state publishing cadence on the availability directory. A short
  /// ttl makes a killed server's entry expire quickly (paper §3.1).
  SimDuration publish_interval = kSecond / 4;
  SimDuration publish_ttl = 2 * kSecond;
  /// Replicated control plane (DESIGN.md §12): when > 1, the availability
  /// directory becomes an HaDirectoryCluster of this many replicas with a
  /// leader-elected serving path. Servers publish to every replica; clients
  /// carry the whole replica set and fail over / follow redirects. 1 keeps
  /// the classic single DirectoryServer.
  int directory_replicas = 1;
  /// Kill the directory *leader* (whoever holds the lease at that instant)
  /// once each offset of the measurement has elapsed. Requires
  /// directory_replicas > 1; each kill stops one replica thread for good.
  std::vector<SimDuration> directory_leader_kills;
  /// Election timing for the replicated directory (ha/election.h). The
  /// defaults mirror HaReplicaConfig; tests shrink them for fast failover.
  SimDuration ha_heartbeat_interval = 25 * kMillisecond;
  SimDuration ha_election_timeout_min = 100 * kMillisecond;
  SimDuration ha_election_timeout_max = 200 * kMillisecond;
  SimDuration ha_leader_lease = 75 * kMillisecond;
  /// Client hardening knobs, passed through to ClientOptions (0 = off).
  SimDuration client_mapping_refresh = 0;
  SimDuration blacklist_cooldown = 0;
  int blacklist_after = 1;
  SimDuration timeline_bucket = 0;
  int max_access_retries = 0;

  // --- observability (all off by default) ----------------------------------

  /// Every Nth request leaves lifecycle records in its node's trace ring
  /// (servers key on request id, clients on access index); 0 = off.
  std::uint32_t trace_sample_period = 0;
  /// Collect every node's final JSON stats document into
  /// PrototypeResult::node_stats_json after the run.
  bool collect_node_stats = false;
  /// After the run (servers still live), pull every server's trace ring
  /// over the wire (TRACE_INQUIRY, clock-synced from the scrape round
  /// trips) plus each client's ring in-process, align the clocks, and fill
  /// PrototypeResult::node_traces and ::staleness. Requires
  /// trace_sample_period > 0 to produce anything.
  bool collect_traces = false;
  /// Decision observatory: every Nth access's dispatch decision lands in
  /// its client's decision ring (see ClientOptions::decision_sample_period);
  /// 0 = off.
  std::uint32_t decision_sample_period = 0;
  /// After the run, snapshot every client's decision ring (in-process, like
  /// client trace rings) and join the records with the merged timeline into
  /// PrototypeResult::decision_quality. Needs decision_sample_period > 0;
  /// the regret join additionally needs collect_traces (a decision's
  /// realized queue depth comes from its kResponse trace record).
  bool collect_decisions = false;

  std::uint64_t seed = 1;
};

struct PrototypeResult {
  ClientStats clients;
  ServerCounters servers;
  /// Effective offered per-server load after overhead adjustment.
  double offered_load = 0.0;
  /// Wall-clock duration of the measurement (seconds).
  double wall_sec = 0.0;
  /// Aggregate completed-request throughput (1/s).
  double throughput = 0.0;
  /// Injected-fault totals summed over every node's injector (all zero
  /// when PrototypeConfig::fault is empty).
  fault::FaultCounters faults;
  /// Servers actually stopped by the kill schedule.
  int servers_killed = 0;
  /// Directory leaders actually stopped by directory_leader_kills.
  int directory_leaders_killed = 0;
  /// Leadership gains across all directory replicas (counted from their
  /// kLeaderElected trace instants); >= 1 whenever directory_replicas > 1.
  std::int64_t directory_elections = 0;
  /// Worst leaderless window following a directory leader kill: kill
  /// instant -> the next kLeaderElected instant on any surviving replica
  /// (same in-process CLOCK_MONOTONIC, so the subtraction is exact).
  /// 0 when no leader kills were scheduled.
  SimDuration directory_failover_window = 0;
  /// Per-node exporter documents (servers then clients), populated when
  /// PrototypeConfig::collect_node_stats is set. Merge with
  /// telemetry::cluster_to_json for one cluster-wide document.
  std::vector<std::string> node_stats_json;
  /// Clock-aligned per-node traces (servers then clients; offsets already
  /// estimated), populated when PrototypeConfig::collect_traces is set.
  /// Feed to telemetry::merge_traces for the cluster timeline.
  std::vector<telemetry::NodeTrace> node_traces;
  /// Staleness observatory over the merged timeline: the live analogue of
  /// the paper's Figure 2, |Q(t_reply) - Q(t_dispatch)| per traced request
  /// (empty when collect_traces is off or nothing was sampled).
  telemetry::StalenessSummary staleness;
  /// Servers whose trace ring could not be scraped (UDP inquiry timed out).
  int trace_scrape_failures = 0;
  /// Audited decision records collected from the client rings.
  std::int64_t decision_records = 0;
  /// Trace-reconstructed decision quality (measured mistake rate / regret,
  /// the prototype analogue of the simulator's exact accounting — see
  /// telemetry::reconstruct_decision_quality). Zero-valued when
  /// collect_decisions is off or nothing joined.
  telemetry::DecisionQualitySummary decision_quality;
};

/// Runs one full prototype experiment; blocking.
PrototypeResult run_prototype(const PrototypeConfig& config,
                              const Workload& workload);

/// Measures the per-request overhead on this host with a single-server,
/// single-client random-policy probe at low load: overhead = mean measured
/// response - mean service demand. Used to refine
/// PrototypeConfig::per_request_overhead_sec.
double calibrate_overhead(const Workload& workload, std::int64_t requests = 500,
                          std::uint64_t seed = 1);

}  // namespace finelb::cluster
