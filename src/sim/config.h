// Configuration and result types for the cluster simulation (paper §2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/policy.h"
#include "core/selection.h"
#include "stats/accumulator.h"
#include "stats/histogram.h"
#include "workload/workload.h"

namespace finelb::sim {

/// Network and overhead model. Defaults come straight from the paper's
/// measurements on its 100 Mb/s switched Linux cluster:
///   * request+response transit = half a TCP round trip with connection
///     setup/teardown (516 us), i.e. 129 us per message leg;
///   * a UDP poll round trip costs 290 us, i.e. 145 us per leg.
struct NetworkModel {
  /// One-way latency of a service request or response message.
  SimDuration request_oneway = from_us(129);
  /// One-way latency of a poll inquiry or poll reply.
  SimDuration poll_oneway = from_us(145);
  /// One-way latency of a broadcast announcement.
  SimDuration broadcast_oneway = from_us(145);
  /// CPU time a server spends answering one poll. The base simulation study
  /// (Figure 4) uses 0 — the paper's simulator does not charge for polls,
  /// which is exactly why its prototype (Figure 6) diverges at poll size 8.
  /// The ablation benches raise this to study that divergence.
  SimDuration poll_reply_cpu = 0;
  /// Additional per-queued-access slowdown of a poll reply: the reply is
  /// delayed by poll_reply_cpu * queue_length on a busy server, modelling
  /// the paper's §3.2 profile (busy servers answer UDP slowly).
  bool poll_reply_scales_with_queue = false;
};

/// Extension: a planned server outage. During [start, start + duration) the
/// server's processing unit is paused — an in-flight access finishes, but
/// no queued access starts until the outage ends. Arrivals keep queueing
/// and load inquiries keep being answered (with the growing queue length),
/// which is exactly what makes outages visible to load-aware policies.
struct ServerOutage {
  int server = 0;
  SimTime start = 0;
  SimDuration duration = 0;
};

/// Fault extension: a server crash. Unlike an outage, a crash is invisible
/// until probed: queued and in-flight accesses are lost (they fail at the
/// client by response timeout), load inquiries go unanswered, requests and
/// broadcasts sent to the server vanish. At `restart_at` (<= 0: never) the
/// server rejoins empty.
struct ServerCrash {
  int server = 0;
  SimTime at = 0;
  SimTime restart_at = -1;
};

/// Fault extension: message-level fault model for the simulated network.
/// Loss applies independently to every message leg (request, response, poll
/// inquiry, poll reply, broadcast delivery) from a dedicated seeded RNG
/// stream, so the schedule is reproducible for a fixed SimConfig. With the
/// model disabled (all defaults) the simulation consumes exactly the same
/// random streams as before the fault subsystem existed.
struct SimFaultModel {
  /// Per-message-leg loss probability in [0, 1).
  double msg_loss_prob = 0.0;
  /// Crash/restart schedule (see ServerCrash).
  std::vector<ServerCrash> crashes;
  /// A dispatched access unanswered for this long counts as failed — the
  /// paper's 2-second criterion (§4).
  SimDuration response_timeout = 2 * kSecond;
  /// Backstop deadline for poll rounds when the discard optimization is
  /// off: under loss, a round whose inquiries or replies all vanished must
  /// still dispatch (randomly, over the polled candidates).
  SimDuration max_poll_wait = from_ms(10);

  bool enabled() const { return msg_loss_prob > 0.0 || !crashes.empty(); }
};

struct SimConfig {
  int servers = 16;
  /// Independent client request streams (the prototype uses up to 6 client
  /// nodes; the aggregate arrival rate is split evenly across streams).
  int clients = 6;
  PolicyConfig policy;
  /// Per-server offered utilization in (0, 1).
  double load = 0.9;
  NetworkModel network;
  /// Requests generated in total (across all clients).
  std::int64_t total_requests = 200'000;
  /// Leading completions excluded from statistics (transient removal).
  std::int64_t warmup_requests = 20'000;
  /// Extension: relative server speeds (empty = homogeneous 1.0). A speed
  /// of 2.0 halves every service time executed on that server. `load` is
  /// interpreted against the *total* cluster speed.
  std::vector<double> server_speeds;
  /// Extension: planned outages (see ServerOutage).
  std::vector<ServerOutage> outages;
  /// Extension: message loss and crash/restart faults (see SimFaultModel).
  SimFaultModel faults;
  /// Decision audit sink (telemetry::DecisionRing or any DecisionSink).
  /// When set, every polling-policy dispatch decision is recorded through
  /// the core/selection.h choke point — the same records the prototype
  /// client produces. Non-owning; null disables recording. Does not affect
  /// RNG consumption, so seeded runs reproduce with or without it.
  DecisionSink* decision_sink = nullptr;
  std::uint64_t seed = 1;
};

struct SimResult {
  /// Client-observed response time in ms (poll time + transit + queueing +
  /// service), post-warmup.
  Accumulator response_ms;
  LatencyHistogram response_hist_ms;
  /// Time spent acquiring load information per request (polling only).
  Accumulator poll_time_ms;
  /// Mean measured per-server utilization (busy-time fraction).
  double utilization = 0.0;
  /// Mean queue length observed by dispatched requests on arrival.
  Accumulator queue_on_arrival;
  /// Completed accesses per server (load distribution diagnostic).
  std::vector<std::int64_t> per_server_served;
  std::int64_t polls_sent = 0;
  std::int64_t polls_discarded = 0;
  std::int64_t broadcasts_sent = 0;
  /// Accesses that never produced a client-visible response (lost request
  /// or response, or a crash ate the queued access); counted against
  /// SimFaultModel::response_timeout. Always 0 with faults disabled.
  std::int64_t failed = 0;
  /// Message legs eaten by the fault model's loss process.
  std::int64_t drops_injected = 0;
  /// Poll rounds dispatched blind (every reply lost) under the fault
  /// model's backstop deadline.
  std::int64_t poll_fallbacks = 0;
  /// Total network messages (requests + responses + polls + replies +
  /// broadcast deliveries) — the scalability discussion in §2.4.
  std::int64_t messages = 0;
  /// Engine events processed: the simulator's own cost per access. Not
  /// part of the model's output, so the seeded-output digests leave it out.
  std::int64_t events = 0;
  std::int64_t completed = 0;

  // --- decision quality (polling policy, post-warmup; exact) ---------------
  // Each dispatch decision is compared against the omniscient least-loaded
  // choice at the decision instant: regret = chosen server's true queue
  // depth minus the minimum true depth over live servers (extra queueing
  // the decision suffered); a mistake is any decision with positive regret.
  std::int64_t decisions = 0;
  std::int64_t decision_mistakes = 0;
  std::int64_t decision_blind_fallbacks = 0;
  std::int64_t decision_regret_total = 0;

  double mean_response_ms() const { return response_ms.mean(); }
  double decision_mistake_rate() const {
    return decisions > 0 ? static_cast<double>(decision_mistakes) /
                               static_cast<double>(decisions)
                         : 0.0;
  }
  double decision_mean_regret() const {
    return decisions > 0 ? static_cast<double>(decision_regret_total) /
                               static_cast<double>(decisions)
                         : 0.0;
  }
};

/// Runs one policy/workload/load configuration to completion and returns
/// aggregate statistics. Deterministic for a fixed config (including seed).
SimResult run_cluster_sim(const SimConfig& config, const Workload& workload);

}  // namespace finelb::sim
