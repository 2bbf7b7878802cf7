// Cluster simulation model (paper §2).
//
// Entities: N servers (non-preemptive processing unit + FIFO queue), C
// client streams generating requests from the workload, and per client a
// core::Dispatcher that decides the target server per request. This file is
// the dispatcher's virtual-time driver: it turns the dispatcher's actions
// into simulated message events and feeds their outcomes back in.
//
// Timing model per request (client-observed response time):
//   generated -> [policy: 0 for random/rr/ideal/broadcast, poll RTT for
//   polling] -> request transit -> FIFO queue -> service -> response
//   transit -> recorded.
#include <deque>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/dispatcher.h"
#include "sim/config.h"
#include "sim/engine.h"

namespace finelb::sim {
namespace {

/// A simulated request is the dispatcher's Access; started_at is the
/// instant the client generated it.
using Job = core::Access;

class Simulation {
 public:
  Simulation(const SimConfig& config, const Workload& workload)
      : config_(config), root_rng_(config.seed) {
    FINELB_CHECK(config.servers >= 1, "need at least one server");
    FINELB_CHECK(config.clients >= 1, "need at least one client stream");
    FINELB_CHECK(config.load > 0.0 && config.load < 1.0,
                 "load must be in (0, 1)");
    FINELB_CHECK(config.total_requests > config.warmup_requests,
                 "total_requests must exceed warmup_requests");

    FINELB_CHECK(config.server_speeds.empty() ||
                     config.server_speeds.size() ==
                         static_cast<std::size_t>(config.servers),
                 "server_speeds must be empty or one entry per server");
    servers_.resize(static_cast<std::size_t>(config.servers));
    double total_speed = 0.0;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      servers_[s].rng = root_rng_.split();
      if (!config.server_speeds.empty()) {
        FINELB_CHECK(config.server_speeds[s] > 0.0,
                     "server speeds must be positive");
        servers_[s].speed = config.server_speeds[s];
      }
      total_speed += servers_[s].speed;
    }
    for (const ServerOutage& outage : config.outages) {
      FINELB_CHECK(outage.server >= 0 && outage.server < config.servers,
                   "outage names an unknown server");
      FINELB_CHECK(outage.start >= 0 && outage.duration > 0,
                   "outage window must be non-negative and non-empty");
    }
    FINELB_CHECK(config.faults.msg_loss_prob >= 0.0 &&
                     config.faults.msg_loss_prob < 1.0,
                 "msg_loss_prob must be in [0, 1)");
    for (const ServerCrash& crash : config.faults.crashes) {
      FINELB_CHECK(crash.server >= 0 && crash.server < config.servers,
                   "crash names an unknown server");
      FINELB_CHECK(crash.at >= 0, "crash time must be non-negative");
      FINELB_CHECK(crash.restart_at <= 0 || crash.restart_at > crash.at,
                   "restart must follow the crash");
    }
    faults_enabled_ = config.faults.enabled();

    // `load` is offered against the total cluster speed, so heterogeneous
    // clusters are driven at the same aggregate utilization.
    const double scale =
        workload.arrival_scale_for_load(config.load, config.servers) *
        (static_cast<double>(config.servers) / total_speed) *
        static_cast<double>(config.clients);
    // Hardening stays off: no blacklist, no retries. Only the round
    // backstop applies, and only under faults.
    core::DispatcherConfig dispatch;
    dispatch.policy = config.policy;
    dispatch.endpoints = servers_.size();
    dispatch.max_poll_wait = faults_enabled_ ? config.faults.max_poll_wait : 0;
    clients_.reserve(static_cast<std::size_t>(config.clients));
    for (int c = 0; c < config.clients; ++c) {
      clients_.push_back(
          {workload.make_source(scale, config.seed + 101 * c),
           core::Dispatcher(dispatch, root_rng_.split())});
    }
    oracle_loads_.resize(servers_.size());
    // The fault stream splits last so that fault-free configurations draw
    // exactly the seed sequences they always did.
    if (faults_enabled_) {
      fault_rng_ = root_rng_.split();
      job_resolved_.assign(static_cast<std::size_t>(config.total_requests),
                           0);
    }
  }

  SimResult run() {
    result_.per_server_served.assign(servers_.size(), 0);
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      schedule_next_arrival(c);
    }
    if (config_.policy.kind == PolicyKind::kBroadcast) {
      for (std::size_t s = 0; s < servers_.size(); ++s) {
        schedule_broadcast(s);
      }
    }
    for (const ServerOutage& outage : config_.outages) {
      const auto target = static_cast<std::size_t>(outage.server);
      engine_.schedule_at(outage.start,
                          [this, target] { servers_[target].paused = true; });
      engine_.schedule_at(outage.start + outage.duration, [this, target] {
        servers_[target].paused = false;
        maybe_start_next(static_cast<ServerId>(target));
      });
    }
    for (const ServerCrash& crash : config_.faults.crashes) {
      const auto target = static_cast<std::size_t>(crash.server);
      engine_.schedule_at(crash.at, [this, target] { crash_server(target); });
      if (crash.restart_at > crash.at) {
        engine_.schedule_at(crash.restart_at, [this, target] {
          servers_[target].crashed = false;
        });
      }
    }
    engine_.run();
    finalize();
    return std::move(result_);
  }

 private:
  struct Server {
    std::deque<Job> waiting;
    double speed = 1.0;
    bool paused = false;
    bool busy = false;
    bool crashed = false;
    /// Bumped on every crash; a completion event from a pre-crash service
    /// is stale and must not touch the rebuilt server state.
    std::uint64_t epoch = 0;
    std::int32_t qlen = 0;       // waiting + in service
    std::int32_t committed = 0;  // qlen + dispatched-but-not-completed
    SimDuration busy_time = 0;
    Rng rng;
  };

  struct Client {
    std::unique_ptr<RequestSource> source;
    core::Dispatcher dispatcher;
  };

  // --- request generation --------------------------------------------------

  void schedule_next_arrival(std::size_t c) {
    if (generated_ >= config_.total_requests) return;
    const TraceRecord rec = clients_[c].source->next();
    ++generated_;
    const std::int64_t index = generated_ - 1;
    engine_.schedule_after(rec.arrival_interval, [this, c, index, rec] {
      Job job;
      job.index = index;
      job.started_at = engine_.now();
      job.service_time = rec.service_time;
      handle_new_request(c, job);
      schedule_next_arrival(c);
    });
  }

  void handle_new_request(std::size_t c, const Job& job) {
    core::Dispatcher& dispatcher = clients_[c].dispatcher;
    const core::Action action =
        dispatcher.arrive(job, engine_.now(), config_.decision_sink);
    switch (action.kind) {
      case core::Action::Kind::kDispatch:
        dispatch(job, action.decision.target);
        break;
      case core::Action::Kind::kAskOracle:
        // The oracle sees assigned-but-uncompleted counts, matching the
        // prototype's centralized manager which increments on assignment.
        for (std::size_t s = 0; s < servers_.size(); ++s) {
          oracle_loads_[s] = {static_cast<ServerId>(s), servers_[s].committed,
                              engine_.now()};
        }
        dispatch(job, dispatcher.oracle_pick(oracle_loads_));
        break;
      case core::Action::Kind::kPoll:
        start_poll_round(c, action);
        break;
    }
  }

  // --- random polling -------------------------------------------------------

  void start_poll_round(std::size_t c, const core::Action& action) {
    const core::RoundId round = action.round;
    result_.polls_sent += static_cast<std::int64_t>(action.targets.size());
    for (const ServerId target : action.targets) {
      ++result_.messages;  // inquiry
      if (lose_msg()) continue;  // inquiry eaten by the network
      engine_.schedule_after(config_.network.poll_oneway,
                             [this, c, round, target] {
                               answer_poll(c, round, target);
                             });
    }
    if (action.deadline != core::kNoDeadline) {
      engine_.schedule_at(action.deadline, [this, c, round] {
        if (auto decision =
                clients_[c].dispatcher.close_round(round, engine_.now())) {
          finish_poll_round(*decision);
        }
      });
    }
  }

  void answer_poll(std::size_t c, core::RoundId round, ServerId target) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    if (server.crashed) return;  // nobody home to answer
    // Reply cost: a fixed CPU charge plus an optional queue-proportional
    // term modelling slow replies from busy servers (paper §3.2 profile).
    SimDuration reply_delay = config_.network.poll_reply_cpu;
    if (config_.network.poll_reply_scales_with_queue) {
      reply_delay += config_.network.poll_reply_cpu * server.qlen;
    }
    const ServerLoad observation{target, server.qlen, engine_.now()};
    ++result_.messages;  // reply
    if (lose_msg()) return;  // reply sent, eaten in transit
    engine_.schedule_after(
        reply_delay + config_.network.poll_oneway,
        [this, c, round, observation] {
          core::Decision decision;
          const core::ReplyOutcome outcome = clients_[c].dispatcher.poll_reply(
              round, observation, engine_.now(), decision);
          if (outcome == core::ReplyOutcome::kDiscarded) {
            ++result_.polls_discarded;  // the round was already decided
          } else if (outcome == core::ReplyOutcome::kDecided) {
            finish_poll_round(decision);
          }
        });
  }

  void finish_poll_round(const core::Decision& decision) {
    // Blind: every inquiry or reply was lost and the dispatcher picked
    // randomly over the polled candidates rather than stall the access.
    if (decision.blind) ++result_.poll_fallbacks;
    const Job& job = decision.access;
    if (should_record(job)) {
      result_.poll_time_ms.add(to_ms(engine_.now() - job.started_at));
      record_decision_quality(decision.target, decision.blind);
    }
    dispatch(job, decision.target);
  }

  /// Exact regret accounting: the simulator is omniscient, so each polling
  /// decision is compared against the true least-loaded live server at the
  /// decision instant. Regret = extra queue depth the access suffered by
  /// not choosing the best server; a mistake is any positive-regret choice.
  void record_decision_quality(ServerId chosen, bool blind) {
    ++result_.decisions;
    if (blind) ++result_.decision_blind_fallbacks;
    std::int32_t best = servers_[static_cast<std::size_t>(chosen)].qlen;
    for (const Server& server : servers_) {
      if (!server.crashed && server.qlen < best) best = server.qlen;
    }
    const std::int64_t regret =
        servers_[static_cast<std::size_t>(chosen)].qlen - best;
    if (regret > 0) {
      ++result_.decision_mistakes;
      result_.decision_regret_total += regret;
    }
  }

  // --- dispatch, queueing, service ------------------------------------------

  void dispatch(const Job& job, ServerId target) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    ++result_.messages;  // request
    if (faults_enabled_) {
      // Failure detection is client-side only: whatever becomes of the
      // request, the access resolves by response or by timeout.
      engine_.schedule_after(config_.faults.response_timeout,
                             [this, index = job.index] { fail_job(index); });
      if (lose_msg()) return;  // request eaten; server never sees it
    }
    ++server.committed;
    engine_.schedule_after(config_.network.request_oneway,
                           [this, job, target] { arrive(job, target); });
  }

  void arrive(const Job& job, ServerId target) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    if (server.crashed) {
      // The datagram hits a dead port: the access is lost; the dispatch-time
      // commitment is handed back so the oracle's view stays consistent.
      --server.committed;
      return;
    }
    if (should_record(job)) {
      result_.queue_on_arrival.add(server.qlen);
    }
    ++server.qlen;
    if (server.busy || server.paused) {
      server.waiting.push_back(job);
    } else {
      begin_service(job, target);
    }
  }

  /// Starts the next waiting job if the unit is free and not paused.
  void maybe_start_next(ServerId target) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    if (server.busy || server.paused || server.waiting.empty()) return;
    const Job next = server.waiting.front();
    server.waiting.pop_front();
    begin_service(next, target);
  }

  void begin_service(const Job& job, ServerId target) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    server.busy = true;
    const auto effective = static_cast<SimDuration>(
        static_cast<double>(job.service_time) / server.speed);
    engine_.schedule_after(
        effective, [this, job, target, effective, epoch = server.epoch] {
          complete_service(job, target, effective, epoch);
        });
  }

  void complete_service(const Job& job, ServerId target, SimDuration effective,
                        std::uint64_t epoch) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    if (server.epoch != epoch) return;  // server crashed mid-service
    server.busy_time += effective;
    --server.qlen;
    --server.committed;
    server.busy = false;
    ++result_.per_server_served[static_cast<std::size_t>(target)];
    maybe_start_next(target);
    ++result_.messages;  // response
    if (lose_msg()) return;  // response eaten; client times the access out
    engine_.schedule_after(config_.network.request_oneway,
                           [this, job] { receive_response(job); });
  }

  void receive_response(const Job& job) {
    if (faults_enabled_ && !resolve_job(job.index)) {
      return;  // already failed by timeout; late response is discarded
    }
    if (should_record(job)) {
      const double rt_ms = to_ms(engine_.now() - job.started_at);
      result_.response_ms.add(rt_ms);
      result_.response_hist_ms.add(rt_ms);
    }
    ++result_.completed;
    ++resolved_count_;
    if (resolved_count_ == config_.total_requests) engine_.stop();
  }

  // --- fault model -----------------------------------------------------------

  /// Draws the loss process for one message leg. No RNG is consumed when
  /// loss is disabled, keeping crash-only schedules reproducible against
  /// loss-free ones.
  bool lose_msg() {
    if (config_.faults.msg_loss_prob <= 0.0) return false;
    if (fault_rng_.uniform01() >= config_.faults.msg_loss_prob) return false;
    ++result_.drops_injected;
    return true;
  }

  /// Marks a job resolved; false when it was already resolved.
  bool resolve_job(std::int64_t index) {
    auto& flag = job_resolved_[static_cast<std::size_t>(index)];
    if (flag) return false;
    flag = 1;
    return true;
  }

  /// Response-timeout event: the access failed unless a response won.
  void fail_job(std::int64_t index) {
    if (!resolve_job(index)) return;
    ++result_.failed;
    ++resolved_count_;
    if (resolved_count_ == config_.total_requests) engine_.stop();
  }

  void crash_server(std::size_t target) {
    Server& server = servers_[target];
    server.crashed = true;
    ++server.epoch;
    // Queued and in-service accesses vanish; their clients discover the
    // failure by timeout. The committed count keeps only in-transit jobs
    // (they hand their slot back on arrival at the dead port).
    server.committed -= server.qlen;
    server.qlen = 0;
    server.waiting.clear();
    server.busy = false;
  }

  // --- broadcast policy ------------------------------------------------------

  void schedule_broadcast(std::size_t s) {
    const double mean = static_cast<double>(config_.policy.broadcast_interval);
    const SimDuration interval =
        config_.policy.broadcast_jitter
            ? static_cast<SimDuration>(
                  servers_[s].rng.uniform(0.5 * mean, 1.5 * mean))
            : static_cast<SimDuration>(mean);
    engine_.schedule_after(interval, [this, s] {
      // A crashed server announces nothing, but the timer keeps ticking so
      // announcements resume after a restart.
      if (!servers_[s].crashed) {
        ++result_.broadcasts_sent;
        const ServerLoad announcement{static_cast<ServerId>(s),
                                      servers_[s].qlen, engine_.now()};
        for (std::size_t c = 0; c < clients_.size(); ++c) {
          ++result_.messages;  // one delivery per listening client
          if (lose_msg()) continue;  // this client's copy was eaten
          engine_.schedule_after(config_.network.broadcast_oneway,
                                 [this, c, announcement] {
                                   clients_[c].dispatcher.announce(
                                       announcement);
                                 });
        }
      }
      schedule_broadcast(s);
    });
  }

  // --- bookkeeping -----------------------------------------------------------

  bool should_record(const Job& job) const {
    return job.index >= config_.warmup_requests;
  }

  void finalize() {
    const double span = to_sec(engine_.now());
    if (span > 0.0) {
      double busy = 0.0;
      for (const Server& server : servers_) {
        busy += to_sec(server.busy_time);
      }
      result_.utilization = busy / (span * static_cast<double>(servers_.size()));
    }
  }

  SimConfig config_;
  Rng root_rng_;
  Engine engine_;
  std::vector<Server> servers_;
  std::vector<Client> clients_;
  std::vector<ServerLoad> oracle_loads_;  // IDEAL scratch, one per server
  std::int64_t generated_ = 0;
  std::int64_t resolved_count_ = 0;  // completed + failed
  bool faults_enabled_ = false;
  Rng fault_rng_;
  std::vector<std::uint8_t> job_resolved_;  // faults only; by job index
  SimResult result_;
};

}  // namespace

SimResult run_cluster_sim(const SimConfig& config, const Workload& workload) {
  Simulation simulation(config, workload);
  return simulation.run();
}

}  // namespace finelb::sim
