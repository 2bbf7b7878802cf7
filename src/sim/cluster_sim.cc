// Cluster simulation model (paper §2).
//
// Entities: N servers (non-preemptive processing unit + FIFO queue), C
// client streams generating requests from the workload, and per client a
// core::Dispatcher that decides the target server per request. This file is
// the dispatcher's virtual-time driver: it turns the dispatcher's actions
// into simulated message events and feeds their outcomes back in. It drives
// each server's core::ServerCore the same way: the core holds the FIFO,
// the unit and the queue length; this file keeps time, speed scaling, the
// outage pause, the crash epoch and the IDEAL oracle's commitments.
//
// Timing model per request (client-observed response time):
//   generated -> [policy: 0 for random/rr/ideal/broadcast, poll RTT for
//   polling] -> request transit -> FIFO queue -> service -> response
//   transit -> recorded.
//
// Engine events per request: the arrival, the request landing, the service
// completion and the response landing; polling adds one event per poll leg.
// A round's inquiries all leave at once and land at once, so one event
// answers every target; the replies that land at one instant arrive as one
// event (with queue-scaled reply cost, one per distinct instant). A
// fault-free polling access thus costs 6 events whatever the poll size.
// The batching leaves seeded output bit-identical: events scheduled back to
// back for one instant hold consecutive seqs, so nothing else could fire
// between them, and the batch runs them in the same order with every loss
// draw at the same point.
#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/dispatcher.h"
#include "core/server_core.h"
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
      schedule_at(outage.start,
                  [this, target] { servers_[target].paused = true; });
      schedule_at(outage.start + outage.duration, [this, target] {
        servers_[target].paused = false;
        maybe_start_next(static_cast<ServerId>(target));
      });
    }
    for (const ServerCrash& crash : config_.faults.crashes) {
      const auto target = static_cast<std::size_t>(crash.server);
      schedule_at(crash.at, [this, target] { crash_server(target); });
      if (crash.restart_at > crash.at) {
        schedule_at(crash.restart_at, [this, target] {
          servers_[target].crashed = false;
        });
      }
    }
    engine_.run();
    finalize();
    return std::move(result_);
  }

 private:
  /// The queue model is core::ServerCore with one unit; the driver keeps
  /// what only the simulation has: speed, the outage gate, crashes and the
  /// IDEAL oracle's commitments.
  struct Server {
    core::ServerCore<Job> core;
    double speed = 1.0;
    /// Outage: the unit starts nothing new while paused.
    bool paused = false;
    bool crashed = false;
    /// Bumped on every crash; a completion event from a pre-crash service
    /// is stale and must not touch the rebuilt server state.
    std::uint64_t epoch = 0;
    /// Queue length + dispatched-but-not-arrived.
    std::int32_t committed = 0;
    SimDuration busy_time = 0;
    Rng rng;
  };

  struct Client {
    std::unique_ptr<RequestSource> source;
    core::Dispatcher dispatcher;
  };

  /// One poll round's messages in flight, pooled so that a leg's event
  /// carries an index rather than the messages, whatever the poll size.
  struct PollLeg {
    std::size_t client = 0;
    core::RoundId round = 0;
    /// Inquiry leg: the targets whose inquiries survived, in target order
    /// (load fields unset). Reply leg: the replies that survived, by
    /// landing instant and in target order within one.
    std::vector<ServerLoad> loads;
  };

  // --- event scheduling ------------------------------------------------------

  /// Every cluster-model event is stored inline in the engine's slot,
  /// never boxed on the heap.
  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Engine::kInlineEventBytes &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "cluster-model events must fit Engine::kInlineEventBytes");
    engine_.schedule_at(t, std::forward<F>(fn));
  }

  template <class F>
  void schedule_after(SimDuration delay, F&& fn) {
    schedule_at(engine_.now() + delay, std::forward<F>(fn));
  }

  // --- request generation --------------------------------------------------

  void schedule_next_arrival(std::size_t c) {
    if (generated_ >= config_.total_requests) return;
    const TraceRecord rec = clients_[c].source->next();
    ++generated_;
    const std::int64_t index = generated_ - 1;
    schedule_after(rec.arrival_interval, [this, c, index, rec] {
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
    const std::uint32_t leg = acquire_leg(c, round);
    std::vector<ServerLoad>& inquiries = legs_[leg].loads;
    for (const ServerId target : action.targets) {
      ++result_.messages;  // inquiry
      if (lose_msg()) continue;  // inquiry eaten by the network
      inquiries.push_back({target, 0, 0});
    }
    if (inquiries.empty()) {
      release_leg(leg);
    } else {
      schedule_after(config_.network.poll_oneway,
                     [this, leg] { answer_polls(leg); });
    }
    if (action.deadline != core::kNoDeadline) {
      schedule_at(action.deadline, [this, c, round] {
        if (auto decision =
                clients_[c].dispatcher.close_round(round, engine_.now())) {
          finish_poll_round(*decision);
        }
      });
    }
  }

  /// Reply cost: a fixed CPU charge plus an optional queue-proportional
  /// term modelling slow replies from busy servers (paper §3.2 profile).
  SimDuration reply_delay(std::int32_t qlen) const {
    SimDuration delay = config_.network.poll_reply_cpu;
    if (config_.network.poll_reply_scales_with_queue) {
      delay += config_.network.poll_reply_cpu * qlen;
    }
    return delay;
  }

  /// The inquiry leg lands. Each target answers in target order, as one
  /// event per inquiry would: the crash check, the reply count, then the
  /// loss draw. The replies that land at one instant become one event.
  void answer_polls(std::uint32_t leg) {
    std::vector<ServerLoad>& loads = legs_[leg].loads;
    std::size_t replies = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const ServerId target = loads[i].server;
      const Server& server = servers_[static_cast<std::size_t>(target)];
      if (server.crashed) continue;  // nobody home to answer
      ++result_.messages;  // reply
      if (lose_msg()) continue;  // reply sent, eaten in transit
      loads[replies++] = {target, server.core.queue_length(), engine_.now()};
    }
    loads.resize(replies);
    if (replies == 0) {
      release_leg(leg);
      return;
    }
    // Stable insertion sort by reply delay: replies that land together
    // stay in target order. Without queue-scaled replies every delay is
    // equal and nothing moves.
    for (std::size_t i = 1; i < replies; ++i) {
      const ServerLoad reply = loads[i];
      const SimDuration delay = reply_delay(reply.queue_length);
      std::size_t j = i;
      for (; j > 0 && reply_delay(loads[j - 1].queue_length) > delay; --j) {
        loads[j] = loads[j - 1];
      }
      loads[j] = reply;
    }
    for (std::size_t begin = 0; begin < replies;) {
      const SimDuration delay = reply_delay(loads[begin].queue_length);
      std::size_t end = begin + 1;
      while (end < replies && reply_delay(loads[end].queue_length) == delay) {
        ++end;
      }
      schedule_after(delay + config_.network.poll_oneway,
                     [this, leg, first = static_cast<std::uint32_t>(begin),
                      last = static_cast<std::uint32_t>(end)] {
                       receive_replies(leg, first, last);
                     });
      begin = end;
    }
  }

  /// Replies [first, last) of a reply leg land, fed to the dispatcher in
  /// target order. The leg's last instant frees it.
  void receive_replies(std::uint32_t leg, std::uint32_t first,
                       std::uint32_t last) {
    // finish_poll_round() only dispatches; it never opens a round, so
    // legs_ does not grow under this reference.
    const PollLeg& replies = legs_[leg];
    core::Dispatcher& dispatcher = clients_[replies.client].dispatcher;
    for (std::uint32_t i = first; i < last; ++i) {
      core::Decision decision;
      const core::ReplyOutcome outcome = dispatcher.poll_reply(
          replies.round, replies.loads[i], engine_.now(), decision);
      if (outcome == core::ReplyOutcome::kDiscarded) {
        ++result_.polls_discarded;  // the round was already decided
      } else if (outcome == core::ReplyOutcome::kDecided) {
        finish_poll_round(decision);
      }
    }
    if (last == replies.loads.size()) release_leg(leg);
  }

  std::uint32_t acquire_leg(std::size_t c, core::RoundId round) {
    if (free_legs_.empty()) {
      free_legs_.push_back(static_cast<std::uint32_t>(legs_.size()));
      legs_.emplace_back();
    }
    const std::uint32_t leg = free_legs_.back();
    free_legs_.pop_back();
    legs_[leg].client = c;
    legs_[leg].round = round;
    legs_[leg].loads.clear();
    return leg;
  }

  void release_leg(std::uint32_t leg) { free_legs_.push_back(leg); }

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
    const std::int32_t chosen_qlen =
        servers_[static_cast<std::size_t>(chosen)].core.queue_length();
    std::int32_t best = chosen_qlen;
    for (const Server& server : servers_) {
      if (!server.crashed) best = std::min(best, server.core.queue_length());
    }
    const std::int64_t regret = chosen_qlen - best;
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
      schedule_after(config_.faults.response_timeout,
                     [this, index = job.index] { fail_job(index); });
      if (lose_msg()) return;  // request eaten; server never sees it
    }
    ++server.committed;
    schedule_after(config_.network.request_oneway,
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
    const std::int32_t found = server.core.arrive(job);
    if (should_record(job)) result_.queue_on_arrival.add(found);
    maybe_start_next(target);
  }

  /// Starts the oldest waiting job if the unit is free and not paused.
  void maybe_start_next(ServerId target) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    if (server.paused || !server.core.start(0)) return;
    const Job& job = server.core.job(0);
    const auto effective = static_cast<SimDuration>(
        static_cast<double>(job.service_time) / server.speed);
    schedule_after(
        effective, [this, job, target, effective, epoch = server.epoch] {
          complete_service(job, target, effective, epoch);
        });
  }

  void complete_service(const Job& job, ServerId target, SimDuration effective,
                        std::uint64_t epoch) {
    Server& server = servers_[static_cast<std::size_t>(target)];
    if (server.epoch != epoch) return;  // server crashed mid-service
    server.busy_time += effective;
    server.core.finish(0);
    --server.committed;
    ++result_.per_server_served[static_cast<std::size_t>(target)];
    maybe_start_next(target);
    ++result_.messages;  // response
    if (lose_msg()) return;  // response eaten; client times the access out
    schedule_after(config_.network.request_oneway,
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
    server.committed -= server.core.clear();
  }

  // --- broadcast policy ------------------------------------------------------

  void schedule_broadcast(std::size_t s) {
    const double mean = static_cast<double>(config_.policy.broadcast_interval);
    const SimDuration interval =
        config_.policy.broadcast_jitter
            ? static_cast<SimDuration>(
                  servers_[s].rng.uniform(0.5 * mean, 1.5 * mean))
            : static_cast<SimDuration>(mean);
    schedule_after(interval, [this, s] {
      // A crashed server announces nothing, but the timer keeps ticking so
      // announcements resume after a restart.
      if (!servers_[s].crashed) {
        ++result_.broadcasts_sent;
        const ServerLoad announcement{static_cast<ServerId>(s),
                                      servers_[s].core.queue_length(),
                                      engine_.now()};
        for (std::size_t c = 0; c < clients_.size(); ++c) {
          ++result_.messages;  // one delivery per listening client
          if (lose_msg()) continue;  // this client's copy was eaten
          schedule_after(config_.network.broadcast_oneway,
                         [this, c, announcement] {
                           clients_[c].dispatcher.announce(announcement);
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
    result_.events = static_cast<std::int64_t>(engine_.events_processed());
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
  std::vector<PollLeg> legs_;             // poll legs in flight, pooled
  std::vector<std::uint32_t> free_legs_;  // free entries of legs_
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
