#include "cluster/experiment.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "cluster/broadcast_channel.h"
#include "cluster/directory.h"
#include "cluster/ha/replica.h"
#include "cluster/ideal_manager.h"
#include "net/clock.h"
#include "telemetry/clock_sync.h"
#include "telemetry/scrape.h"

namespace finelb::cluster {
namespace {

constexpr const char* kExperimentService = "experiment";

std::vector<ServerEndpoints> endpoints_from_directory(
    std::vector<net::Address> replicas, std::size_t expected) {
  DirectoryClient client(std::move(replicas));
  const auto snapshot =
      client.wait_for_servers(kExperimentService, expected, 10 * kSecond);
  FINELB_CHECK(snapshot.size() >= expected,
               "directory never saw all experiment servers");
  std::vector<ServerEndpoints> endpoints;
  endpoints.reserve(snapshot.size());
  for (const auto& e : snapshot) {
    endpoints.push_back({e.server, e.service_addr, e.load_addr});
  }
  return endpoints;
}

}  // namespace

PrototypeResult run_prototype(const PrototypeConfig& config,
                              const Workload& workload) {
  FINELB_CHECK(config.servers >= 1 && config.clients >= 1,
               "need at least one server and one client");
  FINELB_CHECK(config.load > 0.0 && config.load < 1.0,
               "load must be in (0, 1)");
  FINELB_CHECK(config.total_requests >= config.clients,
               "need at least one request per client");
  for (const ServerKill& kill : config.kills) {
    FINELB_CHECK(kill.server >= 0 && kill.server < config.servers,
                 "kill schedule names an unknown server");
    FINELB_CHECK(kill.after >= 0, "kill time must be non-negative");
  }
  FINELB_CHECK(config.directory_replicas >= 1,
               "directory_replicas must be at least 1");
  if (!config.directory_leader_kills.empty()) {
    FINELB_CHECK(config.use_directory && config.directory_replicas > 1,
                 "directory leader kills need a replicated directory");
    FINELB_CHECK(static_cast<int>(config.directory_leader_kills.size()) <
                     config.directory_replicas,
                 "cannot kill every directory replica");
    for (const SimDuration after : config.directory_leader_kills) {
      FINELB_CHECK(after >= 0, "leader-kill time must be non-negative");
    }
  }

  // Per-node fault injectors: one per server and one per client, seeded
  // from the spec seed plus the node index so every node sees an
  // independent — but reproducible — loss/dup/delay stream.
  const bool inject = config.fault.any();
  std::vector<std::shared_ptr<fault::FaultInjector>> injectors;
  const auto make_injector = [&](std::uint64_t salt) {
    if (!inject) return std::shared_ptr<fault::FaultInjector>();
    fault::FaultSpec spec = config.fault;
    spec.seed = config.fault.seed * 0x9E3779B97F4A7C15ull + salt;
    injectors.push_back(std::make_shared<fault::FaultInjector>(spec));
    return injectors.back();
  };

  // --- servers ---------------------------------------------------------------
  std::vector<std::unique_ptr<ServerNode>> servers;
  servers.reserve(static_cast<std::size_t>(config.servers));
  for (int s = 0; s < config.servers; ++s) {
    ServerOptions opts;
    opts.id = s;
    opts.worker_threads = config.worker_threads_per_server;
    opts.inject_busy_reply_delay = config.inject_busy_reply_delay;
    opts.busy_reply_alpha = config.busy_reply_alpha;
    opts.busy_reply_xm = config.busy_reply_xm;
    opts.busy_slow_prob = config.busy_slow_prob;
    opts.fault = make_injector(static_cast<std::uint64_t>(s) + 1);
    opts.trace_sample_period = config.trace_sample_period;
    opts.seed = config.seed + static_cast<std::uint64_t>(s) * 7919;
    servers.push_back(std::make_unique<ServerNode>(opts));
  }

  // --- availability ----------------------------------------------------------
  // Single node: the classic DirectoryServer. Replicated: an
  // HaDirectoryCluster whose lease-holding leader serves snapshots while
  // every replica absorbs publishes (DESIGN.md §12). Either way the servers
  // announce to every directory address and the clients carry the full
  // replica set.
  std::unique_ptr<DirectoryServer> directory;
  std::unique_ptr<ha::HaDirectoryCluster> ha_directory;
  std::vector<net::Address> directory_addrs;
  if (config.use_directory) {
    if (config.directory_replicas > 1) {
      ha::HaReplicaConfig ha_config;
      ha_config.heartbeat_interval = config.ha_heartbeat_interval;
      ha_config.election_timeout_min = config.ha_election_timeout_min;
      ha_config.election_timeout_max = config.ha_election_timeout_max;
      ha_config.leader_lease = config.ha_leader_lease;
      ha_config.seed = config.seed + 0xD1E;
      ha_directory = std::make_unique<ha::HaDirectoryCluster>(
          config.directory_replicas, ha_config);
      directory_addrs = ha_directory->data_addresses();
      FINELB_CHECK(ha_directory->wait_for_leader() >= 0,
                   "replicated directory never elected a leader");
    } else {
      directory = std::make_unique<DirectoryServer>();
      directory->start();
      directory_addrs.push_back(directory->address());
    }
    for (auto& server : servers) {
      server->enable_publishing(directory_addrs, kExperimentService,
                                /*partition=*/0, config.publish_interval,
                                config.publish_ttl);
    }
  }

  // --- broadcast channel (broadcast policy only, prototype extension) --------
  std::unique_ptr<BroadcastChannel> channel;
  if (config.policy.kind == PolicyKind::kBroadcast) {
    channel = std::make_unique<BroadcastChannel>();
    channel->start();
    for (auto& server : servers) {
      server->enable_load_broadcast(channel->address(),
                                    config.policy.broadcast_interval,
                                    config.policy.broadcast_jitter);
    }
  }

  for (auto& server : servers) server->start();

  std::vector<ServerEndpoints> endpoints;
  if (config.use_directory) {
    endpoints = endpoints_from_directory(
        directory_addrs, static_cast<std::size_t>(config.servers));
  } else {
    for (auto& server : servers) {
      endpoints.push_back(
          {server->id(), server->service_address(), server->load_address()});
    }
  }

  // --- IDEAL manager ---------------------------------------------------------
  std::unique_ptr<IdealManager> manager;
  if (config.policy.kind == PolicyKind::kIdeal) {
    manager = std::make_unique<IdealManager>(config.servers, config.seed + 5);
    manager->start();
  }

  // --- load calibration -------------------------------------------------------
  const double effective_service =
      workload.mean_service_sec() + config.per_request_overhead_sec;
  const double offered_load =
      config.load * workload.mean_service_sec() / effective_service;
  // Arrival scale targeting the *nominal* service time, then stretched by
  // the overhead ratio so the effective per-server utilization matches the
  // requested load.
  const double scale =
      workload.arrival_scale_for_load(config.load, config.servers) *
      (effective_service / workload.mean_service_sec()) *
      static_cast<double>(config.clients);

  // --- clients ---------------------------------------------------------------
  const std::int64_t per_client = config.total_requests / config.clients;
  const std::int64_t warmup =
      per_client * config.warmup_fraction_percent / 100;
  std::vector<std::unique_ptr<ClientNode>> clients;
  clients.reserve(static_cast<std::size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    ClientOptions opts;
    opts.id = c;
    opts.policy = config.policy;
    opts.servers = endpoints;
    if (manager) opts.ideal_manager = manager->address();
    if (channel) opts.broadcast_channel = channel->address();
    opts.total_requests = per_client;
    opts.warmup_requests = warmup;
    opts.response_timeout = config.response_timeout;
    opts.fault = make_injector(0x10000 + static_cast<std::uint64_t>(c));
    opts.blacklist_cooldown = config.blacklist_cooldown;
    opts.blacklist_after = config.blacklist_after;
    opts.timeline_bucket = config.timeline_bucket;
    opts.max_access_retries = config.max_access_retries;
    opts.trace_sample_period = config.trace_sample_period;
    opts.decision_sample_period = config.decision_sample_period;
    if (!directory_addrs.empty() && config.client_mapping_refresh > 0) {
      opts.directory = directory_addrs.front();
      opts.directory_replicas = directory_addrs;
      opts.directory_service = kExperimentService;
      opts.mapping_refresh = config.client_mapping_refresh;
    }
    opts.seed = config.seed + 31 + static_cast<std::uint64_t>(c) * 9973;
    clients.push_back(std::make_unique<ClientNode>(
        std::move(opts),
        workload.make_source(scale, config.seed + 211 +
                                        static_cast<std::uint64_t>(c) * 53)));
  }

  const SimTime started = net::monotonic_now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients.size());
  for (auto& client : clients) {
    client_threads.emplace_back([&client] { client->run(); });
  }

  // Kill-control thread: executes the kill schedule against wall time.
  // ServerNode::stop() joins the victim's event loop, after which it stops
  // answering polls, serving requests, and refreshing its directory entry —
  // exactly the failure mode the hardening is meant to survive.
  std::atomic<bool> clients_done{false};
  std::atomic<int> killed{0};
  std::thread killer;
  if (!config.kills.empty()) {
    killer = std::thread([&] {
      std::vector<ServerKill> schedule = config.kills;
      std::sort(schedule.begin(), schedule.end(),
                [](const ServerKill& a, const ServerKill& b) {
                  return a.after < b.after;
                });
      for (const ServerKill& kill : schedule) {
        const SimTime due = started + kill.after;
        while (net::monotonic_now() < due) {
          if (clients_done.load(std::memory_order_relaxed)) return;
          net::sleep_for(std::min<SimDuration>(due - net::monotonic_now(),
                                               10 * kMillisecond));
        }
        FINELB_LOG(kInfo, "experiment")
            << "killing server " << kill.server << " at +"
            << to_ms(net::monotonic_now() - started) << " ms";
        servers[static_cast<std::size_t>(kill.server)]->stop();
        killed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Directory leader-kill thread: at each scheduled offset, stop whichever
  // replica currently holds the lease. The kill instant is recorded so the
  // failover window (kill -> next kLeaderElected instant) can be measured
  // afterwards — both sides read the same in-process CLOCK_MONOTONIC.
  std::vector<SimTime> leader_kill_times;  // written by dir_killer only
  std::atomic<int> leaders_killed{0};
  std::thread dir_killer;
  if (ha_directory && !config.directory_leader_kills.empty()) {
    dir_killer = std::thread([&] {
      std::vector<SimDuration> schedule = config.directory_leader_kills;
      std::sort(schedule.begin(), schedule.end());
      for (const SimDuration after : schedule) {
        const SimTime due = started + after;
        while (net::monotonic_now() < due) {
          if (clients_done.load(std::memory_order_relaxed)) return;
          net::sleep_for(std::min<SimDuration>(due - net::monotonic_now(),
                                               10 * kMillisecond));
        }
        const std::int32_t victim = ha_directory->kill_leader();
        if (victim < 0) {
          FINELB_LOG(kWarn, "experiment")
              << "leader kill scheduled but no replica holds the lease";
          continue;
        }
        leader_kill_times.push_back(net::monotonic_now());
        FINELB_LOG(kInfo, "experiment")
            << "killed directory leader " << victim << " at +"
            << to_ms(leader_kill_times.back() - started) << " ms";
        leaders_killed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& thread : client_threads) thread.join();
  clients_done.store(true, std::memory_order_relaxed);
  if (killer.joinable()) killer.join();
  if (dir_killer.joinable()) dir_killer.join();
  const SimTime finished = net::monotonic_now();

  // --- collect ---------------------------------------------------------------
  PrototypeResult result;
  for (auto& client : clients) result.clients.merge(client->stats());
  for (auto& server : servers) {
    const ServerCounters counters = server->counters();
    result.servers.requests_served += counters.requests_served;
    result.servers.inquiries_answered += counters.inquiries_answered;
    result.servers.max_queue_length =
        std::max(result.servers.max_queue_length, counters.max_queue_length);
    result.servers.send_failures += counters.send_failures;
  }
  for (const auto& injector : injectors) {
    result.faults.merge(injector->counters());
  }
  result.servers_killed = killed.load();
  result.directory_leaders_killed = leaders_killed.load();
  if (ha_directory) {
    // Election instants come off each replica's trace ring; the ring is
    // in-process, so no clock alignment is needed. The failover window for
    // a kill is the gap to the *next* election anywhere in the cluster.
    std::vector<SimTime> elections;
    for (std::int32_t r = 0; r < ha_directory->size(); ++r) {
      for (const telemetry::TraceRecord& rec :
           ha_directory->replica(r).trace_ring().snapshot()) {
        if (rec.point == telemetry::TracePoint::kLeaderElected) {
          elections.push_back(rec.at_ns);
        }
      }
    }
    std::sort(elections.begin(), elections.end());
    result.directory_elections =
        static_cast<std::int64_t>(elections.size());
    for (const SimTime kill : leader_kill_times) {
      const auto next =
          std::upper_bound(elections.begin(), elections.end(), kill);
      // No re-election observed before the run ended: charge the rest of
      // the run as the window rather than under-reporting it as zero.
      const SimTime recovered = next != elections.end() ? *next : finished;
      result.directory_failover_window =
          std::max(result.directory_failover_window, recovered - kill);
    }
  }
  if (config.collect_node_stats) {
    for (const auto& server : servers) {
      result.node_stats_json.push_back(server->stats_json());
    }
    for (const auto& client : clients) {
      result.node_stats_json.push_back(client->stats_json());
    }
  }
  // --- trace observatory -----------------------------------------------------
  // Pull server rings over the wire while the load loops are still
  // answering; each scrape round trip doubles as a clock-sync sample, so a
  // dead or silent server simply contributes no trace. Client rings live in
  // this process (zero offset by definition).
  if (config.collect_traces && config.trace_sample_period > 0) {
    for (const auto& server : servers) {
      telemetry::NodeTrace node;
      node.source = "server." + std::to_string(server->id());
      if (auto scrape = telemetry::scrape_trace(server->load_address())) {
        telemetry::ClockSync sync;
        for (const auto& s : scrape->clock_samples) {
          sync.add_sample(s.local_send_ns, s.remote_ns, s.local_recv_ns);
        }
        node.clock_offset_ns = sync.offset_ns();
        node.records = std::move(scrape->records);
      } else {
        ++result.trace_scrape_failures;
      }
      result.node_traces.push_back(std::move(node));
    }
    for (std::size_t c = 0; c < clients.size(); ++c) {
      telemetry::NodeTrace node;
      node.source = "client." + std::to_string(c);
      node.records = clients[c]->trace().snapshot();
      result.node_traces.push_back(std::move(node));
    }
    if (ha_directory) {
      // Replica rings live in this process (zero clock offset); their
      // kLeaderElected instants place elections on the cluster timeline.
      for (std::int32_t r = 0; r < ha_directory->size(); ++r) {
        telemetry::NodeTrace node;
        node.source = "directory." + std::to_string(r);
        node.records = ha_directory->replica(r).trace_ring().snapshot();
        result.node_traces.push_back(std::move(node));
      }
    }
    result.staleness =
        telemetry::compute_staleness(telemetry::merge_traces(result.node_traces));
  }
  // --- decision observatory --------------------------------------------------
  // Client decision rings live in this process (like client trace rings),
  // so the post-run pull is a snapshot; the wire channel (DECISION_INQUIRY
  // on the client's service socket) exists for scraping a *live* client and
  // is exercised by telemetry::scrape_decisions tests. The regret join
  // reads each decision's realized queue depth from the merged timeline's
  // kResponse records, hence the collect_traces dependency.
  if (config.collect_decisions && config.decision_sample_period > 0) {
    std::vector<DecisionRecord> decisions;
    for (const auto& client : clients) {
      std::vector<DecisionRecord> ring = client->decisions().snapshot();
      decisions.insert(decisions.end(), ring.begin(), ring.end());
    }
    result.decision_records = static_cast<std::int64_t>(decisions.size());
    result.decision_quality = telemetry::reconstruct_decision_quality(
        decisions, telemetry::merge_traces(result.node_traces));
  }

  result.offered_load = offered_load;
  result.wall_sec = to_sec(finished - started);
  result.throughput = result.wall_sec > 0.0
                          ? static_cast<double>(result.clients.completed) /
                                result.wall_sec
                          : 0.0;

  for (auto& server : servers) server->stop();
  if (manager) manager->stop();
  if (channel) channel->stop();
  if (directory) directory->stop();
  return result;
}

double calibrate_overhead(const Workload& workload, std::int64_t requests,
                          std::uint64_t seed) {
  PrototypeConfig config;
  config.servers = 1;
  config.clients = 1;
  config.policy = PolicyConfig::random();
  config.load = 0.05;  // essentially unloaded: responses measure pure cost
  config.total_requests = requests;
  config.use_directory = false;
  config.inject_busy_reply_delay = false;
  config.per_request_overhead_sec = 0.0;
  config.seed = seed;
  const PrototypeResult result = run_prototype(config, workload);
  const double overhead_sec =
      result.clients.response_ms.mean() / 1e3 - workload.mean_service_sec();
  return std::max(overhead_sec, 0.0);
}

}  // namespace finelb::cluster
