#include "cluster/client_node.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "cluster/ideal_manager.h"
#include "cluster/server_node.h"
#include "net/clock.h"
#include "net/poller.h"
#include "workload/catalog.h"

namespace finelb::cluster {
namespace {

struct TestCluster {
  std::vector<std::unique_ptr<ServerNode>> servers;
  std::vector<ServerEndpoints> endpoints;

  explicit TestCluster(int n) {
    for (int s = 0; s < n; ++s) {
      ServerOptions opts;
      opts.id = s;
      opts.inject_busy_reply_delay = false;
      opts.seed = 100 + static_cast<std::uint64_t>(s);
      servers.push_back(std::make_unique<ServerNode>(opts));
      servers.back()->start();
      endpoints.push_back({servers.back()->id(),
                           servers.back()->service_address(),
                           servers.back()->load_address()});
    }
  }
  ~TestCluster() {
    for (auto& s : servers) s->stop();
  }
};

ClientOptions base_options(const TestCluster& cluster, PolicyConfig policy,
                           std::int64_t requests) {
  ClientOptions opts;
  opts.id = 1;
  opts.policy = policy;
  opts.servers = cluster.endpoints;
  opts.total_requests = requests;
  opts.warmup_requests = 0;
  opts.seed = 7;
  return opts;
}

// Fast workload: 2 ms mean service, arrivals scaled for light load so the
// tests finish quickly.
std::unique_ptr<RequestSource> fast_source(double interval_scale = 1.0) {
  static const Workload w = make_poisson_exp(0.002);
  static std::uint64_t seed = 900;
  return w.make_source(interval_scale, ++seed);
}

TEST(ClientNodeTest, RandomPolicyCompletesAllRequests) {
  TestCluster cluster(2);
  ClientNode client(base_options(cluster, PolicyConfig::random(), 200),
                    fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.issued, 200);
  EXPECT_EQ(stats.completed, 200);
  EXPECT_EQ(stats.response_timeouts, 0);
  EXPECT_GT(stats.response_ms.mean(), 2.0);  // at least the service time
  EXPECT_EQ(stats.polls_sent, 0);
}

TEST(ClientNodeTest, PollingPolicySendsInquiries) {
  TestCluster cluster(4);
  ClientNode client(base_options(cluster, PolicyConfig::polling(2), 150),
                    fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 150);
  EXPECT_EQ(stats.polls_sent, 2 * 150);
  EXPECT_GT(stats.poll_replies_used, 0);
  EXPECT_GT(stats.poll_time_ms.count(), 0);
  // Loopback polls on idle servers finish way under the 50 ms backstop.
  EXPECT_LT(stats.poll_time_ms.mean(), 25.0);
}

TEST(ClientNodeTest, LoadReplyFromForeignSocketIsNeitherUsedNorCounted) {
  // The endpoint's load address is a stand-in that answers every inquiry
  // twice: first from a foreign socket, then from the address the client
  // polled. Only the second reply may count: accepting the first would
  // decide the round on it and turn the genuine reply into a discard.
  TestCluster cluster(1);
  net::UdpSocket load_endpoint;
  net::UdpSocket foreign;
  std::atomic<bool> done{false};
  std::thread answerer([&] {
    net::Poller poller;
    poller.add(load_endpoint.fd(), 0);
    std::array<std::uint8_t, 128> buf{};
    while (!done.load()) {
      poller.wait(10 * kMillisecond);
      while (auto dgram = load_endpoint.recv_from(buf)) {
        net::LoadInquiry inquiry;
        if (!net::LoadInquiry::try_decode(std::span(buf.data(), dgram->size),
                                          inquiry)) {
          continue;
        }
        net::LoadReply reply;
        reply.seq = inquiry.seq;
        foreign.send_to(reply.encode(), dgram->from);
        load_endpoint.send_to(reply.encode(), dgram->from);
      }
    }
  });
  ClientOptions opts = base_options(cluster, PolicyConfig::polling(1), 100);
  opts.servers[0].load_addr = load_endpoint.local_address();
  opts.max_poll_wait = 5 * kSecond;  // no round may time out
  ClientNode client(opts, fast_source());
  client.run();
  done.store(true);
  answerer.join();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 100);
  EXPECT_EQ(stats.polls_sent, 100);
  EXPECT_EQ(stats.poll_replies_used, 100);
  EXPECT_EQ(stats.polls_discarded, 0);
  EXPECT_EQ(stats.polls_timed_out, 0);
  EXPECT_EQ(stats.fallback_dispatches, 0);
}

TEST(ClientNodeTest, TelemetryMirrorsClientStats) {
  TestCluster cluster(4);
  ClientOptions opts = base_options(cluster, PolicyConfig::polling(2), 150);
  opts.trace_sample_period = 10;  // every 10th access leaves a trace
  ClientNode client(std::move(opts), fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 150);

  if (!telemetry::kEnabled) {
    EXPECT_TRUE(client.metrics().snapshot().counters.empty());
    return;
  }
  const auto snap = client.metrics().snapshot("client.1");
  EXPECT_EQ(snap.node, "client.1");
  std::int64_t issued = -1, completed = -1, polls_sent = -1;
  for (const auto& [name, value] : snap.counters) {
    if (name == "requests_issued") issued = value;
    if (name == "requests_completed") completed = value;
    if (name == "polls_sent") polls_sent = value;
  }
  EXPECT_EQ(issued, stats.issued);
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(polls_sent, stats.polls_sent);
  // Histogram mirror carries the same sample counts as ClientStats.
  for (const auto& hist : snap.histograms) {
    if (hist.name == "poll_rtt_ms") {
      EXPECT_EQ(hist.count, stats.poll_rtt_ms.count());
      EXPECT_GT(hist.count, 0);
    }
    if (hist.name == "response_time_ms") {
      EXPECT_EQ(hist.count, stats.response_ms.count());
    }
  }
  // Sampled accesses left full lifecycle traces keyed by the globally
  // unique request id (client id << 40 | access index); the embedded access
  // index honours the sampling period.
  const auto trace = client.trace().snapshot();
  EXPECT_FALSE(trace.empty());
  bool saw_enqueue = false, saw_pick = false, saw_response = false;
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.request_id >> 40, 1u);
    EXPECT_EQ((rec.request_id & ((1ull << 40) - 1)) % 10, 0u);
    if (rec.point == telemetry::TracePoint::kClientEnqueue) {
      saw_enqueue = true;
    }
    if (rec.point == telemetry::TracePoint::kServerPick) saw_pick = true;
    if (rec.point == telemetry::TracePoint::kResponse) saw_response = true;
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_pick);
  EXPECT_TRUE(saw_response);
  // And the JSON snapshot is exportable end-to-end.
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"node\":\"client.1\""), std::string::npos);
  EXPECT_NE(json.find("\"poll_rtt_ms\""), std::string::npos);
}

TEST(ClientNodeTest, PollSizeClampsToServerCount) {
  TestCluster cluster(2);
  ClientNode client(base_options(cluster, PolicyConfig::polling(8), 50),
                    fast_source());
  client.run();
  EXPECT_EQ(client.stats().polls_sent, 2 * 50)
      << "poll set must clamp to the two live servers";
  EXPECT_EQ(client.stats().completed, 50);
}

TEST(ClientNodeTest, DiscardModeBoundsPollTime) {
  TestCluster cluster(3);
  ClientNode client(
      base_options(cluster, PolicyConfig::polling(2, from_ms(1.0)), 150),
      fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 150);
  // No decision may take longer than the discard deadline plus loop slack.
  EXPECT_LT(stats.poll_time_ms.max(), 10.0);
}

TEST(ClientNodeTest, IdealPolicyUsesManagerAndReleases) {
  TestCluster cluster(3);
  IdealManager manager(3, 5);
  manager.start();
  ClientOptions opts = base_options(cluster, PolicyConfig::ideal(), 120);
  opts.ideal_manager = manager.address();
  ClientNode client(std::move(opts), fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 120);
  EXPECT_EQ(stats.manager_timeouts, 0);
  EXPECT_EQ(manager.acquires(), 120);
  // Allow the final releases to land.
  net::sleep_for(100 * kMillisecond);
  EXPECT_EQ(manager.releases(), 120);
  for (const auto q : manager.tracked_queues()) EXPECT_EQ(q, 0);
  manager.stop();
}

TEST(ClientNodeTest, ManagerNamingUnknownServerGetsItsSlotBack) {
  // A stand-in IDEAL manager names a server the client does not know. The
  // client dispatches each access to a fallback instead, so it must
  // release the slot the manager counted against the id it named, and
  // release nothing against the fallback server, which the manager never
  // counted.
  constexpr ServerId kUnknown = 99;
  constexpr std::int64_t kAccesses = 40;
  TestCluster cluster(2);
  net::UdpSocket manager;
  std::atomic<bool> done{false};
  std::atomic<int> acquires{0};
  std::atomic<int> named_releases{0};
  std::atomic<int> other_releases{0};
  std::thread answerer([&] {
    net::Poller poller;
    poller.add(manager.fd(), 0);
    std::array<std::uint8_t, 64> buf{};
    while (!done.load()) {
      poller.wait(10 * kMillisecond);
      while (auto dgram = manager.recv_from(buf)) {
        const auto data = std::span(buf.data(), dgram->size);
        net::Acquire acquire;
        net::Release release;
        if (net::Acquire::try_decode(data, acquire)) {
          ++acquires;
          net::AcquireReply reply;
          reply.seq = acquire.seq;
          reply.server = kUnknown;
          manager.send_to(reply.encode(), dgram->from);
        } else if (net::Release::try_decode(data, release)) {
          ++(release.server == kUnknown ? named_releases : other_releases);
        }
      }
    }
  });
  ClientOptions opts = base_options(cluster, PolicyConfig::ideal(), kAccesses);
  opts.ideal_manager = manager.local_address();
  ClientNode client(std::move(opts), fast_source());
  client.run();
  // Releases for the last accesses may still be in flight.
  const SimTime give_up = net::monotonic_now() + kSecond;
  while (named_releases.load() + other_releases.load() < kAccesses &&
         net::monotonic_now() < give_up) {
    net::sleep_for(kMillisecond);
  }
  done.store(true);
  answerer.join();
  EXPECT_EQ(client.stats().completed, kAccesses);
  EXPECT_EQ(client.stats().manager_timeouts, 0);
  EXPECT_EQ(acquires.load(), kAccesses);
  EXPECT_EQ(named_releases.load(), kAccesses);
  EXPECT_EQ(other_releases.load(), 0);
}

TEST(ClientNodeTest, IdealPollTimeReachesTheRegistry) {
  // An IDEAL access spends its acquisition time waiting on the manager; the
  // exported poll_time_ms histogram must count it as ClientStats does.
  TestCluster cluster(2);
  IdealManager manager(2, 5);
  manager.start();
  ClientOptions opts = base_options(cluster, PolicyConfig::ideal(), 60);
  opts.ideal_manager = manager.address();
  ClientNode client(std::move(opts), fast_source());
  client.run();
  manager.stop();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed, 60);
  EXPECT_EQ(stats.poll_time_ms.count(), 60);
  if (!telemetry::kEnabled) return;
  std::int64_t registry_count = -1;
  for (const auto& hist : client.metrics().snapshot().histograms) {
    if (hist.name == "poll_time_ms") registry_count = hist.count;
  }
  EXPECT_EQ(registry_count, stats.poll_time_ms.count());
}

TEST(ClientNodeTest, IdealWithoutManagerAddressRejected) {
  TestCluster cluster(1);
  EXPECT_THROW(ClientNode(base_options(cluster, PolicyConfig::ideal(), 10),
                          fast_source()),
               InvariantError);
}

TEST(ClientNodeTest, BroadcastPolicyRejected) {
  TestCluster cluster(1);
  EXPECT_THROW(
      ClientNode(base_options(cluster, PolicyConfig::broadcast(kSecond), 10),
                 fast_source()),
      InvariantError);
}

TEST(ClientNodeTest, WarmupExcludedFromRecordedStats) {
  TestCluster cluster(2);
  ClientOptions opts = base_options(cluster, PolicyConfig::random(), 100);
  opts.warmup_requests = 40;
  ClientNode client(std::move(opts), fast_source());
  client.run();
  EXPECT_EQ(client.stats().completed, 100);
  EXPECT_EQ(client.stats().recorded, 60);
  EXPECT_EQ(client.stats().response_ms.count(), 60);
}

TEST(ClientNodeTest, DeadServerProducesResponseTimeouts) {
  TestCluster cluster(1);
  // Add a second, dead endpoint: a bound socket nobody serves.
  net::UdpSocket dead_service;
  net::UdpSocket dead_load;
  ClientOptions opts = base_options(cluster, PolicyConfig::random(), 60);
  opts.servers.push_back(
      {1, dead_service.local_address(), dead_load.local_address()});
  opts.response_timeout = 300 * kMillisecond;
  ClientNode client(std::move(opts), fast_source());
  client.run();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.completed + stats.response_timeouts, 60);
  EXPECT_GT(stats.response_timeouts, 10) << "~half the requests hit the dead "
                                            "server and must time out";
  EXPECT_GT(stats.completed, 10);
}

TEST(ClientNodeTest, PollingSurvivesDeadLoadServer) {
  TestCluster cluster(2);
  net::UdpSocket dead_service;
  net::UdpSocket dead_load;
  ClientOptions opts = base_options(cluster, PolicyConfig::polling(3), 60);
  opts.servers.push_back(
      {2, dead_service.local_address(), dead_load.local_address()});
  opts.max_poll_wait = 100 * kMillisecond;
  opts.response_timeout = 500 * kMillisecond;
  ClientNode client(std::move(opts), fast_source(4.0));
  client.run();
  const ClientStats& stats = client.stats();
  // Every access resolves: polls to the dead node time out and the round
  // decides with the replies that did arrive.
  EXPECT_EQ(stats.issued, 60);
  EXPECT_GT(stats.polls_timed_out, 0);
  EXPECT_GT(stats.completed, 0);
}

TEST(ClientNodeTest, ValidationErrors) {
  TestCluster cluster(1);
  ClientOptions no_servers = base_options(cluster, PolicyConfig::random(), 10);
  no_servers.servers.clear();
  EXPECT_THROW(ClientNode(std::move(no_servers), fast_source()),
               InvariantError);

  ClientOptions zero = base_options(cluster, PolicyConfig::random(), 0);
  EXPECT_THROW(ClientNode(std::move(zero), fast_source()), InvariantError);

  EXPECT_THROW(ClientNode(base_options(cluster, PolicyConfig::random(), 10),
                          nullptr),
               InvariantError);
}

}  // namespace
}  // namespace finelb::cluster
