#include "telemetry/scrape.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client_node.h"
#include "cluster/server_node.h"
#include "fault/fault.h"
#include "net/message.h"
#include "net/poller.h"
#include "telemetry/metrics.h"
#include "workload/catalog.h"

namespace finelb::telemetry {
namespace {

struct LiveServers {
  std::vector<std::unique_ptr<cluster::ServerNode>> servers;
  std::vector<cluster::ServerEndpoints> endpoints;

  explicit LiveServers(int n,
                       std::shared_ptr<fault::FaultInjector> fault = nullptr,
                       int faulty_index = -1) {
    for (int s = 0; s < n; ++s) {
      cluster::ServerOptions opts;
      opts.id = s;
      opts.inject_busy_reply_delay = false;
      opts.seed = 100 + static_cast<std::uint64_t>(s);
      if (s == faulty_index) opts.fault = fault;
      servers.push_back(std::make_unique<cluster::ServerNode>(opts));
      servers.back()->start();
      endpoints.push_back({servers.back()->id(),
                           servers.back()->service_address(),
                           servers.back()->load_address()});
    }
  }
  ~LiveServers() {
    for (auto& s : servers) s->stop();
  }
};

// An address that once belonged to a socket and no longer does: inquiries
// to it go nowhere, modelling a crashed node.
net::Address dead_address() {
  net::UdpSocket socket;
  return socket.local_address();
}

TEST(ScrapeHardeningTest, ClusterScrapeReturnsPartialResultsPastDeadNode) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  LiveServers cluster(2);
  std::vector<net::Address> addrs = {cluster.endpoints[0].load_addr,
                                     dead_address(),
                                     cluster.endpoints[1].load_addr};
  const ClusterStatsScrape scrape =
      scrape_cluster_stats(addrs, /*per_node_timeout=*/50 * kMillisecond,
                           /*retries_per_node=*/1);
  EXPECT_EQ(scrape.answered, 2);
  EXPECT_EQ(scrape.failed, 1);
  ASSERT_EQ(scrape.documents.size(), 3u);
  // Input order preserved; only the dead slot is empty.
  ASSERT_TRUE(scrape.documents[0].has_value());
  EXPECT_FALSE(scrape.documents[1].has_value());
  ASSERT_TRUE(scrape.documents[2].has_value());
  EXPECT_NE(scrape.documents[0]->find("\"node\":\"server.0\""),
            std::string::npos)
      << *scrape.documents[0];
  EXPECT_NE(scrape.documents[2]->find("\"node\":\"server.1\""),
            std::string::npos);
  EXPECT_EQ(scrape.answered_documents().size(), 2u);
}

TEST(ScrapeHardeningTest, ClusterScrapeSurvivesFaultInjectedStatsSocket) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Server 1's sockets (including the load socket answering STATS_INQUIRY)
  // drop every datagram: the scrape must charge that node one failed slot
  // and still return server 0's document.
  auto blackhole = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::symmetric_loss(1.0));
  LiveServers cluster(2, blackhole, /*faulty_index=*/1);
  const std::vector<net::Address> addrs = {cluster.endpoints[0].load_addr,
                                           cluster.endpoints[1].load_addr};
  const ClusterStatsScrape scrape =
      scrape_cluster_stats(addrs, /*per_node_timeout=*/50 * kMillisecond,
                           /*retries_per_node=*/2);
  EXPECT_EQ(scrape.answered, 1);
  EXPECT_EQ(scrape.failed, 1);
  ASSERT_EQ(scrape.documents.size(), 2u);
  EXPECT_TRUE(scrape.documents[0].has_value());
  EXPECT_FALSE(scrape.documents[1].has_value());
  EXPECT_GT(blackhole->counters().drops, 0);
}

TEST(ScrapeHardeningTest, SingleNodeScrapeTimesOutCleanly) {
  EXPECT_EQ(scrape_stats(dead_address(), 50 * kMillisecond), std::nullopt);
  EXPECT_EQ(scrape_trace(dead_address(), 50 * kMillisecond), std::nullopt);
  EXPECT_EQ(scrape_decisions(dead_address(), 50 * kMillisecond),
            std::nullopt);
}

// The serve-side stats helper: a document inside the wire format's 64 KiB
// string cap arrives as a STATS_REPLY; one over the cap is refused before
// anything reaches the socket.
TEST(AnswerStatsTest, OverCapDocumentReturnsFalseAndSendsNothing) {
  net::UdpSocket node;
  net::UdpSocket scraper;
  net::Poller poller;
  poller.add(scraper.fd(), 0);
  std::vector<std::uint8_t> buf(64 * 1024);

  ASSERT_TRUE(answer_stats_inquiry(node, scraper.local_address(), 7,
                                   "{\"node\":\"server.0\"}"));
  ASSERT_FALSE(poller.wait(200 * kMillisecond).empty());
  const auto dgram = scraper.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());
  net::StatsReply reply;
  ASSERT_TRUE(net::StatsReply::try_decode({buf.data(), dgram->size}, reply));
  EXPECT_EQ(reply.seq, 7u);
  EXPECT_EQ(reply.payload, "{\"node\":\"server.0\"}");

  EXPECT_FALSE(answer_stats_inquiry(node, scraper.local_address(), 8,
                                    std::string(70'000, 'x')));
  EXPECT_TRUE(poller.wait(50 * kMillisecond).empty());
  EXPECT_FALSE(scraper.recv_from(buf).has_value());
}

// The chunked DECISION_INQUIRY channel end to end: a live client answering
// on its service socket hands its decision ring to a wire scraper mid-run.
TEST(ScrapeDecisionsTest, PullsAuditRecordsFromLiveClient) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  LiveServers cluster(2);
  cluster::ClientOptions copts;
  copts.id = 3;
  copts.policy = PolicyConfig::polling(2);
  copts.servers = cluster.endpoints;
  copts.total_requests = 1500;
  copts.warmup_requests = 0;
  copts.seed = 7;
  copts.decision_sample_period = 1;  // audit every dispatch
  static const Workload workload = make_poisson_exp(0.002);
  cluster::ClientNode client(copts, workload.make_source(1.0, 901));

  std::atomic<bool> done{false};
  std::thread runner([&] {
    client.run();
    done.store(true);
  });
  NodeDecisionScrape scrape;
  bool got = false;
  while (!done.load()) {
    auto result =
        scrape_decisions(client.decision_scrape_addr(), 50 * kMillisecond);
    if (result && !result->records.empty()) {
      scrape = std::move(*result);
      got = true;
      break;
    }
  }
  runner.join();
  ASSERT_TRUE(got) << "client finished before a decision scrape landed";
  EXPECT_EQ(scrape.node, 3);
  EXPECT_TRUE(scrape.complete);
  EXPECT_FALSE(scrape.clock_samples.empty());
  for (const DecisionRecord& rec : scrape.records) {
    EXPECT_NE(rec.chosen, kInvalidServer);
    if (!rec.blind_fallback) {
      ASSERT_GT(rec.polled_count, 0);
      ASSERT_LE(rec.polled_count, kDecisionPollMax);
      for (std::uint8_t i = 0; i < rec.polled_count; ++i) {
        EXPECT_GE(rec.polled[i].server, 0);
        EXPECT_LT(rec.polled[i].server, 2);
        EXPECT_GE(rec.polled[i].queue_length, 0);
      }
    }
  }
  // The wire records must reconcile with the in-process ring: every scraped
  // id is one the ring produced (the ring may have wrapped past the oldest).
  const std::vector<DecisionRecord> ring = client.decisions().snapshot();
  EXPECT_FALSE(ring.empty());
}

}  // namespace
}  // namespace finelb::telemetry
