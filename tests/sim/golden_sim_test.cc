// Golden digests of small seeded simulator runs, one per policy shape.
//
// Seeded sim output is bit-deterministic, so a refactor of the dispatch
// path can be checked for behaviour preservation by hashing what a run
// reports. The hashed fields are the ones perfbench's sim_digest covers
// (counts, response-time moments and quantiles, utilization, the per-server
// split) plus the fault and fallback counters. A digest mismatch means the
// run consumed its random streams or scheduled its events differently;
// update a digest only with a change that is meant to alter sim output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/config.h"
#include "workload/catalog.h"

namespace finelb::sim {
namespace {

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

std::string digest(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](auto v) { h = fnv(h, &v, sizeof v); };
  mix(r.completed);
  mix(r.failed);
  mix(r.messages);
  mix(r.polls_sent);
  mix(r.polls_discarded);
  mix(r.decisions);
  mix(r.decision_mistakes);
  mix(r.decision_regret_total);
  mix(r.response_ms.count());
  mix(r.response_ms.mean());
  mix(r.response_ms.variance());
  mix(r.response_hist_ms.p50());
  mix(r.response_hist_ms.p99());
  mix(r.utilization);
  for (const std::int64_t s : r.per_server_served) mix(s);
  mix(r.poll_fallbacks);
  mix(r.drops_injected);
  mix(r.decision_blind_fallbacks);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

const Workload& fine() {
  static const Workload w = make_fine_grain(20'000, 5);
  return w;
}

SimConfig config(PolicyConfig policy) {
  SimConfig c;
  c.servers = 16;
  c.clients = 6;
  c.policy = policy;
  c.load = 0.9;
  c.total_requests = 20'000;
  c.warmup_requests = 2'000;
  c.seed = 11;
  return c;
}

TEST(GoldenSimTest, Random) {
  EXPECT_EQ(digest(run_cluster_sim(config(PolicyConfig::random()), fine())),
            "8102f400f32ea070");
}

TEST(GoldenSimTest, RoundRobin) {
  EXPECT_EQ(
      digest(run_cluster_sim(config(PolicyConfig::round_robin()), fine())),
      "fc2772124eca1bad");
}

TEST(GoldenSimTest, Ideal) {
  EXPECT_EQ(digest(run_cluster_sim(config(PolicyConfig::ideal()), fine())),
            "96940f72876d422e");
}

TEST(GoldenSimTest, BroadcastJitterOptimistic) {
  PolicyConfig policy = PolicyConfig::broadcast(from_ms(100), /*jitter=*/true);
  policy.optimistic_increment = true;
  EXPECT_EQ(digest(run_cluster_sim(config(policy), fine())),
            "5d1423b883900997");
}

TEST(GoldenSimTest, Polling3) {
  EXPECT_EQ(digest(run_cluster_sim(config(PolicyConfig::polling(3)), fine())),
            "63cb52fb3ea58cb5");
}

TEST(GoldenSimTest, Polling3Memory) {
  PolicyConfig policy = PolicyConfig::polling(3);
  policy.poll_memory = true;
  EXPECT_EQ(digest(run_cluster_sim(config(policy), fine())),
            "c5cc56ea46fdbf5f");
}

TEST(GoldenSimTest, Polling3DiscardBelowPollRtt) {
  // The model's poll round trip is 290 us, so a 200 us discard deadline
  // decides every round blind, with no fault involved.
  const SimResult r = run_cluster_sim(
      config(PolicyConfig::polling(3, from_us(200))), fine());
  EXPECT_EQ(r.poll_fallbacks, r.completed);
  EXPECT_EQ(digest(r), "d41914e69b080585");
}

TEST(GoldenSimTest, Polling3QueueScaledReplies) {
  // Each reply is delayed by poll_reply_cpu per queued access, so one
  // round's replies land at different instants.
  SimConfig c = config(PolicyConfig::polling(3));
  c.network.poll_reply_cpu = from_us(20);
  c.network.poll_reply_scales_with_queue = true;
  EXPECT_EQ(digest(run_cluster_sim(c, fine())), "ce4d284796d4d101");
}

TEST(GoldenSimTest, Polling16PollsEveryServer) {
  // A poll set wider than kDecisionPollMax: every server, every round.
  const SimResult r =
      run_cluster_sim(config(PolicyConfig::polling(16)), fine());
  EXPECT_EQ(r.polls_sent, 16 * r.completed);
  EXPECT_EQ(digest(r), "8f518f537b0c36e9");
}

TEST(GoldenSimTest, Polling3LossAndCrashRestart) {
  SimConfig c = config(PolicyConfig::polling(3));
  c.faults.msg_loss_prob = 0.05;
  c.faults.crashes = {{3, 10 * kSecond, 20 * kSecond}};
  const SimResult r = run_cluster_sim(c, fine());
  EXPECT_GT(r.failed, 0);
  EXPECT_GT(r.poll_fallbacks, 0);
  EXPECT_EQ(digest(r), "004cacf4cadd9c80");
}

TEST(GoldenSimTest, Polling3OutagePauseResume) {
  // Two servers pause mid-run: arrivals keep queueing and polls keep seeing
  // the growing queue; the resume starts the backlog again.
  SimConfig c = config(PolicyConfig::polling(3));
  c.outages = {{2, 5 * kSecond, 3 * kSecond}, {9, 12 * kSecond, 1 * kSecond}};
  EXPECT_EQ(digest(run_cluster_sim(c, fine())), "847dcd9d3cd3f977");
}

TEST(GoldenSimTest, Polling3HeterogeneousSpeeds) {
  // Four fast servers: service scales by speed, and utilization is the
  // scaled busy time over the run.
  SimConfig c = config(PolicyConfig::polling(3));
  c.server_speeds.assign(16, 1.0);
  for (int s = 0; s < 4; ++s) c.server_speeds[s] = 2.0;
  EXPECT_EQ(digest(run_cluster_sim(c, fine())), "42732d383f8af549");
}

}  // namespace
}  // namespace finelb::sim
