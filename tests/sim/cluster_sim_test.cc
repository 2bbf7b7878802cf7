#include "sim/config.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/check.h"
#include "telemetry/decision.h"
#include "workload/catalog.h"

namespace finelb::sim {
namespace {

SimConfig base_config(PolicyConfig policy, double load = 0.9) {
  SimConfig config;
  config.servers = 16;
  config.clients = 6;
  config.policy = policy;
  config.load = load;
  config.total_requests = 60'000;
  config.warmup_requests = 6'000;
  config.seed = 3;
  return config;
}

const Workload& poisson50() {
  static const Workload w = make_poisson_exp(0.050);
  return w;
}

TEST(ClusterSimTest, AllRequestsComplete) {
  const SimResult r = run_cluster_sim(base_config(PolicyConfig::random()),
                                      poisson50());
  EXPECT_EQ(r.completed, 60'000);
  EXPECT_EQ(r.response_ms.count(), 60'000 - 6'000);
}

TEST(ClusterSimTest, UtilizationTracksOfferedLoad) {
  for (const double load : {0.5, 0.9}) {
    const SimResult r = run_cluster_sim(
        base_config(PolicyConfig::random(), load), poisson50());
    EXPECT_NEAR(r.utilization, load, 0.03) << "load=" << load;
  }
}

TEST(ClusterSimTest, PolicyOrderingAtHighLoad) {
  // The paper's core qualitative result: ideal < polling(2) << random.
  const double ideal =
      run_cluster_sim(base_config(PolicyConfig::ideal()), poisson50())
          .mean_response_ms();
  const double poll2 =
      run_cluster_sim(base_config(PolicyConfig::polling(2)), poisson50())
          .mean_response_ms();
  const double random =
      run_cluster_sim(base_config(PolicyConfig::random()), poisson50())
          .mean_response_ms();
  EXPECT_LT(ideal, poll2);
  EXPECT_LT(poll2, random);
  // Mitzenmacher: two choices is an *exponential* improvement; at 90% load
  // the gap is large.
  EXPECT_LT(poll2, random * 0.5);
}

TEST(ClusterSimTest, PollSizeTwoCapturesMostOfTheBenefit) {
  // Poll size 8 must not be dramatically better than 2 (paper Fig. 4), in a
  // simulator that does not charge for polls.
  const double poll2 =
      run_cluster_sim(base_config(PolicyConfig::polling(2)), poisson50())
          .mean_response_ms();
  const double poll8 =
      run_cluster_sim(base_config(PolicyConfig::polling(8)), poisson50())
          .mean_response_ms();
  EXPECT_LT(poll8, poll2);               // more information still helps...
  EXPECT_GT(poll8, poll2 * 0.55);        // ...but not by much
}

TEST(ClusterSimTest, PollAccountingIsConsistent) {
  SimConfig config = base_config(PolicyConfig::polling(3));
  config.total_requests = 10'000;
  config.warmup_requests = 1'000;
  const SimResult r = run_cluster_sim(config, poisson50());
  EXPECT_EQ(r.polls_sent, 3 * 10'000);
  EXPECT_EQ(r.polls_discarded, 0);  // no discard timeout configured
  // Messages: per request 3 inquiries + 3 replies + request + response.
  EXPECT_EQ(r.messages, 10'000 * (3 + 3 + 1 + 1));
  EXPECT_GT(r.poll_time_ms.mean(), 0.0);
}

TEST(ClusterSimTest, EngineEventsPerAccess) {
  // Random: the arrival, the request landing, the service completion and
  // the response. Polling adds one event per poll leg (the inquiries land
  // together, and so do the replies), whatever the poll size.
  const std::pair<PolicyConfig, std::int64_t> cases[] = {
      {PolicyConfig::random(), 4},
      {PolicyConfig::polling(3), 6},
      {PolicyConfig::polling(16), 6}};
  for (const auto& [policy, events_per_access] : cases) {
    SimConfig config = base_config(policy);
    config.total_requests = 10'000;
    config.warmup_requests = 1'000;
    const SimResult r = run_cluster_sim(config, poisson50());
    EXPECT_EQ(r.completed, 10'000);
    EXPECT_EQ(r.events, events_per_access * 10'000) << policy.describe();
  }
}

TEST(ClusterSimTest, DiscardTimeoutDropsSlowReplies) {
  SimConfig config = base_config(PolicyConfig::polling(3, from_us(200)));
  // Make replies slower than the discard deadline for busy servers.
  config.network.poll_reply_cpu = from_us(100);
  config.network.poll_reply_scales_with_queue = true;
  config.total_requests = 10'000;
  config.warmup_requests = 1'000;
  const SimResult r = run_cluster_sim(config, poisson50());
  EXPECT_GT(r.polls_discarded, 0);
  EXPECT_EQ(r.completed, 10'000);
  // Poll time is now bounded by the discard deadline (plus epsilon).
  EXPECT_LE(r.poll_time_ms.max(), to_ms(from_us(200)) + 0.001);
}

TEST(ClusterSimTest, RoundRobinBeatsRandomUnderPoissonExp) {
  // Round-robin spaces arrivals per server, cutting arrival variance.
  const double rr =
      run_cluster_sim(base_config(PolicyConfig::round_robin()), poisson50())
          .mean_response_ms();
  const double random =
      run_cluster_sim(base_config(PolicyConfig::random()), poisson50())
          .mean_response_ms();
  EXPECT_LT(rr, random);
}

TEST(ClusterSimTest, BroadcastDegradesWithStalerInformation) {
  const double fresh =
      run_cluster_sim(base_config(PolicyConfig::broadcast(from_ms(2))),
                      poisson50())
          .mean_response_ms();
  const double stale =
      run_cluster_sim(base_config(PolicyConfig::broadcast(from_ms(500))),
                      poisson50())
          .mean_response_ms();
  EXPECT_GT(stale, fresh * 2.0)
      << "stale broadcast info must hurt badly at 90% load";
}

TEST(ClusterSimTest, BroadcastMessageCountScalesWithClients) {
  SimConfig config = base_config(PolicyConfig::broadcast(from_ms(100)));
  config.total_requests = 10'000;
  config.warmup_requests = 1'000;
  const SimResult r6 = run_cluster_sim(config, poisson50());
  config.clients = 3;
  const SimResult r3 = run_cluster_sim(config, poisson50());
  // §2.4: broadcast messages scale with the number of listening clients.
  EXPECT_GT(r6.messages - 2 * 10'000, (r3.messages - 2 * 10'000) * 3 / 2);
  EXPECT_GT(r6.broadcasts_sent, 0);
}

TEST(ClusterSimTest, IdealObservesBalancedQueues) {
  const SimResult r =
      run_cluster_sim(base_config(PolicyConfig::ideal()), poisson50());
  const SimResult random =
      run_cluster_sim(base_config(PolicyConfig::random()), poisson50());
  EXPECT_LT(r.queue_on_arrival.mean(), random.queue_on_arrival.mean());
}

TEST(ClusterSimTest, TraceWorkloadsRun) {
  const Workload fine = make_fine_grain(20'000, 5);
  SimConfig config = base_config(PolicyConfig::polling(2), 0.7);
  config.total_requests = 30'000;
  config.warmup_requests = 3'000;
  const SimResult r = run_cluster_sim(config, fine);
  EXPECT_EQ(r.completed, 30'000);
  EXPECT_GT(r.mean_response_ms(), to_ms(from_sec(0.0222)) * 0.9);
}

TEST(ClusterSimTest, ConfigValidation) {
  SimConfig config = base_config(PolicyConfig::random());
  config.load = 1.5;
  EXPECT_THROW(run_cluster_sim(config, poisson50()), InvariantError);
  config.load = 0.9;
  config.servers = 0;
  EXPECT_THROW(run_cluster_sim(config, poisson50()), InvariantError);
  config.servers = 16;
  config.warmup_requests = config.total_requests;
  EXPECT_THROW(run_cluster_sim(config, poisson50()), InvariantError);
}

TEST(ClusterSimTest, DecisionAuditingDoesNotPerturbTheRun) {
  // Attaching a decision sink must not change a seeded run: the recorded
  // selection calls consume the RNG exactly like the unrecorded ones.
  SimConfig config = base_config(PolicyConfig::polling(3), 0.7);
  config.total_requests = 10'000;
  config.warmup_requests = 1'000;
  const SimResult bare = run_cluster_sim(config, poisson50());

  telemetry::DecisionRing ring(1024, /*sample_period=*/1);
  config.decision_sink = ring.sink();
  const SimResult audited = run_cluster_sim(config, poisson50());

  EXPECT_EQ(audited.completed, bare.completed);
  EXPECT_DOUBLE_EQ(audited.response_ms.mean(), bare.response_ms.mean());
  EXPECT_EQ(audited.polls_sent, bare.polls_sent);
  EXPECT_EQ(audited.messages, bare.messages);
  // The exact regret accounting is sink-independent (post-warmup only).
  EXPECT_EQ(audited.decisions, bare.decisions);
  EXPECT_EQ(audited.decision_mistakes, bare.decision_mistakes);
  EXPECT_EQ(audited.decisions,
            config.total_requests - config.warmup_requests);
  if (telemetry::kEnabled) {
    // The ring saw the tail of the run's decisions, polled set included.
    const auto records = ring.snapshot();
    ASSERT_EQ(records.size(), ring.capacity());
    for (const auto& rec : records) {
      EXPECT_GE(rec.chosen, 0);
      EXPECT_LT(rec.chosen, config.servers);
      if (!rec.blind_fallback) {
        EXPECT_GT(rec.polled_count, 0);
      }
    }
  }
}

TEST(ClusterSimTest, ResponseTimeIncludesNetworkTransit) {
  // At trivial load the mean response must be at least service + 2 legs.
  SimConfig config = base_config(PolicyConfig::random(), 0.05);
  config.total_requests = 5'000;
  config.warmup_requests = 500;
  const SimResult r = run_cluster_sim(config, poisson50());
  EXPECT_GT(r.mean_response_ms(), 50.0 + 2 * to_ms(from_us(129)) - 1.0);
}

}  // namespace
}  // namespace finelb::sim
