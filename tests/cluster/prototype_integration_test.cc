// End-to-end prototype experiments at reduced scale: the full Figure 5
// system (servers, directory, manager, clients) on loopback. Workloads are
// shrunk (4 servers, 2 clients, a few hundred requests, 5 ms services) so
// the whole suite stays fast; the full-scale runs live in bench/.
#include <gtest/gtest.h>

#include <string>

#include "cluster/experiment.h"
#include "net/clock.h"
#include "telemetry/metrics.h"
#include "workload/catalog.h"

namespace finelb::cluster {
namespace {

PrototypeConfig small_config(PolicyConfig policy, double load = 0.6) {
  PrototypeConfig config;
  config.servers = 4;
  config.clients = 2;
  config.policy = policy;
  config.load = load;
  config.total_requests = 600;
  config.per_request_overhead_sec = 300e-6;
  config.seed = 11;
  return config;
}

const Workload& fast_workload() {
  static const Workload w = make_poisson_exp(0.005);  // 5 ms services
  return w;
}

TEST(PrototypeIntegrationTest, RandomPolicyEndToEnd) {
  const PrototypeResult r =
      run_prototype(small_config(PolicyConfig::random()), fast_workload());
  EXPECT_EQ(r.clients.issued, 600);
  EXPECT_GE(r.clients.completed, 590) << "loopback UDP loss should be rare";
  EXPECT_EQ(r.servers.requests_served, r.clients.completed);
  EXPECT_GT(r.clients.response_ms.mean(), 5.0);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(PrototypeIntegrationTest, PollingUsesDirectoryAndPolls) {
  const PrototypeResult r =
      run_prototype(small_config(PolicyConfig::polling(2)), fast_workload());
  EXPECT_GE(r.clients.completed, 590);
  EXPECT_GE(r.clients.polls_sent, 2 * 590);
  EXPECT_GT(r.servers.inquiries_answered, 0);
}

TEST(PrototypeIntegrationTest, IdealRunsThroughManager) {
  const PrototypeResult r =
      run_prototype(small_config(PolicyConfig::ideal()), fast_workload());
  EXPECT_GE(r.clients.completed, 590);
  EXPECT_EQ(r.clients.manager_timeouts, 0);
}

TEST(PrototypeIntegrationTest, StaticEndpointsWithoutDirectory) {
  PrototypeConfig config = small_config(PolicyConfig::polling(2));
  config.use_directory = false;
  const PrototypeResult r = run_prototype(config, fast_workload());
  EXPECT_GE(r.clients.completed, 590);
}

TEST(PrototypeIntegrationTest, PollingBeatsRandomUnderHighLoad) {
  // The paper's central claim, at integration-test scale. 5 ms services at
  // 85% load on 4 servers: random suffers queueing that polling(2) avoids.
  PrototypeConfig config = small_config(PolicyConfig::random(), 0.85);
  config.total_requests = 2000;
  const double random_ms =
      run_prototype(config, fast_workload()).clients.response_ms.mean();
  config.policy = PolicyConfig::polling(2);
  const double polling_ms =
      run_prototype(config, fast_workload()).clients.response_ms.mean();
  EXPECT_LT(polling_ms, random_ms)
      << "power of two choices must beat random at high load";
}

TEST(PrototypeIntegrationTest, DiscardModeReducesPollTime) {
  PrototypeConfig config = small_config(PolicyConfig::polling(3), 0.8);
  config.total_requests = 1500;
  config.inject_busy_reply_delay = true;  // slow replies exist to discard
  const PrototypeResult basic = run_prototype(config, fast_workload());
  config.policy = PolicyConfig::polling(3, from_ms(1.0));
  const PrototypeResult discard = run_prototype(config, fast_workload());
  EXPECT_LT(discard.clients.poll_time_ms.mean(),
            basic.clients.poll_time_ms.mean())
      << "discarding slow polls must reduce mean polling time";
  EXPECT_GE(discard.clients.completed, 1400);
}

TEST(PrototypeIntegrationTest, CalibrationMeasuresPositiveOverhead) {
  const double overhead = calibrate_overhead(fast_workload(), 200, 3);
  EXPECT_GE(overhead, 0.0);
  EXPECT_LT(overhead, 0.05) << "per-request overhead should be well under "
                               "50 ms on loopback";
}

TEST(PrototypeIntegrationTest, ObservabilityCollectsNodeStats) {
  // Exercises the experiment's telemetry wiring end to end: lifecycle
  // tracing on every 16th request and per-node JSON snapshots collected
  // into the result (servers first, then clients).
  PrototypeConfig config = small_config(PolicyConfig::polling(2));
  config.trace_sample_period = 16;
  config.collect_node_stats = true;
  const PrototypeResult r = run_prototype(config, fast_workload());
  EXPECT_GE(r.clients.completed, 590);
  ASSERT_EQ(r.node_stats_json.size(),
            static_cast<std::size_t>(config.servers + config.clients));
  EXPECT_NE(r.node_stats_json.front().find("\"node\":\"server.0\""),
            std::string::npos);
  EXPECT_NE(r.node_stats_json.back().find("\"node\":\"client.1\""),
            std::string::npos);
  if constexpr (telemetry::kEnabled) {
    for (const std::string& doc : r.node_stats_json) {
      EXPECT_NE(doc.find("\"counters\""), std::string::npos);
    }
    EXPECT_NE(r.node_stats_json.front().find("\"queue_depth\""),
              std::string::npos);
    EXPECT_NE(r.node_stats_json.back().find("\"poll_rtt_ms\""),
              std::string::npos);
  }
}

TEST(PrototypeIntegrationTest, ConfigValidation) {
  PrototypeConfig config = small_config(PolicyConfig::random());
  config.load = 0.0;
  EXPECT_THROW(run_prototype(config, fast_workload()), InvariantError);
  config.load = 0.5;
  config.servers = 0;
  EXPECT_THROW(run_prototype(config, fast_workload()), InvariantError);
}

}  // namespace
}  // namespace finelb::cluster
