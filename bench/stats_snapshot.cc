// Observability harness: stand up a 16-server prototype cluster, drive it
// with a polling client, and scrape every server's telemetry over the
// STATS_INQUIRY pull channel *while the run is live* — the operator's view
// of a production cluster, not a post-mortem. The merged live document goes
// to stdout; `--json=PATH` writes every node's final document after the run
// so the two can be compared. JSON pull is the only export channel.
//
// After the run the harness also pulls every server's trace ring over the
// TRACE_INQUIRY channel (clock-synced from the scrape round trips), merges
// it with the client's in-process ring, and reports the measured staleness
// distribution |Q(t_reply) - Q(t_dispatch)| against the Equation 1 bound —
// the same observatory fig2_staleness_proto sweeps across load levels.
//
// The decision observatory is live too: `--decision_period=N` audits every
// Nth dispatch decision into the client's ring, which is pulled over the
// chunked DECISION_INQUIRY channel mid-run and joined with the merged
// traces for the measured mistake-rate/regret summary.
//
//   stats_snapshot [--servers=16] [--requests=4000] [--load=0.7]
//                  [--poll_size=3] [--trace_period=64] [--decision_period=16]
//                  [--seed=1] [--json=PATH] [--trace_json=PATH]
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/client_node.h"
#include "cluster/server_node.h"
#include "common/flags.h"
#include "common/log.h"
#include "net/clock.h"
#include "stats/queueing.h"
#include "telemetry/clock_sync.h"
#include "telemetry/decision.h"
#include "telemetry/export.h"
#include "telemetry/merge.h"
#include "telemetry/scrape.h"
#include "workload/catalog.h"

using namespace finelb;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  init_log_level(flags);
  const int servers = static_cast<int>(flags.get_int("servers", 16));
  const std::int64_t requests = flags.get_int("requests", 4000);
  const double load = flags.get_double("load", 0.7);
  const int poll_size = static_cast<int>(flags.get_int("poll_size", 3));
  const auto trace_period =
      static_cast<std::uint32_t>(flags.get_int("trace_period", 64));
  const auto decision_period =
      static_cast<std::uint32_t>(flags.get_int("decision_period", 16));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_path = flags.get_string("json", "");
  const std::string trace_json_path = flags.get_string("trace_json", "");

  const Workload workload = make_poisson_exp(0.005);  // 5 ms mean service

  // --- cluster ---------------------------------------------------------------
  std::vector<std::unique_ptr<cluster::ServerNode>> nodes;
  std::vector<cluster::ServerEndpoints> endpoints;
  for (int s = 0; s < servers; ++s) {
    cluster::ServerOptions opts;
    opts.id = s;
    opts.inject_busy_reply_delay = false;
    opts.trace_sample_period = trace_period;
    opts.seed = seed + static_cast<std::uint64_t>(s) * 7919;
    nodes.push_back(std::make_unique<cluster::ServerNode>(opts));
    nodes.back()->start();
    endpoints.push_back({nodes.back()->id(), nodes.back()->service_address(),
                         nodes.back()->load_address()});
  }

  cluster::ClientOptions copts;
  copts.id = 0;
  copts.policy = PolicyConfig::polling(poll_size);
  copts.servers = endpoints;
  copts.total_requests = requests;
  copts.warmup_requests = requests / 10;
  copts.trace_sample_period = trace_period;
  copts.decision_sample_period = decision_period;
  copts.seed = seed + 31;
  const double scale = workload.arrival_scale_for_load(load, servers);
  cluster::ClientNode client(std::move(copts),
                             workload.make_source(scale, seed + 211));

  std::thread driver([&client] { client.run(); });

  // --- live scrape -----------------------------------------------------------
  // Let the cluster absorb some traffic, then pull every server's snapshot
  // over the wire mid-run. A node that missed the (UDP) inquiry is retried
  // once; persistent silence is reported rather than fatal.
  net::sleep_for(300 * kMillisecond);
  std::vector<net::Address> load_addrs;
  load_addrs.reserve(nodes.size());
  for (const auto& node : nodes) load_addrs.push_back(node->load_address());
  // Hardened cluster scrape: per-node timeout plus one retry, partial
  // results returned — a silent node costs its document, not the sweep.
  const telemetry::ClusterStatsScrape scraped =
      telemetry::scrape_cluster_stats(load_addrs);
  std::vector<std::string> docs = scraped.answered_documents();
  const std::string live = telemetry::cluster_to_json(docs);
  const std::size_t live_answered = docs.size();
  const int unreachable = scraped.failed;

  // Pull the client's decision ring over the chunked DECISION_INQUIRY
  // channel while the run is live (the client's service socket answers).
  const auto decision_scrape =
      telemetry::scrape_decisions(client.decision_scrape_addr());

  driver.join();

  // --- trace pull + staleness observatory ------------------------------------
  // Scrape rings before stopping the servers: the TRACE_INQUIRY channel
  // rides the same load-index socket the run just used, and each chunked
  // round trip contributes a clock-sync sample for the merge.
  std::vector<telemetry::NodeTrace> traces;
  int trace_unreachable = 0;
  for (const auto& node : nodes) {
    telemetry::NodeTrace trace;
    trace.source = "server." + std::to_string(node->id());
    if (auto scrape = telemetry::scrape_trace(node->load_address())) {
      telemetry::ClockSync sync;
      for (const auto& s : scrape->clock_samples) {
        sync.add_sample(s.local_send_ns, s.remote_ns, s.local_recv_ns);
      }
      trace.clock_offset_ns = sync.offset_ns();
      trace.records = std::move(scrape->records);
    } else {
      ++trace_unreachable;
    }
    traces.push_back(std::move(trace));
  }
  {
    telemetry::NodeTrace trace;
    trace.source = "client.0";
    trace.records = client.trace().snapshot();
    traces.push_back(std::move(trace));
  }
  const auto merged = telemetry::merge_traces(traces);
  const auto staleness = telemetry::compute_staleness(merged);

  for (auto& node : nodes) node->stop();

  // --- decision observatory --------------------------------------------------
  // Join the audited decisions (post-run ring snapshot; the wire pull above
  // demonstrated the live channel) with the merged timeline: each decision's
  // realized queue depth comes from its kResponse trace record.
  const std::vector<DecisionRecord> decisions = client.decisions().snapshot();
  const telemetry::DecisionQualitySummary quality =
      telemetry::reconstruct_decision_quality(decisions, merged);

  // --- final snapshots -------------------------------------------------------
  docs.clear();
  for (const auto& node : nodes) docs.push_back(node->stats_json());
  docs.push_back(client.stats_json());
  const std::string final_doc = telemetry::cluster_to_json(docs);

  bench::print_header(
      "Cluster stats snapshot (STATS_INQUIRY pull channel)",
      std::to_string(servers) + " servers, polling(" +
          std::to_string(poll_size) + "), Poisson/Exp 5 ms, " +
          bench::Table::pct(load, 0) + " load, " + std::to_string(requests) +
          " accesses; scraped live over UDP, then again after the run");
  std::printf("live scrape: %zu/%d servers answered (%d unreachable)\n",
              live_answered, servers, unreachable);
  std::printf("%s\n", live.c_str());

  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", final_doc.c_str());
      std::fclose(f);
      std::printf("final cluster document written to %s\n",
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  const cluster::ClientStats& stats = client.stats();
  std::printf("completed %lld/%lld accesses, %lld polls, %lld discarded\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.issued),
              static_cast<long long>(stats.polls_sent),
              static_cast<long long>(stats.polls_discarded));

  std::printf(
      "\ntrace pull: %zu/%d servers answered (%d unreachable), "
      "%zu merged records\n",
      traces.size() - 1 - static_cast<std::size_t>(trace_unreachable),
      servers, trace_unreachable, merged.size());
  std::printf("staleness |Q(t_reply)-Q(t_dispatch)|: %s\n",
              telemetry::staleness_to_json(staleness).c_str());
  std::printf("Equation 1 bound at %s load: %.3f (measured mean %.3f)\n",
              bench::Table::pct(load, 0).c_str(),
              queueing::stale_index_inaccuracy_bound(load),
              staleness.mean_abs_diff);
  if (!trace_json_path.empty()) {
    if (std::FILE* f = std::fopen(trace_json_path.c_str(), "w")) {
      const std::string doc = telemetry::to_chrome_trace_json(merged, traces);
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("Perfetto trace written to %s\n", trace_json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_json_path.c_str());
      return 1;
    }
  }

  // --- decision observatory report -------------------------------------------
  if (decision_scrape) {
    std::printf(
        "\ndecision pull (DECISION_INQUIRY over UDP, mid-run): "
        "%zu records from node %d%s\n",
        decision_scrape->records.size(), decision_scrape->node,
        decision_scrape->complete ? "" : " (partial)");
  } else {
    std::printf("\ndecision pull (DECISION_INQUIRY over UDP): no answer\n");
  }
  std::printf("decision quality over %zu audited decisions: %s\n",
              decisions.size(),
              telemetry::decision_quality_to_json(quality).c_str());
  return 0;
}
