// Decision-observatory overhead gate (bench-smoke: micro_decision --smoke).
//
//   micro_decision [--smoke] [--json=BENCH_decision.json]
//
// The decision ring's hot-path promise mirrors the trace ring's: auditing
// every dispatch decision must not allocate in steady state and must not
// move the poll round-trip p50. Two measurements, both gated under --smoke:
//
//   * poll RTT with the choke-point selection unrecorded vs recorded into a
//     live DecisionRing every round (record construction + seqlock write on
//     the reply path) — gate: p50 overhead <= 2% plus absolute slack for
//     scheduler noise;
//   * marginal allocs/access of a real two-server polling(2) cluster with
//     decision_sample_period=1 (every decision audited), measured as
//     A(2N) - A(N) over N so warmup allocations cancel — gate: 0.00
//     steady-state allocs (same noise thresholds as micro_net's gates).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "cluster/client_node.h"
#include "cluster/server_node.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/selection.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"
#include "telemetry/decision.h"
#include "workload/catalog.h"

namespace finelb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RttStats {
  int rounds = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Poll round trip over loopback with the decision choke point on the reply
/// path: every round ends in a 3-candidate least-loaded pick, unrecorded
/// (ring == nullptr) or recorded into the ring — isolating exactly the
/// marginal cost decision auditing adds to the polling agent.
RttStats measure_poll_rtt(int rounds, telemetry::DecisionRing* ring) {
  net::UdpSocket server;
  net::UdpSocket client;
  client.connect(server.local_address());
  net::Poller client_poller;
  client_poller.add(client.fd(), 0);
  net::Poller server_poller;
  server_poller.add(server.fd(), 0);
  std::array<std::uint8_t, 64> buf{};
  Rng rng(7);
  std::array<ServerLoad, 3> loads{};
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    net::LoadInquiry inquiry;
    inquiry.seq = static_cast<std::uint64_t>(r) + 1;
    const auto start = std::chrono::steady_clock::now();
    client.send(inquiry.encode());
    while (true) {
      server_poller.wait(kSecond);
      if (auto dgram = server.recv_from(buf)) {
        net::LoadReply reply;
        reply.seq = inquiry.seq;
        reply.queue_length = 1;
        server.send_to(reply.encode(), dgram->from);
        break;
      }
    }
    while (true) {
      client_poller.wait(kSecond);
      if (client.recv(buf)) break;
    }
    // The decision the round exists for: 3 polled loads, pick, (maybe)
    // record — the same shapes finish_poll_round feeds the choke point.
    const SimTime now = net::monotonic_now();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      loads[i] = {static_cast<ServerId>(i),
                  static_cast<std::int32_t>((r + static_cast<int>(i)) % 5),
                  now - 200'000};
    }
    if (ring != nullptr) {
      DecisionContext ctx;
      ctx.request_id = static_cast<std::uint64_t>(r);
      ctx.now_ns = now;
      ctx.sink = ring->sink();
      (void)pick_least_loaded(loads, rng, ctx);
    } else {
      (void)pick_least_loaded(loads, rng);
    }
    samples.push_back(seconds_since(start) * 1e6);
  }
  RttStats stats;
  stats.rounds = rounds;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const std::size_t i = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    return samples[i];
  };
  stats.p50_us = at(0.50);
  stats.p99_us = at(0.99);
  return stats;
}

struct AllocCounts {
  std::int64_t client = 0;
  std::int64_t server = 0;
};

/// Real two-server polling(2) cluster with every decision audited
/// (decision_sample_period = 1); counts allocations attributable to the
/// client loop (thread-local) and the server threads (remainder).
AllocCounts run_cluster_accesses(std::int64_t accesses) {
  const std::int64_t local_before = alloc_hook::local();
  const std::int64_t global_before = alloc_hook::global();
  {
    cluster::ServerOptions server_options;
    server_options.worker_threads = 1;
    server_options.inject_busy_reply_delay = false;
    server_options.id = 0;
    cluster::ServerNode s0(server_options);
    server_options.id = 1;
    server_options.seed = 2;
    cluster::ServerNode s1(server_options);
    s0.start();
    s1.start();

    cluster::ClientOptions client_options;
    client_options.policy = PolicyConfig::polling(2);
    client_options.servers = {
        {0, s0.service_address(), s0.load_address()},
        {1, s1.service_address(), s1.load_address()},
    };
    client_options.decision_sample_period = 1;
    client_options.total_requests = accesses;
    client_options.warmup_requests =
        std::min<std::int64_t>(accesses / 4, 100);
    const Workload workload = Workload::from_distributions(
        "alloc-probe", make_deterministic(200e-6), make_deterministic(0.0));
    cluster::ClientNode client(std::move(client_options),
                               workload.make_source(1.0, 7));
    client.run();
    s0.stop();
    s1.stop();
  }
  AllocCounts counts;
  counts.client = alloc_hook::local() - local_before;
  counts.server = (alloc_hook::global() - global_before) - counts.client;
  return counts;
}

struct AllocStats {
  std::int64_t accesses = 0;
  double client_per_access = 0.0;
  double server_per_access = 0.0;
};

AllocStats measure_steady_state_allocs(bool smoke) {
  const std::int64_t n = smoke ? 500 : 2000;
  // Best of up to 6 passes (micro_net's de-flaking rule): pool-growth
  // bursts are worth <= ~0.1 alloc/access of one-sided noise, while a real
  // per-decision allocation shows up in every pass at >= 1/access.
  AllocStats best;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const AllocCounts a1 = run_cluster_accesses(n);
    const AllocCounts a2 = run_cluster_accesses(2 * n);
    AllocStats stats;
    stats.accesses = n;
    stats.client_per_access =
        static_cast<double>(a2.client - a1.client) / static_cast<double>(n);
    stats.server_per_access =
        static_cast<double>(a2.server - a1.server) / static_cast<double>(n);
    const double worst =
        std::max(stats.client_per_access, stats.server_per_access);
    if (attempt == 0 ||
        worst < std::max(best.client_per_access, best.server_per_access)) {
      best = stats;
    }
    if (worst < 0.01) break;
  }
  return best;
}

int run(const std::string& json_path, bool smoke) {
  const int rounds = smoke ? 2'000 : 20'000;
  telemetry::DecisionRing ring(256, /*sample_period=*/1);
  // Best of 2 per mode, interleaved off/on so box-level noise (which only
  // ever slows a pass down) hits both modes alike.
  RttStats off;
  RttStats on;
  for (int pass = 0; pass < 2; ++pass) {
    const RttStats o = measure_poll_rtt(rounds, nullptr);
    if (pass == 0 || o.p50_us < off.p50_us) off = o;
    const RttStats i = measure_poll_rtt(rounds, &ring);
    if (pass == 0 || i.p50_us < on.p50_us) on = i;
  }
  const AllocStats allocs = measure_steady_state_allocs(smoke);

  const double overhead_pct =
      off.p50_us > 0 ? (on.p50_us / off.p50_us - 1.0) * 100.0 : 0.0;
  std::printf("poll rtt p50: %.1f us unrecorded, %.1f us audited (%+.1f%%), "
              "p99 %.1f/%.1f us over %d rounds\n",
              off.p50_us, on.p50_us, overhead_pct, off.p99_us, on.p99_us,
              off.rounds);
  std::printf("steady-state allocs/access with decision auditing on: "
              "client %.4f, server %.4f (marginal over %lld accesses)\n",
              allocs.client_per_access, allocs.server_per_access,
              static_cast<long long>(allocs.accesses));
  std::printf("ring captured %zu records\n", ring.snapshot().size());

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"decision\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(out, "  \"poll_rtt_us\": {\n");
    std::fprintf(out, "    \"rounds\": %d,\n", off.rounds);
    std::fprintf(out, "    \"off\": {\"p50\": %.2f, \"p99\": %.2f},\n",
                 off.p50_us, off.p99_us);
    std::fprintf(out, "    \"on\": {\"p50\": %.2f, \"p99\": %.2f},\n",
                 on.p50_us, on.p99_us);
    std::fprintf(out, "    \"p50_overhead_pct\": %.2f\n", overhead_pct);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"allocs_auditing_on\": {\n");
    std::fprintf(out, "    \"decision_sample_period\": 1,\n");
    std::fprintf(out, "    \"accesses\": %lld,\n",
                 static_cast<long long>(allocs.accesses));
    std::fprintf(out, "    \"client_per_access\": %.4f,\n",
                 allocs.client_per_access);
    std::fprintf(out, "    \"server_per_access\": %.4f\n",
                 allocs.server_per_access);
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
  }

  // Same noise thresholds as micro_net's gates: the smallest real
  // regression (one allocation per audited decision) costs >= 1/access,
  // far above the <= ~0.1/access pool-growth noise floor.
  if (smoke && (allocs.client_per_access >= 0.25 ||
                allocs.server_per_access >= 0.01)) {
    std::fprintf(stderr,
                 "FAIL: decision-audited steady state allocates "
                 "(client %.4f/access, server %.4f/access)\n",
                 allocs.client_per_access, allocs.server_per_access);
    return 1;
  }
  // 2% relative plus 3 us absolute slack: loopback p50 is a handful of
  // microseconds, where one scheduler hiccup is worth more than 2%.
  if (smoke && on.p50_us > off.p50_us * 1.02 + 3.0) {
    std::fprintf(stderr,
                 "FAIL: decision-audit poll-RTT overhead too high "
                 "(p50 %.2f us unrecorded vs %.2f us audited)\n",
                 off.p50_us, on.p50_us);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace finelb

int main(int argc, char** argv) {
  finelb::init_log_level();
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      finelb::set_log_level(finelb::parse_log_level(argv[i] + 12));
    }
  }
  return finelb::run(json_path, smoke);
}
