// Directory fetch trajectory: single node vs replicated control plane.
//
//   micro_directory                         # table to stdout
//   micro_directory --json=BENCH_directory.json [--smoke]
//
// Measures the client-visible cost of the §3.1 availability directory in
// both shapes: the classic single DirectoryServer and a 3-replica
// HaDirectoryCluster whose lease-holding leader serves snapshots
// (DESIGN.md §12). For each shape: fetch round-trip p50/p99 (16 published
// entries, warm client) and the marginal heap allocations per fetch
// (operator-new hook, N-vs-2N so warmup allocations cancel).
//
// Under --smoke the run FAILS if replication is not free on the steady
// path: the replicated directory must add no marginal allocations per
// fetch (the redirect/failover machinery stays off the settled path) and
// at most 5% (+2 us slack) fetch p50 over the single node.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "cluster/directory.h"
#include "cluster/ha/replica.h"
#include "common/log.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/socket.h"

namespace finelb::cluster {
namespace {

constexpr int kEntries = 16;
constexpr const char* kService = "bench";

void publish_entries(const std::vector<net::Address>& directories) {
  net::UdpSocket publisher;
  for (int i = 0; i < kEntries; ++i) {
    net::Publish p;
    p.service = kService;
    p.server = i;
    p.service_port = static_cast<std::uint16_t>(40000 + i);
    p.load_port = static_cast<std::uint16_t>(41000 + i);
    p.ttl_ms = 120'000;  // outlives any bench pass: no mid-run expiry
    for (const net::Address& directory : directories) {
      publisher.send_to(p.encode(), directory);
    }
  }
}

struct FetchStats {
  int rounds = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double allocs_per_fetch = 0.0;
  std::int64_t redirects = 0;
  std::int64_t failovers = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::int64_t allocs_over_fetches(DirectoryClient& client, int n) {
  const std::int64_t before = alloc_hook::local();
  for (int i = 0; i < n; ++i) {
    const auto snapshot = client.fetch(kService);
    if (snapshot.size() != static_cast<std::size_t>(kEntries)) {
      std::fprintf(stderr, "fetch returned %zu entries, expected %d\n",
                   snapshot.size(), kEntries);
      std::exit(1);
    }
  }
  return alloc_hook::local() - before;
}

void percentiles(std::vector<double>& samples, FetchStats& stats) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const std::size_t i = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    return samples[i];
  };
  stats.p50_us = at(0.50);
  stats.p99_us = at(0.99);
}

void timed_fetches(DirectoryClient& client, int rounds,
                   std::vector<double>& samples) {
  for (int r = 0; r < rounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const auto snapshot = client.fetch(kService);
    samples.push_back(seconds_since(start) * 1e6);
    if (snapshot.size() != static_cast<std::size_t>(kEntries)) {
      std::fprintf(stderr, "fetch returned %zu entries, expected %d\n",
                   snapshot.size(), kEntries);
      std::exit(1);
    }
  }
}

/// Marginal N-vs-2N: warmup/capacity allocations cancel, leaving the pure
/// steady-state allocation cost of one fetch (snapshot vector + cache).
double marginal_allocs(DirectoryClient& client, int rounds) {
  const int n = std::max(rounds / 4, 50);
  const std::int64_t a1 = allocs_over_fetches(client, n);
  const std::int64_t a2 = allocs_over_fetches(client, 2 * n);
  return static_cast<double>(a2 - a1) / static_cast<double>(n);
}

int run(const std::string& json_path, bool smoke) {
  const int rounds = smoke ? 2'000 : 10'000;
  constexpr std::int32_t kReplicas = 3;

  // Paired measurement: both shapes live at once, fetch batches strictly
  // alternating. The box's clock-speed drift and neighbor noise dwarf the
  // actual single-vs-replicated delta (~1 us), and only pairing at batch
  // granularity cancels it — sequential best-of-N still sees minutes-scale
  // slowdowns land on whichever shape ran later. The replica threads idle
  // in ppoll during the single-node batches, so their ambient cost (the
  // thing being measured) stays in every sample of both shapes.
  DirectoryServer single_directory;
  single_directory.start();
  publish_entries({single_directory.address()});
  DirectoryClient single_client(single_directory.address());
  (void)single_client.wait_for_servers(kService, kEntries, 5 * kSecond);

  ha::HaReplicaConfig ha_config;
  ha_config.seed = 7;
  ha::HaDirectoryCluster cluster(kReplicas, ha_config);
  if (cluster.wait_for_leader() < 0) {
    std::fprintf(stderr, "replicated directory never elected a leader\n");
    return 1;
  }
  publish_entries(cluster.data_addresses());
  DirectoryClient replicated_client(cluster.data_addresses());
  (void)replicated_client.wait_for_servers(kService, kEntries, 5 * kSecond);

  // Warmup settles the replicated client onto the leader (following a
  // redirect if its first pick was a follower) and grows every buffer to
  // steady capacity on both paths.
  for (int i = 0; i < rounds / 10; ++i) {
    (void)single_client.fetch(kService);
    (void)replicated_client.fetch(kService);
  }

  FetchStats single;
  FetchStats replicated;
  single.rounds = rounds;
  replicated.rounds = rounds;
  std::vector<double> single_samples;
  std::vector<double> replicated_samples;
  single_samples.reserve(static_cast<std::size_t>(rounds));
  replicated_samples.reserve(static_cast<std::size_t>(rounds));
  constexpr int kBatch = 100;
  for (int done = 0; done < rounds; done += kBatch) {
    const int batch = std::min(kBatch, rounds - done);
    timed_fetches(single_client, batch, single_samples);
    timed_fetches(replicated_client, batch, replicated_samples);
  }
  percentiles(single_samples, single);
  percentiles(replicated_samples, replicated);
  single.allocs_per_fetch = marginal_allocs(single_client, rounds);
  replicated.allocs_per_fetch = marginal_allocs(replicated_client, rounds);
  replicated.redirects = replicated_client.redirects_followed();
  replicated.failovers = replicated_client.failovers();
  single_directory.stop();

  const double p50_overhead_pct =
      single.p50_us > 0 ? (replicated.p50_us / single.p50_us - 1.0) * 100.0
                        : 0.0;
  const double alloc_delta =
      replicated.allocs_per_fetch - single.allocs_per_fetch;
  std::printf("fetch p50: %.1f us single, %.1f us %d-replica (%+.1f%%), "
              "p99 %.1f/%.1f us over %d rounds\n",
              single.p50_us, replicated.p50_us, kReplicas, p50_overhead_pct,
              single.p99_us, replicated.p99_us, rounds);
  std::printf("allocs/fetch: %.4f single, %.4f replicated (delta %+.4f)\n",
              single.allocs_per_fetch, replicated.allocs_per_fetch,
              alloc_delta);
  std::printf("replicated client: %lld redirect(s) followed, %lld "
              "failover(s) during warmup+measurement\n",
              static_cast<long long>(replicated.redirects),
              static_cast<long long>(replicated.failovers));

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"directory\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(out, "  \"entries\": %d,\n  \"rounds\": %d,\n", kEntries,
                 rounds);
    std::fprintf(out, "  \"single\": {\n");
    std::fprintf(out, "    \"fetch_p50_us\": %.2f,\n", single.p50_us);
    std::fprintf(out, "    \"fetch_p99_us\": %.2f,\n", single.p99_us);
    std::fprintf(out, "    \"allocs_per_fetch\": %.4f\n",
                 single.allocs_per_fetch);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"replicated\": {\n");
    std::fprintf(out, "    \"replicas\": %d,\n", kReplicas);
    std::fprintf(out, "    \"fetch_p50_us\": %.2f,\n", replicated.p50_us);
    std::fprintf(out, "    \"fetch_p99_us\": %.2f,\n", replicated.p99_us);
    std::fprintf(out, "    \"allocs_per_fetch\": %.4f,\n",
                 replicated.allocs_per_fetch);
    std::fprintf(out, "    \"redirects_followed\": %lld,\n",
                 static_cast<long long>(replicated.redirects));
    std::fprintf(out, "    \"failovers\": %lld\n",
                 static_cast<long long>(replicated.failovers));
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"overhead\": {\n");
    std::fprintf(out, "    \"p50_pct\": %.2f,\n", p50_overhead_pct);
    std::fprintf(out, "    \"alloc_delta\": %.4f\n", alloc_delta);
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
  }

  // Smoke gates (ISSUE 6): replication must be free on the settled path.
  // Both shapes allocate identically per fetch (the snapshot vector); any
  // real regression — per-fetch redirect handling, replica bookkeeping —
  // costs >= 1 alloc/fetch, far above the 0.05 noise allowance.
  if (smoke && alloc_delta >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: replicated directory adds %.4f allocs/fetch over "
                 "single-node (%.4f vs %.4f)\n",
                 alloc_delta, replicated.allocs_per_fetch,
                 single.allocs_per_fetch);
    return 1;
  }
  // 5% relative plus 2 us absolute slack: loopback fetch p50 is a handful
  // of microseconds, where one scheduler hiccup outweighs 5%.
  if (smoke && replicated.p50_us > single.p50_us * 1.05 + 2.0) {
    std::fprintf(stderr,
                 "FAIL: replicated fetch p50 %.2f us exceeds single-node "
                 "%.2f us by more than 5%% + 2 us\n",
                 replicated.p50_us, single.p50_us);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace finelb::cluster

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
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  return finelb::cluster::run(json_path, smoke);
}
