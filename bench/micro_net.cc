// Micro-benchmarks for the networking substrate (google-benchmark):
// message codecs, loopback datagram round trips, and poller wakeups —
// plus the networking half of the perf-trajectory harness.
//
//   micro_net                      # full google-benchmark suite
//   micro_net --json=BENCH_net.json [--smoke]
//   micro_net --telemetry-json=BENCH_telemetry.json [--smoke]
//
// With --json (or --smoke) the binary skips google-benchmark and measures
// the trajectory metrics instead: one-way loopback datagram throughput via
// the single-datagram path (send_to/recv_from) and the batched path
// (send_batch/recv_batch, one sendmmsg/recvmmsg per burst — the pattern the
// server recv loops and client drains use), the p50/p99 round-trip time
// of a load-inquiry poll over connected sockets, the steady-state
// allocations per service access of a real client/server pair (operator-new
// hook, marginal N-vs-2N measurement), and contended directory snapshot
// read throughput. JSON goes to the given path; --smoke shrinks the
// workload to ctest scale (label: bench-smoke) and FAILS if the steady
// state allocates per access.
//
// With --telemetry-json the binary measures the telemetry subsystem's
// hot-path cost instead: poll RTT p50/p99 bare vs instrumented (counter +
// histogram per round) and the marginal allocs/access with lifecycle
// tracing sampling every 8th access. Under --smoke it FAILS if telemetry
// allocates per access or inflates poll RTT p50 by more than 5%.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "cluster/client_node.h"
#include "cluster/directory.h"
#include "cluster/server_node.h"
#include "common/log.h"
#include "core/policy.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace finelb::net {
namespace {

void BM_EncodeLoadInquiry(benchmark::State& state) {
  LoadInquiry msg;
  msg.seq = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.encode());
  }
}
BENCHMARK(BM_EncodeLoadInquiry);

void BM_EncodeSnapshotReply16(benchmark::State& state) {
  SnapshotReply reply;
  for (int i = 0; i < 16; ++i) {
    Publish p;
    p.service = "experiment";
    p.server = i;
    p.service_port = static_cast<std::uint16_t>(40000 + i);
    p.load_port = static_cast<std::uint16_t>(41000 + i);
    p.ttl_ms = 2000;
    reply.entries.push_back(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reply.encode());
  }
}
BENCHMARK(BM_EncodeSnapshotReply16);

void BM_EncodeIntoLoadInquiry(benchmark::State& state) {
  // Hot-path counterpart of BM_EncodeLoadInquiry: stack buffer, no vector.
  LoadInquiry msg;
  msg.seq = 12345;
  std::array<std::uint8_t, kMaxFixedMsgSize> buf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.encode_into(buf));
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_EncodeIntoLoadInquiry);

void BM_TryDecodeLoadReply(benchmark::State& state) {
  LoadReply msg;
  msg.seq = 12345;
  msg.queue_length = 7;
  const auto bytes = msg.encode();
  LoadReply out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadReply::try_decode(bytes, out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TryDecodeLoadReply);

void BM_MessageEncodeDecode(benchmark::State& state) {
  // Full wire round trip on the allocation-free surfaces: a ServiceRequest
  // encoded into a stack buffer and decoded back, plus a 16-entry
  // SnapshotReply through a reused heap buffer (arg 0 selects which).
  const bool snapshot = state.range(0) != 0;
  if (!snapshot) {
    ServiceRequest request;
    request.request_id = 0x0123456789abcdefULL;
    request.service_us = 250;
    request.partition = 3;
    std::array<std::uint8_t, kMaxFixedMsgSize> buf;
    ServiceRequest out;
    for (auto _ : state) {
      const std::size_t n = request.encode_into(buf);
      benchmark::DoNotOptimize(
          ServiceRequest::try_decode({buf.data(), n}, out));
      benchmark::DoNotOptimize(out);
    }
  } else {
    SnapshotReply reply;
    for (int i = 0; i < 16; ++i) {
      Publish p;
      p.service = "experiment";
      p.server = i;
      p.service_port = static_cast<std::uint16_t>(40000 + i);
      p.load_port = static_cast<std::uint16_t>(41000 + i);
      p.ttl_ms = 2000;
      reply.entries.push_back(p);
    }
    std::vector<std::uint8_t> buf(reply.encoded_size());
    SnapshotReply out;
    for (auto _ : state) {
      const std::size_t n = reply.encode_into(buf);
      benchmark::DoNotOptimize(
          SnapshotReply::try_decode({buf.data(), n}, out));
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageEncodeDecode)->Arg(0)->Arg(1);

void BM_LoopbackDatagramRoundTrip(benchmark::State& state) {
  UdpSocket server;
  UdpSocket client;
  client.connect(server.local_address());
  Poller client_poller;
  client_poller.add(client.fd(), 0);
  Poller server_poller;
  server_poller.add(server.fd(), 0);
  LoadInquiry inquiry;
  std::array<std::uint8_t, 64> buf{};
  std::uint64_t seq = 0;
  for (auto _ : state) {
    inquiry.seq = ++seq;
    client.send(inquiry.encode());
    while (true) {
      server_poller.wait(kSecond);
      if (auto dgram = server.recv_from(buf)) {
        LoadReply reply;
        reply.seq = seq;
        reply.queue_length = 1;
        server.send_to(reply.encode(), dgram->from);
        break;
      }
    }
    while (true) {
      client_poller.wait(kSecond);
      if (client.recv(buf)) break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoopbackDatagramRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_PollerWaitReady(benchmark::State& state) {
  UdpSocket a;
  UdpSocket sender;
  Poller poller;
  poller.add(a.fd(), 0);
  const std::array<std::uint8_t, 1> payload = {1};
  std::array<std::uint8_t, 16> buf{};
  for (auto _ : state) {
    sender.send_to(payload, a.local_address());
    benchmark::DoNotOptimize(poller.wait(kSecond));
    a.recv_from(buf);
  }
}
BENCHMARK(BM_PollerWaitReady)->Unit(benchmark::kMicrosecond);

void BM_LoopbackBurstBatched(benchmark::State& state) {
  // Burst of 32 through sendmmsg/recvmmsg — the server recv-loop pattern.
  UdpSocket sender;
  UdpSocket receiver;
  receiver.set_buffer_sizes(1 << 21);
  constexpr std::size_t kBurst = 32;
  DatagramBatch out(kBurst, 64);
  DatagramBatch in(kBurst, 64);
  const std::array<std::uint8_t, 16> payload{};
  std::int64_t moved = 0;
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < kBurst; ++i) {
      out.append(payload, receiver.local_address());
    }
    const std::size_t sent = sender.send_batch(out);
    std::size_t got = 0;
    while (got < sent) {
      const std::size_t n = receiver.recv_batch(in);
      if (n == 0) break;  // kernel dropped the tail; count what arrived
      got += n;
    }
    moved += static_cast<std::int64_t>(got);
  }
  state.SetItemsProcessed(moved);
}
BENCHMARK(BM_LoopbackBurstBatched)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Perf-trajectory harness (--json / --smoke).

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One-way loopback throughput: bursts of 32 datagrams, sender → receiver,
/// drained each burst so the socket buffer never overflows. `batched`
/// selects sendmmsg/recvmmsg vs one syscall per datagram.
double measure_oneway_datagrams_per_sec(std::int64_t total, bool batched) {
  UdpSocket sender;
  UdpSocket receiver;
  receiver.set_buffer_sizes(1 << 21);
  constexpr std::size_t kBurst = 32;
  const std::array<std::uint8_t, 16> payload{};
  DatagramBatch out(kBurst, 64);
  DatagramBatch in(kBurst, 64);
  std::array<std::uint8_t, 64> buf{};
  const Address dest = receiver.local_address();

  std::int64_t moved = 0;
  const auto start = std::chrono::steady_clock::now();
  while (moved < total) {
    std::size_t sent = 0;
    if (batched) {
      out.clear();
      for (std::size_t i = 0; i < kBurst; ++i) out.append(payload, dest);
      sent = sender.send_batch(out);
    } else {
      for (std::size_t i = 0; i < kBurst; ++i) {
        if (sender.send_to(payload, dest)) ++sent;
      }
    }
    std::size_t got = 0;
    while (got < sent) {
      if (batched) {
        const std::size_t n = receiver.recv_batch(in);
        if (n == 0) break;
        got += n;
      } else {
        if (!receiver.recv_from(buf)) break;
        ++got;
      }
    }
    // Loopback doesn't lose datagrams below the buffer size, but count
    // only what actually moved end to end.
    moved += static_cast<std::int64_t>(got);
    if (got == 0) break;  // defensive: avoid spinning forever
  }
  const double elapsed = seconds_since(start);
  return elapsed > 0 ? static_cast<double>(moved) / elapsed : 0.0;
}

struct RttStats {
  int rounds = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Round-trip time of a load-inquiry poll (connected client socket, server
/// answering from qlen) — the prototype's polling-agent critical path.
/// With a registry, every round also pays the instrumentation the client
/// node pays per poll (counter inc + histogram record), so comparing the
/// two modes isolates the telemetry cost on the critical path.
RttStats measure_poll_rtt(int rounds,
                          telemetry::Registry* registry = nullptr) {
  telemetry::Counter polls;
  telemetry::Histogram rtt_hist;
  if (registry != nullptr) {
    polls = registry->counter("polls_sent");
    rtt_hist = registry->histogram("poll_rtt_ms");
  }
  UdpSocket server;
  UdpSocket client;
  client.connect(server.local_address());
  Poller client_poller;
  client_poller.add(client.fd(), 0);
  Poller server_poller;
  server_poller.add(server.fd(), 0);
  std::array<std::uint8_t, 64> buf{};
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    LoadInquiry inquiry;
    inquiry.seq = static_cast<std::uint64_t>(r) + 1;
    const auto start = std::chrono::steady_clock::now();
    client.send(inquiry.encode());
    while (true) {
      server_poller.wait(kSecond);
      if (auto dgram = server.recv_from(buf)) {
        LoadReply reply;
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
    const double us = seconds_since(start) * 1e6;
    samples.push_back(us);
    if (registry != nullptr) {
      polls.inc();
      rtt_hist.record(us / 1e3);
    }
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

// ---------------------------------------------------------------------------
// Steady-state allocation measurement.
//
// Marginal-allocation trick: the same two-server polling(2) cluster run at
// N and at 2N accesses. Warmup allocations (sockets, thread stacks, vectors
// growing to steady capacity, pool priming) are identical in both runs, so
// (A(2N) - A(N)) / N is the pure steady-state allocation cost per access.
// Client allocations are the main-thread thread-local delta (the client
// event loop runs on the calling thread); server allocations are the
// global-minus-local remainder (the only other threads are the servers').

struct AllocCounts {
  std::int64_t client = 0;  // main-thread (client event loop)
  std::int64_t server = 0;  // everything else (server threads)
};

AllocCounts run_cluster_accesses(std::int64_t accesses,
                                 std::uint32_t trace_period = 0) {
  const std::int64_t local_before = alloc_hook::local();
  const std::int64_t global_before = alloc_hook::global();
  {
    cluster::ServerOptions server_options;
    server_options.worker_threads = 1;
    // Measure allocations, not the emulated busy-server reply stalls.
    server_options.inject_busy_reply_delay = false;
    server_options.trace_sample_period = trace_period;
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
    client_options.trace_sample_period = trace_period;
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
  std::int64_t accesses = 0;  // the marginal N
  double client_per_access = 0.0;
  double server_per_access = 0.0;
};

AllocStats measure_steady_state_allocs(bool smoke,
                                       std::uint32_t trace_period = 0) {
  const std::int64_t n = smoke ? 500 : 2000;
  // Best of up to 6: a scheduler stall mid-run deepens the in-flight set
  // and grows the round pools — bursty noise worth a few tens of
  // allocations in either run of a pair. A real per-access allocation
  // shows up in EVERY pass at >= 1 alloc/access, so taking the cleanest
  // pass de-flakes the smoke gate without hiding regressions. Later
  // passes run only while the best so far still looks dirty.
  AllocStats best;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const AllocCounts a1 = run_cluster_accesses(n, trace_period);
    const AllocCounts a2 = run_cluster_accesses(2 * n, trace_period);
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
    if (worst < 0.01) break;  // clean pass: no need for a second opinion
  }
  return best;
}

// ---------------------------------------------------------------------------
// Contended directory reads: 4 threads hammering live_entries() (the
// RCU-style snapshot read) while a publisher stream keeps triggering
// republishes. Before the snapshot swap this serialized every lookup on
// the directory mutex.

struct DirectoryReadStats {
  int readers = 0;
  double reads_per_sec = 0.0;
};

DirectoryReadStats measure_directory_read_throughput(bool smoke) {
  cluster::DirectoryServer directory;
  directory.start();
  UdpSocket publisher;
  const auto publish_all = [&] {
    for (int i = 0; i < 8; ++i) {
      Publish p;
      p.service = "bench";
      p.server = i;
      p.service_port = static_cast<std::uint16_t>(40000 + i);
      p.load_port = static_cast<std::uint16_t>(41000 + i);
      p.ttl_ms = 10'000;
      publisher.send_to(p.encode(), directory.address());
    }
  };
  publish_all();
  while (directory.live_entries("bench").size() < 8) {
    sleep_for(kMillisecond);
  }

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> reads{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // writer: sustained republish stream
    while (!stop.load(std::memory_order_relaxed)) {
      publish_all();
      sleep_for(kMillisecond);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::int64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        benchmark::DoNotOptimize(directory.live_entries("bench"));
        ++local;
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }
  sleep_for(smoke ? 200 * kMillisecond : kSecond);
  stop.store(true, std::memory_order_relaxed);
  const double elapsed = seconds_since(start);
  for (auto& t : threads) t.join();
  directory.stop();

  DirectoryReadStats stats;
  stats.readers = kReaders;
  stats.reads_per_sec =
      elapsed > 0
          ? static_cast<double>(reads.load(std::memory_order_relaxed)) /
                elapsed
          : 0.0;
  return stats;
}

int run_trajectory(const std::string& json_path, bool smoke) {
  const std::int64_t total = smoke ? 100'000 : 1'000'000;
  const int rounds = smoke ? 2'000 : 20'000;
  // Best of 2 passes each: loopback throughput shares the box with every
  // other process, and noise only ever subtracts.
  double unbatched = 0.0;
  double batched = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    unbatched =
        std::max(unbatched, measure_oneway_datagrams_per_sec(total, false));
    batched =
        std::max(batched, measure_oneway_datagrams_per_sec(total, true));
  }
  const RttStats rtt = measure_poll_rtt(rounds);
  const AllocStats allocs = measure_steady_state_allocs(smoke);
  const DirectoryReadStats dir_reads = measure_directory_read_throughput(smoke);

  std::printf("one-way loopback: %.0f dgrams/sec single, %.0f batched "
              "(x%.2f)\n",
              unbatched, batched, batched / unbatched);
  std::printf("poll rtt: p50 %.1f us, p99 %.1f us over %d rounds\n",
              rtt.p50_us, rtt.p99_us, rtt.rounds);
  std::printf("steady-state allocs/access: client %.4f, server %.4f "
              "(marginal over %lld accesses)\n",
              allocs.client_per_access, allocs.server_per_access,
              static_cast<long long>(allocs.accesses));
  std::printf("contended directory reads: %.0f reads/sec across %d threads\n",
              dir_reads.reads_per_sec, dir_reads.readers);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"net\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(out, "  \"oneway\": {\n");
    std::fprintf(out, "    \"datagrams\": %lld,\n",
                 static_cast<long long>(total));
    std::fprintf(out, "    \"unbatched_per_sec\": %.0f,\n", unbatched);
    std::fprintf(out, "    \"batched_per_sec\": %.0f,\n", batched);
    std::fprintf(out, "    \"batch_speedup\": %.3f\n",
                 unbatched > 0 ? batched / unbatched : 0.0);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"poll_rtt_us\": {\n");
    std::fprintf(out, "    \"rounds\": %d,\n", rtt.rounds);
    std::fprintf(out, "    \"p50\": %.2f,\n", rtt.p50_us);
    std::fprintf(out, "    \"p99\": %.2f\n", rtt.p99_us);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"allocs\": {\n");
    std::fprintf(out, "    \"accesses\": %lld,\n",
                 static_cast<long long>(allocs.accesses));
    std::fprintf(out, "    \"client_per_access\": %.4f,\n",
                 allocs.client_per_access);
    std::fprintf(out, "    \"server_per_access\": %.4f\n",
                 allocs.server_per_access);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"directory\": {\n");
    std::fprintf(out, "    \"readers\": %d,\n", dir_reads.readers);
    std::fprintf(out, "    \"reads_per_sec\": %.0f\n",
                 dir_reads.reads_per_sec);
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
  }

  // bench-smoke regression gate: a warmed-up client + server pair must run
  // the request/poll path without touching the allocator. Any real
  // regression costs >= 1 alloc per access (or >= 3 per access if it is in
  // the poll path), while in-flight-depth pool-growth bursts measure
  // <= ~0.1/access — so 0.25 on the client fails every real regression
  // with 4x margin and tolerates the bursty noise. Server threads have no
  // depth-dependent pools, so their side stays strict.
  if (smoke && (allocs.client_per_access >= 0.25 ||
                allocs.server_per_access >= 0.01)) {
    std::fprintf(stderr,
                 "FAIL: steady-state allocations detected "
                 "(client %.4f/access, server %.4f/access)\n",
                 allocs.client_per_access, allocs.server_per_access);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Telemetry-overhead trajectory (--telemetry-json / --smoke).
//
// The telemetry subsystem's hot-path promise is "free enough to leave on":
// no allocations per access even with lifecycle tracing sampling, and a
// per-poll instrumentation cost that disappears into the RTT noise. Both
// are measured here and gated under --smoke.

int run_telemetry_trajectory(const std::string& json_path, bool smoke) {
  const int rounds = smoke ? 2'000 : 20'000;
  // Best of 2 per mode, interleaved off/on so box-level noise (which only
  // ever slows a pass down) hits both modes alike.
  RttStats off;
  RttStats on;
  telemetry::Registry registry;
  for (int pass = 0; pass < 2; ++pass) {
    const RttStats o = measure_poll_rtt(rounds);
    if (pass == 0 || o.p50_us < off.p50_us) off = o;
    const RttStats i = measure_poll_rtt(rounds, &registry);
    if (pass == 0 || i.p50_us < on.p50_us) on = i;
  }
  // Alloc probe with tracing live: every access records counters and
  // histograms, and every 8th leaves a lifecycle trail in the ring.
  const AllocStats allocs = measure_steady_state_allocs(smoke, 8);

  const double overhead_pct =
      off.p50_us > 0 ? (on.p50_us / off.p50_us - 1.0) * 100.0 : 0.0;
  std::printf("poll rtt p50: %.1f us bare, %.1f us instrumented (%+.1f%%), "
              "p99 %.1f/%.1f us over %d rounds\n",
              off.p50_us, on.p50_us, overhead_pct, off.p99_us, on.p99_us,
              off.rounds);
  std::printf("steady-state allocs/access with tracing on: client %.4f, "
              "server %.4f (marginal over %lld accesses)\n",
              allocs.client_per_access, allocs.server_per_access,
              static_cast<long long>(allocs.accesses));

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"telemetry\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(out, "  \"enabled\": %s,\n",
                 telemetry::kEnabled ? "true" : "false");
    std::fprintf(out, "  \"poll_rtt_us\": {\n");
    std::fprintf(out, "    \"rounds\": %d,\n", off.rounds);
    std::fprintf(out, "    \"off\": {\"p50\": %.2f, \"p99\": %.2f},\n",
                 off.p50_us, off.p99_us);
    std::fprintf(out, "    \"on\": {\"p50\": %.2f, \"p99\": %.2f},\n",
                 on.p50_us, on.p99_us);
    std::fprintf(out, "    \"p50_overhead_pct\": %.2f\n", overhead_pct);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"allocs_tracing_on\": {\n");
    std::fprintf(out, "    \"trace_sample_period\": 8,\n");
    std::fprintf(out, "    \"accesses\": %lld,\n",
                 static_cast<long long>(allocs.accesses));
    std::fprintf(out, "    \"client_per_access\": %.4f,\n",
                 allocs.client_per_access);
    std::fprintf(out, "    \"server_per_access\": %.4f\n",
                 allocs.server_per_access);
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
  }

  // Same thresholds as run_trajectory's gate: the smallest real telemetry
  // regression (one allocation per sampled trace record at period 8) costs
  // >= 0.75/access, far above the <= ~0.1/access pool-growth noise floor.
  if (smoke && (allocs.client_per_access >= 0.25 ||
                allocs.server_per_access >= 0.01)) {
    std::fprintf(stderr,
                 "FAIL: telemetry-on steady state allocates "
                 "(client %.4f/access, server %.4f/access)\n",
                 allocs.client_per_access, allocs.server_per_access);
    return 1;
  }
  // 5% relative plus 3 us absolute slack: loopback p50 is a handful of
  // microseconds, where one scheduler hiccup is worth more than 5%.
  if (smoke && on.p50_us > off.p50_us * 1.05 + 3.0) {
    std::fprintf(stderr,
                 "FAIL: telemetry poll-RTT overhead too high "
                 "(p50 %.2f us bare vs %.2f us instrumented)\n",
                 off.p50_us, on.p50_us);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace finelb::net

int main(int argc, char** argv) {
  // Manual parsing here (not common/flags) because unrecognized args pass
  // through to google-benchmark; --log-level still overrides FINELB_LOG.
  finelb::init_log_level();
  std::string json_path;
  std::string telemetry_json_path;
  bool telemetry_mode = false;
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--telemetry-json=", 17) == 0) {
      telemetry_json_path = argv[i] + 17;
      telemetry_mode = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry_mode = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      finelb::set_log_level(finelb::parse_log_level(argv[i] + 12));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (telemetry_mode) {
    return finelb::net::run_telemetry_trajectory(telemetry_json_path, smoke);
  }
  if (!json_path.empty() || smoke) {
    return finelb::net::run_trajectory(json_path, smoke);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
