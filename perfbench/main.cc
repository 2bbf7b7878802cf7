// finelb end-to-end benchmark (see README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload through the public entry points (sim::run_cluster_sim,
// cluster::run_prototype) and prints one JSON document on stdout: metrics
// with units, correctness checks, and the attempted/failed access counts.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// from calls into each module timed here and from traced prototype runs
// read back through the trace rings the program already has.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_math.h"
#include "cluster/directory.h"
#include "cluster/experiment.h"
#include "cluster/server_node.h"
#include "common/rng.h"
#include "core/policy.h"
#include "core/selection.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "net/socket.h"
#include "probe.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "telemetry/merge.h"
#include "workload/catalog.h"
#include "workload/distribution.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using finelb::kMillisecond;
using finelb::kSecond;
using finelb::SimDuration;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }


// Keeps a computed value alive so the timed loop is not optimised away.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Result document.

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> info;  // raw JSON values
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void note(std::string key, std::string json) {
    info.emplace_back(std::move(key), std::move(json));
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

void print_report(const Report& r) {
  std::ostringstream os;
  os << "{\"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    os << (i ? ", " : "") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << json_string(c.detail) << "}";
  }
  os << "], \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    os << (i ? ", " : "") << json_string(r.info[i].first) << ": "
       << r.info[i].second;
  }
  os << "}, \"build\": {\"compiler\": " << json_string("g++ " __VERSION__)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
#if defined(FINELB_TELEMETRY_DISABLED)
     << ", \"finelb_telemetry\": \"OFF\"}}";
#else
     << ", \"finelb_telemetry\": \"ON\"}}";
#endif
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

// ---------------------------------------------------------------------------
// The simulator on the paper's Fig. 4 setting: sim_poll3_fine.

constexpr std::size_t kFineTraceLen = 100'000;

finelb::sim::SimConfig sim_config(std::uint64_t seed) {
  finelb::sim::SimConfig c;
  c.servers = 16;
  c.clients = 6;
  c.policy = finelb::PolicyConfig::polling(3);
  c.load = 0.9;
  c.total_requests = 200'000;
  c.warmup_requests = 20'000;
  c.seed = seed;
  return c;
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

std::uint64_t sim_digest(const finelb::sim::SimResult& r) {
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
  return h;
}

void check_sim_result(const finelb::sim::SimResult& r, const finelb::Workload& w,
                      Report& report) {
  std::int64_t served = 0;
  for (const std::int64_t s : r.per_server_served) served += s;
  report.check("sim.per_server_served_sums_to_completed",
               served == r.completed,
               fmt("served %.0f, completed %.0f", static_cast<double>(served),
                   static_cast<double>(r.completed)));
  const double demand_ms = w.mean_service_sec() * 1e3;
  report.check("sim.mean_response_at_least_service_demand",
               r.response_ms.mean() >= demand_ms,
               fmt("mean response %.3f ms, mean demand %.3f ms",
                   r.response_ms.mean(), demand_ms));
}

/// sim_poll3_fine, end to end: repeated seeded runs for `seconds`. The CPU
/// per simulated access is what a run costs the simulator's user; the
/// simulated response time it reports is printed as detail. A shared host
/// slows single runs by up to 2x in phases of seconds, so the CPU figure is
/// the fastest run's: the least-disturbed cost, which code changes move.
void run_sim(std::uint64_t seed, double seconds, Report& report) {
  // Set-up: synthesising the fine-grain trace the simulator replays. It is
  // redone before every fourth run, so its median spans the host's phases
  // over the whole window rather than one moment.
  std::vector<double> setups;
  std::unique_ptr<finelb::Workload> workload;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    workload = std::make_unique<finelb::Workload>(
        finelb::make_fine_grain(kFineTraceLen, seed));
    setups.push_back(since(t0));
  };
  const finelb::sim::SimConfig config = sim_config(seed);
  std::vector<double> cpus;
  finelb::sim::SimResult first;
  std::uint64_t first_digest = 0;
  bool digests_match = true;
  const auto t_start = Clock::now();
  while (cpus.size() < 5 || (since(t_start) < seconds && cpus.size() < 1000)) {
    if (cpus.size() % 4 == 0) set_up();
    const double cpu0 = process_cpu_sec();
    finelb::sim::SimResult r = finelb::sim::run_cluster_sim(config, *workload);
    cpus.push_back((process_cpu_sec() - cpu0) * 1e6 /
                   static_cast<double>(config.total_requests));
    report.attempted += config.total_requests;
    report.failed += r.failed;
    const std::uint64_t d = sim_digest(r);
    if (cpus.size() == 1) {
      first_digest = d;
      check_sim_result(r, *workload, report);
      first = std::move(r);
    }
    digests_match = digests_match && d == first_digest;
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first_digest));
  report.check("sim.seeded_digest_identical_across_runs", digests_match,
               fmt("%.0f runs, digest ", static_cast<double>(cpus.size())) +
                   digest);
  report.note("sim_digest", json_string(digest));
  report.note("sim_runs", std::to_string(cpus.size()));
  report.note("cpu_us_per_access_per_run", json_array(cpus));
  report.note("sim_config",
              "{\"servers\": 16, \"clients\": 6, \"policy\": \"polling(3)\", "
              "\"load\": 0.9, \"requests_per_run\": 200000}");
  // Every run of the process has the seed, so its response times too.
  const auto latency_ms = [&first](double q) {
    return quantile_with_failures(
        [&first](double p) {
          return interpolated_quantile(first.response_hist_ms, p);
        },
        first.response_hist_ms.count(), first.failed, q);
  };
  report.note("latency_p50_ms", json_number(latency_ms(0.50)));
  report.note("latency_p99_ms", json_number(latency_ms(0.99)));
  report.metric("cpu_us_per_access", *std::min_element(cpus.begin(), cpus.end()),
                "us");
  report.metric("setup_s", median(setups), "s");
}

/// The simulator on sim_poll3_fine's config (--trace 1, whatever the
/// workload): simulated accesses per wall-clock second (median of three
/// seeded runs) and messages per access, the runs' digests checked equal.
void sim_speed_layer(std::uint64_t seed, Report& report) {
  const finelb::Workload workload = finelb::make_fine_grain(kFineTraceLen, seed);
  const finelb::sim::SimConfig config = sim_config(seed);
  std::vector<double> rates;
  std::uint64_t first_digest = 0;
  bool digests_match = true;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const finelb::sim::SimResult r =
        finelb::sim::run_cluster_sim(config, workload);
    rates.push_back(static_cast<double>(config.total_requests) / since(t0));
    const std::uint64_t d = sim_digest(r);
    if (i == 0) {
      first_digest = d;
      check_sim_result(r, workload, report);
      report.metric("sim.messages_per_request",
                    static_cast<double>(r.messages) /
                        static_cast<double>(config.total_requests),
                    "count");
    }
    digests_match = digests_match && d == first_digest;
    report.attempted += config.total_requests;
    report.failed += r.failed;
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first_digest));
  report.check("sim.seeded_digest_identical_across_layer_runs", digests_match,
               std::string("3 runs, digest ") + digest);
  report.metric("sim.requests_per_s", median(rates), "1/s");
}

// ---------------------------------------------------------------------------
// Per-layer timings of the simulator's modules (--trace 1).

/// Median ns per call of `body` over `reps` batches of `n` calls.
double ns_per_call(int reps, std::int64_t n,
                   const std::function<void(std::int64_t)>& body) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body(n);
    per.push_back(since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(per);
}

void sim_layers(std::uint64_t seed, Report& report) {
  // sim: Engine::schedule_after + run with a steady 256-event backlog, the
  // plateau a cluster simulation sits on.
  {
    std::vector<SimDuration> delays(4096);
    finelb::Rng rng(seed);
    for (auto& d : delays) d = 1 + static_cast<SimDuration>(rng.uniform_int(50'000));
    std::vector<double> rates;
    for (int rep = 0; rep < 7; ++rep) {
      finelb::sim::Engine engine;
      std::int64_t remaining = 2'000'000;
      std::size_t cursor = 0;
      struct Tick {
        finelb::sim::Engine* e;
        std::int64_t* remaining;
        std::size_t* cursor;
        const std::vector<SimDuration>* delays;
        void operator()() const {
          if (--*remaining <= 0) return;
          const SimDuration d = (*delays)[(*cursor)++ & 4095];
          e->schedule_after(d, *this);
        }
      };
      const Tick t{&engine, &remaining, &cursor, &delays};
      for (int i = 0; i < 256; ++i) engine.schedule_after(delays[i], t);
      const auto t0 = Clock::now();
      engine.run();
      rates.push_back(static_cast<double>(engine.events_processed()) / since(t0));
    }
    report.metric("sim.engine_events_per_s", median(rates), "1/s");
  }

  // core: poll-set choice (d=3 of 16) and the least-loaded pick.
  {
    std::vector<finelb::ServerId> candidates(16);
    for (int i = 0; i < 16; ++i) candidates[static_cast<std::size_t>(i)] = i;
    finelb::Rng rng(seed + 1);
    std::vector<finelb::ServerId> out;
    out.reserve(8);
    report.metric("core.choose_poll_set_ns",
                  ns_per_call(7, 1'000'000,
                              [&](std::int64_t n) {
                                std::uint64_t acc = 0;
                                for (std::int64_t i = 0; i < n; ++i) {
                                  finelb::choose_poll_set_into(candidates, 3,
                                                               rng, out);
                                  acc += static_cast<std::uint64_t>(out[0]);
                                }
                                g_sink = acc;
                              }),
                  "ns");
    std::vector<finelb::ServerLoad> loads(3 * 1024);
    for (std::size_t i = 0; i < loads.size(); ++i) {
      loads[i] = {static_cast<finelb::ServerId>(i % 16),
                  static_cast<std::int32_t>(rng.uniform_int(6)), 0};
    }
    report.metric(
        "core.pick_least_loaded_ns",
        ns_per_call(7, 1'000'000,
                    [&](std::int64_t n) {
                      std::uint64_t acc = 0;
                      for (std::int64_t i = 0; i < n; ++i) {
                        const std::span<const finelb::ServerLoad> three(
                            loads.data() + 3 * (i & 1023), 3);
                        acc += static_cast<std::uint64_t>(
                            finelb::pick_least_loaded(three, rng));
                      }
                      g_sink = acc;
                    }),
        "ns");
  }

  // workload: RequestSource::next for the trace and a distribution source.
  {
    const finelb::Workload fine = finelb::make_fine_grain(kFineTraceLen, seed);
    const finelb::Workload dist = finelb::make_poisson_exp(0.05);
    const auto next_ns = [](const finelb::Workload& w, std::uint64_t s) {
      auto source = w.make_source(1.0, s);
      return ns_per_call(7, 1'000'000, [&](std::int64_t n) {
        std::int64_t acc = 0;
        for (std::int64_t i = 0; i < n; ++i) acc += source->next().service_time;
        g_sink = static_cast<std::uint64_t>(acc);
      });
    };
    report.metric("workload.next_ns.trace", next_ns(fine, seed), "ns");
    report.metric("workload.next_ns.distribution", next_ns(dist, seed), "ns");
  }
}

// ---------------------------------------------------------------------------
// Prototype clusters: the tiny service (proto_tiny_poll3; also the per-layer
// view's capacity and fault runs) and the paper setting (a traced view).

constexpr int kServers = 8;
constexpr int kClients = 2;
constexpr double kTinyServiceSec = 5e-6;
/// Fixed offered rate of the tiny cluster's traced view, and the low rate
/// whose wake-up tail the per-layer view reports.
constexpr double kTinyRateAps = 20'000;
constexpr double kTinyLowRateAps = 10'000;
/// The fault probe's fixed offered rate, well under capacity.
constexpr double kFaultRateAps = 10'000;
/// Capacity ramp: the limit each run is judged by, the offered rates, and
/// how each rate is run.
constexpr double kCapacityLimitMs = 10.0;
constexpr std::array<double, 4> kCapacityRungsAps = {20'000, 30'000, 45'000,
                                                     70'000};
constexpr int kRungRuns = 3;
constexpr double kRungRunSec = 0.5;

enum class Proto { kPaper, kTiny, kFaults };

/// One prototype workload: its config and its probed workload.
struct ProtoSpec {
  Proto kind;
  finelb::cluster::PrototypeConfig config;
  std::unique_ptr<finelb::Workload> workload;
  std::shared_ptr<IssueRecorder> recorder;
  double demand_ms = 0.0;  // mean service demand per access
};

/// Aggregate offered accesses/s of a config, as run_prototype sizes it:
/// servers * load / (mean service + per-request overhead).
double offered_aps(const finelb::cluster::PrototypeConfig& c,
                   const finelb::Workload& w) {
  return c.servers * c.load / (w.mean_service_sec() + c.per_request_overhead_sec);
}

void set_rate(ProtoSpec& spec, double aps) {
  auto& c = spec.config;
  c.load = aps * (spec.workload->mean_service_sec() + c.per_request_overhead_sec) /
           c.servers;
}

ProtoSpec make_proto(Proto kind, std::uint64_t seed) {
  ProtoSpec spec;
  spec.kind = kind;
  spec.recorder = std::make_shared<IssueRecorder>();
  auto& c = spec.config;
  c.servers = kServers;
  c.clients = kClients;
  c.policy = finelb::PolicyConfig::polling(3, kMillisecond);
  c.seed = seed;
  switch (kind) {
    case Proto::kPaper: {
      // The paper's prototype setting: fine-grain trace, 70% load, 1 ms
      // discard, busy-reply delay model on, default overhead calibration.
      const finelb::Trace trace =
          finelb::synth_fine_grain_trace(kFineTraceLen, seed);
      spec.workload = std::make_unique<finelb::Workload>(
          probed_workload(trace, spec.recorder));
      c.load = 0.7;
      break;
    }
    case Proto::kTiny:
    case Proto::kFaults: {
      // Poisson arrivals, 5 us deterministic service, clean loopback
      // network; the base arrival mean equals the service time so `load`
      // maps to a rate exactly (overhead calibration off).
      spec.workload = std::make_unique<finelb::Workload>(probed_workload(
          "tiny", finelb::make_exponential(kTinyServiceSec),
          finelb::make_deterministic(kTinyServiceSec), spec.recorder));
      c.inject_busy_reply_delay = false;
      c.per_request_overhead_sec = 0.0;
      set_rate(spec, kind == Proto::kTiny ? kTinyRateAps : kFaultRateAps);
      if (kind == Proto::kFaults) {
        c.fault = finelb::fault::FaultSpec::symmetric_loss(0.01, seed);
        c.response_timeout = 20 * kMillisecond;
        c.max_access_retries = 1;
        c.blacklist_after = 2;
        c.blacklist_cooldown = 500 * kMillisecond;
        c.client_mapping_refresh = 100 * kMillisecond;
        c.publish_interval = 50 * kMillisecond;
        c.publish_ttl = 200 * kMillisecond;
      }
      break;
    }
  }
  spec.demand_ms = spec.workload->mean_service_sec() * 1e3;
  return spec;
}

/// One run_prototype call and what the probe saw of it.
struct ProtoRun {
  finelb::cluster::PrototypeResult result;
  /// The call's time outside its measured window: standing the cluster up
  /// (nodes, directory publish and fetch, clients) and tearing it down.
  double setup_s = 0.0;
  Window window;
  std::vector<StreamDraws> streams;
  std::vector<double> late_us;  // every access, every stream
};

ProtoRun run_once(ProtoSpec& spec, std::int64_t accesses) {
  auto& c = spec.config;
  c.total_requests = accesses;
  const std::int64_t per_client = accesses / c.clients;
  // run_prototype stretches the workload's arrival distribution by this
  // scale (experiment.h: servers * load / effective service time).
  const finelb::Workload& w = *spec.workload;
  const double scale =
      w.arrival_scale_for_load(c.load, c.servers) *
      ((w.mean_service_sec() + c.per_request_overhead_sec) / w.mean_service_sec()) *
      static_cast<double>(c.clients);
  spec.recorder->arm(scale, per_client + 1, c.clients);
  const std::int64_t t0 = finelb::net::monotonic_now();
  ProtoRun run;
  run.result = finelb::cluster::run_prototype(c, w);
  run.setup_s = static_cast<double>(finelb::net::monotonic_now() - t0) / 1e9 -
                run.result.wall_sec;
  run.window = spec.recorder->window();
  run.streams = spec.recorder->streams();
  for (const StreamDraws& s : run.streams) {
    for (const std::int64_t ns : lateness_ns(s.at_ns, s.interval_ns)) {
      run.late_us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  return run;
}

/// Correctness of one prototype run; adds its accesses to the report unless
/// the run probes a limit or a fault (capacity rung, fault probe), where
/// failures are the finding.
void check_proto_run(const ProtoSpec& spec, const ProtoRun& run,
                     Report& report, bool count_accesses = true) {
  const auto& s = run.result.clients;
  const std::int64_t failed = s.response_timeouts;
  if (count_accesses) {
    report.attempted += s.issued;
    report.failed += failed;
  }
  const auto add = [&report](const std::string& name, bool ok,
                             const std::string& detail) {
    // Record a check once per workload, keeping its first failure.
    for (auto& c : report.checks) {
      if (c.name == name) {
        if (c.ok && !ok) c = {name, ok, detail};
        return;
      }
    }
    report.check(name, ok, detail);
  };
  add("proto.completed_plus_failed_equals_issued",
      s.completed + failed == s.issued &&
          s.issued == spec.config.total_requests / spec.config.clients *
                          spec.config.clients,
      fmt("completed+failed %.0f, issued %.0f",
          static_cast<double>(s.completed + failed),
          static_cast<double>(s.issued)));
  add("proto.mean_response_at_least_service_demand",
      s.response_ms.mean() >= spec.demand_ms,
      fmt("mean response %.4f ms, mean demand %.4f ms", s.response_ms.mean(),
          spec.demand_ms));
  // The loop never issues before an access is due, so a negative lateness
  // means the probe's schedule does not match the client's.
  double min_late = 0.0;
  for (const double l : run.late_us) min_late = std::min(min_late, l);
  add("workload.issue_schedule_matches_client",
      run.window.closed && min_late > -50.0,
      fmt("window closed %.0f, min lateness %.1f us",
          run.window.closed ? 1.0 : 0.0, min_late));
}

/// Injected loss must show at its configured rate, and only where it is
/// configured.
void check_drops(const ProtoSpec& spec, const finelb::fault::FaultCounters& f,
                 Report& report) {
  const auto n = static_cast<double>(f.decisions);
  const double drop = n > 0 ? static_cast<double>(f.drops) / n : 0.0;
  if (spec.kind == Proto::kFaults) {
    const double p = 0.01;
    const double tolerance = std::max(0.001, 5.0 * std::sqrt(p * (1 - p) / std::max(n, 1.0)));
    report.check("fault.drop_ratio_near_injected_rate",
                 n >= 5000 && std::abs(drop - p) <= tolerance,
                 fmt("drop ratio %.5f over %.0f datagram decisions, injected 0.01",
                     drop, n));
  } else {
    report.check("fault.drop_ratio_zero_on_clean_network", f.drops == 0,
                 fmt("drops %.0f", static_cast<double>(f.drops)));
  }
}

/// Accumulated prototype measurements over several runs.
struct ProtoTotals {
  finelb::cluster::ClientStats clients;
  std::int64_t inquiries = 0;
  finelb::fault::FaultCounters faults;
  std::vector<double> late_us;
  std::vector<double> setups;
  double window_cpu_sec = 0.0;        // over runs whose window closed
  std::int64_t window_issued = 0;

  void add(const ProtoRun& run) {
    if (run.window.closed) {
      window_cpu_sec += run.window.cpu_sec;
      window_issued += run.result.clients.issued;
    }
    clients.merge(run.result.clients);
    inquiries += run.result.servers.inquiries_answered;
    faults.merge(run.result.faults);
    late_us.insert(late_us.end(), run.late_us.begin(), run.late_us.end());
    setups.push_back(run.setup_s);
  }

  /// Process CPU per access issued, in us, over the measured windows.
  double cpu_us_per_access() const {
    return window_issued > 0
               ? window_cpu_sec * 1e6 / static_cast<double>(window_issued)
               : 0.0;
  }

  /// Response-time quantile over issued accesses (failures beyond any
  /// limit), in ms.
  double latency_ms(double q) const {
    return quantile_with_failures(
        [this](double p) {
          return interpolated_quantile(clients.response_hist_ms, p);
        },
        clients.recorded, clients.response_timeouts, q);
  }
};

/// Accesses a run of `seconds` at `aps` issues (a whole number per client).
std::int64_t accesses_for(double aps, double seconds) {
  return std::max<std::int64_t>(
      kClients * 50,
      static_cast<std::int64_t>(aps * seconds) / kClients * kClients);
}

/// How one run at a fixed rate fared.
struct RunStats {
  Rung rung;  // p99, lateness, drain, counts
  bool p99_supported = false;
};

RunStats run_stats(const ProtoRun& run, double aps) {
  ProtoTotals t;
  t.add(run);
  const auto& s = run.result.clients;
  RunStats out;
  out.rung.offered_aps = aps;
  out.rung.issued = s.issued;
  out.rung.failed = s.response_timeouts;
  out.rung.latency_p99_ms = t.latency_ms(0.99);
  out.rung.issue_late_p99_ms = quantile(run.late_us, 0.99) / 1e3;
  // run_prototype's measured window starts as the client threads launch,
  // next to the first draw, and ends when every access has resolved.
  const double end_ns = static_cast<double>(run.window.first_draw_ns) +
                        run.result.wall_sec * 1e9;
  out.rung.drain_ms = std::max(
      0.0, (end_ns - static_cast<double>(run.window.last_draw_ns)) / 1e6);
  out.p99_supported =
      percentile_supported(s.recorded + s.response_timeouts, 0.99);
  return out;
}

std::string rung_json(const Rung& r, bool passed) {
  std::ostringstream os;
  os << "{\"offered_aps\": " << json_number(r.offered_aps)
     << ", \"issued\": " << r.issued << ", \"failed\": " << r.failed
     << ", \"latency_p99_ms\": " << json_number(r.latency_p99_ms)
     << ", \"issue_late_p99_ms\": " << json_number(r.issue_late_p99_ms)
     << ", \"drain_ms\": " << json_number(r.drain_ms)
     << ", \"passed\": " << (passed ? "true" : "false") << "}";
  return os.str();
}

/// proto_tiny_poll3, end to end: runs of 1 s at the workload's rate for
/// `seconds`, CPU pooled over the runs' accesses. Its latency follows the
/// host's phase (README.md), so it is reported as detail, not as a metric.
void end_to_end_proto(ProtoSpec& spec, double seconds, Report& report) {
  constexpr double kTeardownSec = 0.4;  // run_prototype stopping its nodes
  constexpr double kRunSec = 1.0;
  const double rate = offered_aps(spec.config, *spec.workload);
  const int runs =
      std::max(3, static_cast<int>(0.9 * seconds / (kRunSec + kTeardownSec)));
  ProtoTotals totals;
  std::vector<double> p99s, failed, cpus;
  bool supported = true;
  for (int i = 0; i < runs; ++i) {
    const ProtoRun run = run_once(spec, accesses_for(rate, kRunSec));
    check_proto_run(spec, run, report);
    totals.add(run);
    const RunStats st = run_stats(run, rate);
    p99s.push_back(st.rung.latency_p99_ms);
    failed.push_back(static_cast<double>(st.rung.failed) /
                     static_cast<double>(st.rung.issued));
    if (run.window.closed) {
      cpus.push_back(run.window.cpu_sec * 1e6 /
                     static_cast<double>(run.result.clients.issued));
    }
    supported = supported && st.p99_supported;
  }
  check_drops(spec, totals.faults, report);
  report.check("proto.p99_has_ten_samples_beyond_in_every_run", supported,
               fmt("%.0f runs of %.1f s", runs, kRunSec));
  report.note("measured_runs", std::to_string(runs));
  report.note("setup_s_per_run", json_array(totals.setups));
  report.note("offered_aps", json_number(rate));
  report.note("latency_p99_ms_per_run", json_array(p99s));
  report.note("failed_ratio_per_run", json_array(failed));
  report.note("cpu_us_per_access_per_run", json_array(cpus));
  report.note("latency_p50_ms", json_number(totals.latency_ms(0.50)));
  report.note("latency_p99_ms", json_number(totals.latency_ms(0.99)));
  report.metric("cpu_us_per_access", totals.cpu_us_per_access(), "us");
  report.metric("setup_s", median(totals.setups), "s");
}

// ---------------------------------------------------------------------------
// Per-layer timings of the wire and directory modules (--trace 1).

template <class Msg>
void codec_layer(const char* name, const Msg& msg, Report& report) {
  std::array<std::uint8_t, finelb::net::kMaxFixedMsgSize> buf{};
  const std::size_t n = msg.encode_into(buf);
  report.metric(std::string("net.encode_ns.") + name,
                ns_per_call(5, 1'000'000,
                            [&](std::int64_t calls) {
                              std::uint64_t acc = 0;
                              for (std::int64_t i = 0; i < calls; ++i) {
                                acc += msg.encode_into(buf);
                              }
                              g_sink = acc;
                            }),
                "ns");
  Msg out;
  const std::span<const std::uint8_t> wire(buf.data(), n);
  report.metric(std::string("net.decode_ns.") + name,
                ns_per_call(5, 1'000'000,
                            [&](std::int64_t calls) {
                              std::uint64_t acc = 0;
                              for (std::int64_t i = 0; i < calls; ++i) {
                                acc += Msg::try_decode(wire, out) ? 1 : 0;
                              }
                              g_sink = acc;
                            }),
                "ns");
}

/// p50/p99 (us) of `rounds` timed calls of `once`, after `warmup` untimed.
std::pair<double, double> timed_rounds(int warmup, int rounds,
                                       const std::function<bool()>& once,
                                       bool& all_ok) {
  std::vector<double> us;
  for (int r = 0; r < warmup + rounds; ++r) {
    const auto t0 = Clock::now();
    const bool ok = once();
    const double t = since(t0) * 1e6;
    all_ok = all_ok && ok;
    if (r >= warmup) us.push_back(t);
  }
  return {quantile(us, 0.50), quantile(us, 0.99)};
}

void wire_layers(Report& report) {
  namespace net = finelb::net;
  net::LoadInquiry inquiry;
  inquiry.seq = 123456789;
  inquiry.trace_id = 42;
  inquiry.origin_ns = 1'000'000'007;
  codec_layer("load_inquiry", inquiry, report);
  net::LoadReply reply;
  reply.seq = 123456789;
  reply.queue_length = 3;
  codec_layer("load_reply", reply, report);
  net::ServiceRequest request;
  request.request_id = (1ull << 40) | 77;
  request.service_us = 5;
  codec_layer("service_request", request, report);
  net::ServiceResponse response;
  response.request_id = (1ull << 40) | 77;
  response.server = 3;
  response.queue_at_arrival = 1;
  codec_layer("service_response", response, report);

  // Isolated poll round trip: one LoadInquiry to an idle ServerNode.
  {
    finelb::cluster::ServerOptions opts;
    opts.inject_busy_reply_delay = false;
    finelb::cluster::ServerNode server(opts);
    server.start();
    net::UdpSocket socket;
    socket.connect(server.load_address());
    net::Poller poller;
    poller.add(socket.fd(), 0);
    std::array<std::uint8_t, net::kMaxFixedMsgSize> out{};
    std::array<std::uint8_t, 256> in{};
    std::uint64_t seq = 0;
    bool ok = true;
    const auto [p50, p99] = timed_rounds(
        300, 3000,
        [&] {
          net::LoadInquiry q;
          q.seq = ++seq;
          if (!socket.send({out.data(), q.encode_into(out)})) return false;
          for (;;) {
            if (poller.wait(kSecond).empty()) return false;
            while (const auto n = socket.recv(in)) {
              net::LoadReply r;
              if (net::LoadReply::try_decode({in.data(), *n}, r) && r.seq == seq) {
                return true;
              }
            }
          }
        },
        ok);
    server.stop();
    report.check("net.isolated_poll_round_trips_answered", ok,
                 "3300 inquiries to an idle server");
    report.metric("net.poll_rtt_us.p50", p50, "us");
    report.metric("net.poll_rtt_us.p99", p99, "us");
  }

  // Directory fetch of an 8-entry service mapping.
  {
    finelb::cluster::DirectoryServer directory;
    directory.start();
    net::UdpSocket publisher;
    for (int s = 0; s < kServers; ++s) {
      net::Publish p;
      p.service = "perfbench";
      p.server = s;
      p.service_port = static_cast<std::uint16_t>(20'000 + s);
      p.load_port = static_cast<std::uint16_t>(21'000 + s);
      p.ttl_ms = 600'000;
      publisher.send_to(p.encode(), directory.address());
    }
    for (int i = 0; i < 200 && directory.live_entries("perfbench").size() <
                                   static_cast<std::size_t>(kServers);
         ++i) {
      finelb::net::sleep_for(5 * kMillisecond);
    }
    finelb::cluster::DirectoryClient client(directory.address());
    bool ok = true;
    const auto [p50, p99] = timed_rounds(
        100, 2000,
        [&] {
          const auto got = client.try_fetch("perfbench", kSecond);
          return got && got->size() == static_cast<std::size_t>(kServers);
        },
        ok);
    directory.stop();
    report.check("directory.fetch_returns_all_entries", ok,
                 "2100 fetches of an 8-entry mapping");
    report.metric("directory.fetch_us.p50", p50, "us");
    report.metric("directory.fetch_us.p99", p99, "us");
  }
}

/// The capacity ramp of the tiny cluster and its low-rate tail
/// (--trace 1, whatever the workload).
void capacity_layers(std::uint64_t seed, Report& report) {
  ProtoSpec spec = make_proto(Proto::kTiny, seed);
  const auto runs_at = [&](double aps) {
    set_rate(spec, aps);
    std::vector<Rung> runs;
    for (int i = 0; i < kRungRuns; ++i) {
      const ProtoRun run = run_once(spec, accesses_for(aps, kRungRunSec));
      check_proto_run(spec, run, report, /*count_accesses=*/false);
      runs.push_back(run_stats(run, aps).rung);
    }
    return runs;
  };
  // The low-rate wake-up tail: the nodes' threads sleep between arrivals.
  std::vector<double> low;
  for (const Rung& r : runs_at(kTinyLowRateAps)) low.push_back(r.latency_p99_ms);
  report.metric("client.low_rate_p99_ms", median(low), "ms");

  std::string runs_json = "[";
  std::vector<RungResult> ramp;
  for (const double aps : kCapacityRungsAps) {
    int passed = 0;
    const std::vector<Rung> runs = runs_at(aps);
    for (const Rung& r : runs) {
      const bool ok = rung_passes(r, kCapacityLimitMs);
      passed += ok ? 1 : 0;
      runs_json += (runs_json.size() > 1 ? ", " : "") + rung_json(r, ok);
    }
    ramp.push_back({aps, static_cast<double>(passed) / kRungRuns});
    if (passed == 0) break;
  }
  std::string fractions = "[";
  for (const RungResult& r : ramp) {
    fractions += (fractions.size() > 1 ? ", " : "") +
                 json_array({r.offered_aps, r.pass_fraction});
  }
  report.note("capacity_runs", runs_json + "]");
  report.note("capacity_pass_fractions", fractions + "]");
  report.note("capacity_rule",
              "{\"latency_p99_limit_ms\": " + json_number(kCapacityLimitMs) +
                  ", \"issue_late_p99_limit_ms\": " +
                  json_number(kCapacityLimitMs) +
                  ", \"drain_limit_ms\": " + json_number(kCapacityLimitMs) +
                  ", \"failed\": 0, \"runs_per_rate\": " +
                  std::to_string(kRungRuns) + ", \"run_seconds\": " +
                  json_number(kRungRunSec) + "}");
  report.metric("capacity_aps", capacity_aps(ramp), "1/s");
}

// ---------------------------------------------------------------------------
// Traced runs of a prototype workload (--trace 1).

/// Accesses per short run of the traced view, sized to reach a steady
/// state. Every access is traced; the 256-record client rings keep about
/// the last 30 accesses of each client, so chains accumulate over many
/// short runs.
std::int64_t traced_run_accesses(Proto kind) {
  switch (kind) {
    case Proto::kPaper: return 120;    // ~0.5 s at ~250/s
    case Proto::kTiny:  // the capacity ramp's run shape at 20k/s
      return accesses_for(kTinyRateAps, kRungRunSec);
    case Proto::kFaults: break;
  }
  return 400;
}
constexpr std::int64_t kTargetChains = 1100;
constexpr int kUntracedRuns = 5;

struct TraceTotals {
  std::int64_t traced = 0;
  std::int64_t complete = 0;
  std::int64_t sum_mismatches = 0;
  std::int64_t without_due_time = 0;
  std::vector<Stages> stages;
};

/// Reads one traced run's rings back: merges them, partitions every
/// complete chain, and dates each access from its due time.
void collect_chains(const ProtoRun& run, TraceTotals& totals) {
  const auto& nodes = run.result.node_traces;
  const auto merged = finelb::telemetry::merge_traces(nodes);
  const auto chains = group_chains(merged, [&nodes](std::int32_t i) {
    return nodes[static_cast<std::size_t>(i)].source.rfind("client.", 0) == 0;
  });
  std::vector<std::vector<std::int64_t>> due;
  for (const StreamDraws& d : run.streams) {
    due.push_back(due_ns(d.at_ns, d.interval_ns));
  }
  constexpr std::uint64_t kIndexMask = (1ull << 40) - 1;

  // Which probe stream is which client: the stream that drew right after
  // the client stamped the access's enqueue, by majority over its chains.
  std::vector<std::vector<int>> votes;
  for (const Chain& chain : chains) {
    for (const auto& r : chain.client) {
      if (r.point != finelb::telemetry::TracePoint::kClientEnqueue) continue;
      const auto client = static_cast<std::size_t>(r.request_id >> 40);
      const auto k = static_cast<std::size_t>(r.request_id & kIndexMask);
      int best = -1;
      std::int64_t best_gap = kMillisecond;
      for (std::size_t s = 0; s < run.streams.size(); ++s) {
        const auto& at = run.streams[s].at_ns;
        if (k + 1 >= at.size()) continue;
        const std::int64_t gap = at[k + 1] - r.at_ns;
        if (gap >= 0 && gap < best_gap) {
          best_gap = gap;
          best = static_cast<int>(s);
        }
      }
      if (best < 0) continue;
      if (votes.size() <= client) votes.resize(client + 1);
      votes[client].resize(run.streams.size(), 0);
      ++votes[client][static_cast<std::size_t>(best)];
    }
  }
  std::vector<int> stream_of(votes.size(), -1);
  for (std::size_t c = 0; c < votes.size(); ++c) {
    const auto top = std::max_element(votes[c].begin(), votes[c].end());
    if (top != votes[c].end() && *top > 0) {
      stream_of[c] = static_cast<int>(top - votes[c].begin());
    }
  }

  totals.traced += run.result.clients.issued;
  for (const Chain& chain : chains) {
    const bool is_access = std::any_of(
        chain.client.begin(), chain.client.end(), [](const auto& r) {
          return r.point == finelb::telemetry::TracePoint::kClientEnqueue;
        });
    if (!is_access) continue;
    const std::uint64_t id = chain.client.front().request_id;
    const auto client = static_cast<std::size_t>(id >> 40);
    const auto k = static_cast<std::size_t>(id & kIndexMask);
    const int s = client < stream_of.size() ? stream_of[client] : -1;
    if (s < 0 || k >= due[static_cast<std::size_t>(s)].size()) {
      ++totals.without_due_time;
      continue;
    }
    const auto stages = partition_chain(chain, due[static_cast<std::size_t>(s)][k]);
    if (!stages) continue;
    ++totals.complete;
    if (stages->sum() != stages->end_to_end) ++totals.sum_mismatches;
    totals.stages.push_back(*stages);
  }
}

double per(std::int64_t a, std::int64_t b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

/// The dispatch layer's failure path on the tiny cluster at a
/// fixed rate well under capacity: 1% datagram loss each way and one server
/// killed a third of the way into each run (--trace 1, whatever the
/// workload). Failed accesses are what it measures, so they are not counted
/// as the workload's failures.
void fault_layers(std::uint64_t seed, Report& report) {
  ProtoSpec spec = make_proto(Proto::kFaults, seed);
  constexpr int kRuns = 3;
  constexpr double kRunSec = 1.5;
  spec.config.kills = {{kServers - 1,
                        static_cast<SimDuration>(kRunSec / 3.0 * 1e9)}};
  ProtoTotals t;
  for (int i = 0; i < kRuns; ++i) {
    const ProtoRun run =
        run_once(spec, accesses_for(kFaultRateAps, kRunSec));
    check_proto_run(spec, run, report, /*count_accesses=*/false);
    t.add(run);
  }
  check_drops(spec, t.faults, report);
  const auto& s = t.clients;
  report.metric("fault.drop_ratio", per(t.faults.drops, t.faults.decisions),
                "ratio");
  report.metric("fault.failed_ratio", per(s.response_timeouts, s.issued),
                "ratio");
  report.metric("fault.fallback_ratio", per(s.fallback_dispatches, s.issued),
                "ratio");
  report.metric("fault.retry_ratio", per(s.access_retries, s.issued), "ratio");
  report.metric("fault.blacklist_hits_per_access",
                per(s.blacklist_hits, s.issued), "count");
  report.metric("fault.latency_p99_ms", t.latency_ms(0.99), "ms");
  report.metric("fault.issue_late_p99_us", quantile(t.late_us, 0.99), "us");
}

void counter_layers(const ProtoTotals& t, const std::string& prefix,
                    Report& report) {
  const auto& s = t.clients;
  report.metric(prefix + "client.poll_reply_used_ratio",
                per(s.poll_replies_used, s.polls_sent), "ratio");
  report.metric(prefix + "server.inquiries_per_access", per(t.inquiries, s.issued),
                "count");
  report.metric(prefix + "client.latency_p50_ms", t.latency_ms(0.50), "ms");
  report.metric(prefix + "client.latency_p99_ms", t.latency_ms(0.99), "ms");
  report.metric(prefix + "client.poll_rtt_us.p50",
                interpolated_quantile(s.poll_rtt_ms, 0.5) * 1e3, "us");
  report.metric(prefix + "workload.issue_late_p50_us", quantile(t.late_us, 0.50), "us");
  report.metric(prefix + "workload.issue_late_p99_us", quantile(t.late_us, 0.99), "us");
  report.metric(prefix + "cpu_us_per_access", t.cpu_us_per_access(), "us");
}

/// One cluster's traced view: untraced and traced runs of one shape, every
/// metric named with `prefix`.
void layers_proto(ProtoSpec& spec, const std::string& prefix, Report& report) {
  const auto t_start = Clock::now();
  // Untraced and traced runs of one shape: the untraced ones give the
  // counters and the overhead baseline.
  ProtoTotals untraced;
  const int untraced_wanted = kUntracedRuns;
  const std::int64_t accesses = traced_run_accesses(spec.kind);
  ProtoTotals traced;
  TraceTotals chains;
  int scrape_failures = 0;
  int runs = 0;
  int untraced_runs = 0;
  while (untraced_runs < untraced_wanted || chains.complete < kTargetChains) {
    // Hard stop well inside the per-run limit; the stage checks below then
    // report the shortfall instead of the benchmark hanging.
    if (since(t_start) > 50.0) break;
    // Interleaved, so drift between them cancels in the overhead.
    const bool with_trace =
        untraced_runs >= untraced_wanted || runs % 4 != 0;
    untraced_runs += with_trace ? 0 : 1;
    auto& c = spec.config;
    c.trace_sample_period = with_trace ? 1 : 0;
    c.collect_traces = with_trace;
    const ProtoRun run = run_once(spec, accesses);
    check_proto_run(spec, run, report);
    if (with_trace) {
      traced.add(run);
      scrape_failures += run.result.trace_scrape_failures;
      collect_chains(run, chains);
    } else {
      untraced.add(run);
    }
    ++runs;
  }
  spec.config.trace_sample_period = 0;
  spec.config.collect_traces = false;

  ProtoTotals all = untraced;
  all.faults.merge(traced.faults);
  check_drops(spec, all.faults, report);
  counter_layers(untraced, prefix, report);
  report.note(prefix + "traced_runs", std::to_string(runs - untraced_runs));
  report.note(prefix + "untraced_runs", std::to_string(untraced.setups.size()));
  report.note(prefix + "trace_scrape_failures", std::to_string(scrape_failures));
  report.note(prefix + "traced_accesses_without_due_time",
              std::to_string(chains.without_due_time));
  report.metric(prefix + "trace.chain_complete_ratio",
                chains.traced > 0 ? static_cast<double>(chains.complete) /
                                        static_cast<double>(chains.traced)
                                  : 0.0,
                "ratio");
  report.metric(prefix + "trace.complete_chains", static_cast<double>(chains.complete),
                "count");
  const double p50_untraced = untraced.latency_ms(0.5);
  report.metric(prefix + "trace.overhead_p50_pct",
                p50_untraced > 0 ? (traced.latency_ms(0.5) / p50_untraced - 1.0) * 100.0
                                 : 0.0,
                "%");

  const auto n = static_cast<std::int64_t>(chains.stages.size());
  report.check(prefix + "trace.stages_sum_to_end_to_end", chains.sum_mismatches == 0,
               fmt("%.0f of %.0f complete chains do not add up",
                   static_cast<double>(chains.sum_mismatches),
                   static_cast<double>(n)));
  report.check(prefix + "trace.p99_has_ten_chains_beyond", percentile_supported(n, 0.99),
               fmt("%.0f complete chains", static_cast<double>(n)));
  double total_us = 0.0;
  for (const Stages& s : chains.stages) total_us += static_cast<double>(s.end_to_end) / 1e3;
  for (int i = 0; i < kStageCount; ++i) {
    std::vector<double> us;
    us.reserve(chains.stages.size());
    double sum_us = 0.0;
    for (const Stages& s : chains.stages) {
      us.push_back(static_cast<double>(stage_value(s, i)) / 1e3);
      sum_us += us.back();
    }
    std::string base = kStageNames[i];  // e.g. "client.queue_us"
    report.metric(prefix + base + ".p50", quantile(us, 0.50), "us");
    report.metric(prefix + base + ".p99", quantile(us, 0.99), "us");
    base.resize(base.size() - 3);  // drop "_us"
    report.metric(prefix + base + "_share_pct",
                  total_us > 0 ? sum_us / total_us * 100.0 : 0.0, "%");
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

int run(const Args& args) {
  const bool sim = args.workload == "sim_poll3_fine";
  if (!sim && args.workload != "proto_tiny_poll3") {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Report report;
  if (args.trace) {
    // The per-layer view is the same whatever the workload: module
    // timings, the simulator's speed, and traced, capacity and fault runs
    // of the prototype's two clusters (paper setting and tiny service).
    sim_layers(args.seed, report);
    sim_speed_layer(args.seed, report);
    wire_layers(report);
    capacity_layers(args.seed, report);
    fault_layers(args.seed, report);
    ProtoSpec tiny = make_proto(Proto::kTiny, args.seed);
    layers_proto(tiny, "tiny.", report);
    ProtoSpec paper = make_proto(Proto::kPaper, args.seed);
    layers_proto(paper, "paper.", report);
  } else if (sim) {
    run_sim(args.seed, args.seconds, report);
  } else {
    ProtoSpec tiny = make_proto(Proto::kTiny, args.seed);
    end_to_end_proto(tiny, args.seconds, report);
  }
  print_report(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
