#include "workload/workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/check.h"
#include "stats/accumulator.h"
#include "workload/catalog.h"

namespace finelb {
namespace {

TEST(WorkloadTest, DistributionWorkloadMeans) {
  const Workload w = Workload::from_distributions(
      "test", make_exponential(0.1), make_exponential(0.05));
  EXPECT_DOUBLE_EQ(w.mean_interval_sec(), 0.1);
  EXPECT_DOUBLE_EQ(w.mean_service_sec(), 0.05);
  EXPECT_FALSE(w.is_trace());
  EXPECT_THROW(w.trace(), InvariantError);
}

TEST(WorkloadTest, ArrivalScaleForLoad) {
  // 50 ms service, 16 servers at 90%: aggregate interval must be
  // 0.05 / (0.9 * 16) sec. Base interval equals the service mean for the
  // Poisson/Exp catalog workload, so scale = 1 / (0.9 * 16).
  const Workload w = make_poisson_exp(0.05);
  EXPECT_NEAR(w.arrival_scale_for_load(0.9, 16), 1.0 / (0.9 * 16.0), 1e-12);
  EXPECT_THROW(w.arrival_scale_for_load(0.0, 16), InvariantError);
  EXPECT_THROW(w.arrival_scale_for_load(0.9, 0), InvariantError);
}

TEST(WorkloadTest, SourceHonoursArrivalScale) {
  const Workload w = make_poisson_exp(0.05);
  auto unscaled = w.make_source(1.0, 42);
  auto scaled = w.make_source(0.25, 42);
  Accumulator a;
  Accumulator b;
  for (int i = 0; i < 50000; ++i) {
    a.add(to_sec(unscaled->next().arrival_interval));
    b.add(to_sec(scaled->next().arrival_interval));
  }
  EXPECT_NEAR(b.mean() / a.mean(), 0.25, 0.02);
}

TEST(WorkloadTest, SourcesWithDifferentSeedsDiffer) {
  const Workload w = make_poisson_exp(0.05);
  auto s1 = w.make_source(1.0, 1);
  auto s2 = w.make_source(1.0, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1->next().service_time == s2->next().service_time) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(WorkloadTest, TraceSourceLoopsAndScales) {
  const Trace trace({{10 * kMillisecond, 1 * kMillisecond},
                     {20 * kMillisecond, 2 * kMillisecond}},
                    "loop");
  const Workload w = Workload::from_trace(trace);
  EXPECT_TRUE(w.is_trace());
  auto source = w.make_source(2.0, 7);
  // Drain more records than the trace holds: replay must wrap around.
  std::int64_t service_sum = 0;
  for (int i = 0; i < 4; ++i) {
    const TraceRecord rec = source->next();
    service_sum += rec.service_time;
    EXPECT_TRUE(rec.arrival_interval == 20 * kMillisecond ||
                rec.arrival_interval == 40 * kMillisecond)
        << "intervals must be doubled by the scale";
  }
  EXPECT_EQ(service_sum, 2 * (1 + 2) * kMillisecond);
}

TEST(WorkloadTest, TraceMomentsComputeOnceAcrossThreads) {
  // A sweep shares one const Workload across its threads, and the first
  // arrival_scale_for_load() calls race to compute the trace's moments.
  // Every caller must see the value a lone serial call computes.
  const double serial =
      make_fine_grain(5'000, 3).arrival_scale_for_load(0.7, 16);
  const Workload shared = make_fine_grain(5'000, 3);
  std::vector<double> scales(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < scales.size(); ++t) {
    threads.emplace_back(
        [&, t] { scales[t] = shared.arrival_scale_for_load(0.7, 16); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const double scale : scales) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scale),
              std::bit_cast<std::uint64_t>(serial));
  }
}

TEST(WorkloadTest, TraceSourceSeedRandomizesOffset) {
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 100; ++i) {
    recs.push_back({kMillisecond, (i + 1) * kMicrosecond});
  }
  const Workload w = Workload::from_trace(Trace(recs, "offsets"));
  auto s1 = w.make_source(1.0, 1);
  auto s2 = w.make_source(1.0, 99);
  EXPECT_NE(s1->next().service_time, s2->next().service_time);
}

TEST(CatalogTest, SyntheticTraceMomentsMatchTable1) {
  // The headline Table 1 reproduction: synthesized traces must land on the
  // published moments within sampling tolerance.
  const Trace fine = synth_fine_grain_trace(200000, 1);
  const TraceStats fs = fine.stats();
  const TraceMoments fm = fine_grain_moments();
  EXPECT_NEAR(fs.service_mean_ms, fm.service_mean_ms,
              fm.service_mean_ms * 0.02);
  EXPECT_NEAR(fs.service_stddev_ms, fm.service_stddev_ms,
              fm.service_stddev_ms * 0.05);
  EXPECT_NEAR(fs.arrival_mean_ms, fm.arrival_mean_ms,
              fm.arrival_mean_ms * 0.02);
  EXPECT_NEAR(fs.arrival_stddev_ms, fm.arrival_stddev_ms,
              fm.arrival_stddev_ms * 0.08);

  const Trace medium = synth_medium_grain_trace(200000, 2);
  const TraceStats ms = medium.stats();
  const TraceMoments mm = medium_grain_moments();
  EXPECT_NEAR(ms.service_mean_ms, mm.service_mean_ms,
              mm.service_mean_ms * 0.03);
  EXPECT_NEAR(ms.service_stddev_ms, mm.service_stddev_ms,
              mm.service_stddev_ms * 0.10);
}

TEST(CatalogTest, FineGrainServiceHasSubExponentialVariance) {
  // Paper §1.1: the trace service-time distributions have lower variance
  // than an exponential (cv < 1) — true for the Fine-Grain trace.
  const TraceStats s = synth_fine_grain_trace(50000, 3).stats();
  EXPECT_LT(s.service_stddev_ms / s.service_mean_ms, 1.0);
}

TEST(CatalogTest, TracesAreDeterministicPerSeed) {
  const Trace a = synth_fine_grain_trace(100, 42);
  const Trace b = synth_fine_grain_trace(100, 42);
  EXPECT_EQ(a.records(), b.records());
  const Trace c = synth_fine_grain_trace(100, 43);
  EXPECT_NE(a.records(), c.records());
}

TEST(CatalogTest, WorkloadByName) {
  EXPECT_EQ(workload_by_name("poisson", 0.05).name(), "poisson-exp");
  EXPECT_EQ(workload_by_name("fine", 0.05, 1000, 1).name(), "fine-grain");
  EXPECT_EQ(workload_by_name("medium", 0.05, 1000, 1).name(), "medium-grain");
  EXPECT_THROW(workload_by_name("bogus"), InvariantError);
}

TEST(CatalogTest, PoissonExpUsesGivenServiceMean) {
  const Workload w = make_poisson_exp(0.0222);
  EXPECT_DOUBLE_EQ(w.mean_service_sec(), 0.0222);
  EXPECT_DOUBLE_EQ(w.mean_interval_sec(), 0.0222);
  EXPECT_THROW(make_poisson_exp(0.0), InvariantError);
}

}  // namespace
}  // namespace finelb
