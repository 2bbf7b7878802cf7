#include "telemetry/decision.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/selection.h"
#include "telemetry/merge.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace finelb::telemetry {
namespace {

std::vector<ServerLoad> make_loads(std::initializer_list<std::int32_t> qlens,
                                   std::int64_t measured_at = 0) {
  std::vector<ServerLoad> loads;
  ServerId id = 0;
  for (const std::int32_t q : qlens) {
    loads.push_back({id++, q, measured_at});
  }
  return loads;
}

TEST(DecisionRingTest, SamplingKnob) {
  DecisionRing off(64, 0);
  EXPECT_FALSE(off.sampled(0));
  EXPECT_FALSE(off.sampled(16));
  EXPECT_FALSE(off.active());
  EXPECT_EQ(off.sink(), nullptr);

  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  DecisionRing every16(64, 16);
  EXPECT_TRUE(every16.sampled(0));
  EXPECT_TRUE(every16.sampled(32));
  EXPECT_FALSE(every16.sampled(33));
  EXPECT_TRUE(every16.active());
  EXPECT_NE(every16.sink(), nullptr);
  DecisionRing all(64, 1);
  EXPECT_TRUE(all.sampled(7));
}

TEST(DecisionRingTest, InactiveRingRecordsNothing) {
  DecisionRing ring(8, 0);
  DecisionRecord rec;
  rec.request_id = 7;
  ring.record_decision(rec);
  EXPECT_TRUE(ring.snapshot().empty());
}

// The choke point fills the record: polled set with reported loads and
// report ages, the winner, and the blacklist/blind flags.
TEST(DecisionRingTest, ChokePointRecordsPolledSetAndWinner) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  DecisionRing ring(16, 1);
  const auto loads = make_loads({5, 2, 9}, /*measured_at=*/400);
  DecisionContext ctx;
  ctx.request_id = 42;
  ctx.now_ns = 1000;
  ctx.blacklist_filtered = 3;
  ctx.sink = ring.sink();
  Rng rng(1);
  const ServerId chosen = pick_least_loaded(loads, rng, ctx);
  EXPECT_EQ(chosen, 1);  // unique minimum, no tie-break randomness

  const std::vector<DecisionRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 1u);
  const DecisionRecord& rec = records[0];
  EXPECT_EQ(rec.request_id, 42u);
  EXPECT_EQ(rec.at_ns, 1000);
  EXPECT_EQ(rec.chosen, 1);
  EXPECT_FALSE(rec.blind_fallback);
  EXPECT_EQ(rec.blacklist_filtered, 3);
  ASSERT_EQ(rec.polled_count, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rec.polled[i].server, loads[i].server);
    EXPECT_EQ(rec.polled[i].queue_length, loads[i].queue_length);
    EXPECT_EQ(rec.polled[i].age_ns, 600);  // now - measured_at
  }
}

TEST(DecisionRingTest, BlindFallbackRecordsEmptyPolledSet) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  DecisionRing ring(16, 1);
  const std::vector<ServerId> candidates = {4};
  DecisionContext ctx;
  ctx.request_id = 9;
  ctx.now_ns = 50;
  ctx.sink = ring.sink();
  Rng rng(2);
  EXPECT_EQ(pick_random_fallback(candidates, rng, ctx), 4);

  const std::vector<DecisionRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].blind_fallback);
  EXPECT_EQ(records[0].chosen, 4);
  EXPECT_EQ(records[0].polled_count, 0);
}

// Poll sets beyond kDecisionPollMax truncate the inline array; the paper
// studies d <= 8, so only the record keeps fewer entries, never the choice.
TEST(DecisionRingTest, OversizedPollSetTruncatesRecordNotChoice) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  DecisionRing ring(16, 1);
  auto loads = make_loads({9, 8, 7, 6, 5, 4, 3, 2, 1, 0});
  DecisionContext ctx;
  ctx.request_id = 1;
  ctx.sink = ring.sink();
  Rng rng(3);
  EXPECT_EQ(pick_least_loaded(loads, rng, ctx), 9);  // true min, index 9
  const std::vector<DecisionRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].polled_count, kDecisionPollMax);
  EXPECT_EQ(records[0].chosen, 9);
}

// Recording must not perturb selection: the recorded overloads consume the
// RNG exactly like the unrecorded ones, so a seeded run reproduces
// bit-identically with auditing on or off.
TEST(DecisionRingTest, RecordingDoesNotPerturbRngConsumption) {
  const auto loads = make_loads({3, 3, 3, 3});  // all ties: RNG-heavy path
  const std::vector<ServerId> candidates = {0, 1, 2, 3};
  DecisionRing ring(64, 1);
  DecisionContext ctx;
  ctx.sink = ring.sink();

  Rng bare(11);
  Rng audited(11);
  for (int i = 0; i < 64; ++i) {
    ctx.request_id = static_cast<std::uint64_t>(i);
    EXPECT_EQ(pick_least_loaded(loads, bare),
              pick_least_loaded(loads, audited, ctx));
    EXPECT_EQ(pick_random(candidates, bare),
              pick_random_fallback(candidates, audited, ctx));
  }
}

TEST(DecisionRingTest, WrapKeepsNewestRecords) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  DecisionRing ring(8, 1);
  for (int i = 0; i < 20; ++i) {
    DecisionRecord rec;
    rec.request_id = static_cast<std::uint64_t>(i);
    ring.record_decision(rec);
  }
  const std::vector<DecisionRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].request_id, 12 + i);  // oldest-first, newest 8
  }
}

// Writers hammering the ring while a reader snapshots: every returned
// record must be one some writer actually produced, never a mix of two
// generations. Writers tag every word of the record with the same value, so
// a torn record is directly detectable. Run under TSan via `-L runtime`.
TEST(DecisionRingConcurrencyTest, SnapshotNeverReturnsTornRecords) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  DecisionRing ring(32, 1);  // small ring: constant overwriting
  constexpr int kWriters = 4;
  constexpr int kIters = 20000;
  // Writers start only once the reader is running, so the scrape overlaps
  // the writes instead of racing thread start-up.
  std::atomic<bool> reading{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &reading, w] {
      while (!reading.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        const auto tag =
            static_cast<std::uint64_t>(w) * kIters + static_cast<unsigned>(i);
        DecisionRecord rec;
        rec.request_id = tag;
        rec.at_ns = static_cast<std::int64_t>(tag);
        rec.chosen = static_cast<ServerId>(tag % 1000);
        rec.polled_count = 2;
        for (int p = 0; p < 2; ++p) {
          rec.polled[p].server = static_cast<ServerId>(tag % 1000);
          rec.polled[p].queue_length = static_cast<std::int32_t>(tag % 1000);
          rec.polled[p].age_ns = static_cast<std::int64_t>(tag);
        }
        ring.record_decision(rec);
      }
    });
  }
  int snapshots = 0;
  std::thread reader([&] {
    reading.store(true);
    while (!stop.load(std::memory_order_relaxed)) {
      for (const DecisionRecord& rec : ring.snapshot()) {
        EXPECT_EQ(rec.request_id, static_cast<std::uint64_t>(rec.at_ns));
        EXPECT_EQ(rec.chosen, static_cast<ServerId>(rec.request_id % 1000));
        ASSERT_EQ(rec.polled_count, 2);
        for (int p = 0; p < 2; ++p) {
          EXPECT_EQ(rec.polled[p].server, rec.chosen) << "torn record";
          EXPECT_EQ(rec.polled[p].age_ns, rec.at_ns) << "torn record";
        }
      }
      ++snapshots;
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_GT(snapshots, 0);
  // Quiesced: the last capacity() claims are all sealed and readable.
  EXPECT_EQ(ring.snapshot().size(), ring.capacity());
}

// --- regret accounting -------------------------------------------------------

DecisionRecord audited_decision(std::uint64_t id, ServerId chosen,
                                std::initializer_list<std::int32_t> promised) {
  DecisionRecord rec;
  rec.request_id = id;
  rec.chosen = chosen;
  ServerId sid = 0;
  for (const std::int32_t q : promised) {
    rec.polled[rec.polled_count].server = sid++;
    rec.polled[rec.polled_count].queue_length = q;
    ++rec.polled_count;
  }
  return rec;
}

MergedRecord response_record(std::uint64_t id, std::int64_t qlen_at_arrival) {
  MergedRecord m;
  m.record.request_id = id;
  m.record.point = TracePoint::kResponse;
  m.record.detail = qlen_at_arrival;
  return m;
}

TEST(DecisionQualityTest, ReconstructionJoinsAndScoresExactly) {
  std::vector<DecisionRecord> decisions;
  // Promised min 2, realized 5: regret 3, a mistake.
  decisions.push_back(audited_decision(100, 0, {2, 4}));
  // Promised min 1, realized 1: perfect decision.
  decisions.push_back(audited_decision(200, 1, {3, 1}));
  // Realized better than promised: regret clamps at 0.
  decisions.push_back(audited_decision(300, 0, {6}));
  // Untraced decision (no kResponse record): not joined, not counted.
  decisions.push_back(audited_decision(999, 0, {1}));

  std::vector<MergedRecord> merged;
  merged.push_back(response_record(100, 5));
  merged.push_back(response_record(200, 1));
  merged.push_back(response_record(300, 2));
  // A non-response record for 999 must not create a join.
  MergedRecord pick;
  pick.record.request_id = 999;
  pick.record.point = TracePoint::kServerPick;
  pick.record.detail = 0;
  merged.push_back(pick);

  const DecisionQualitySummary q =
      reconstruct_decision_quality(decisions, merged);
  EXPECT_EQ(q.decisions, 3);
  EXPECT_EQ(q.mistakes, 1);
  EXPECT_EQ(q.blind_fallbacks, 0);
  EXPECT_EQ(q.regret_total, 3);
  EXPECT_DOUBLE_EQ(q.mistake_rate(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(q.mean_regret(), 1.0);
}

TEST(DecisionQualityTest, BlindFallbackPromisesNothing) {
  DecisionRecord blind;
  blind.request_id = 7;
  blind.chosen = 2;
  blind.blind_fallback = true;
  std::vector<MergedRecord> merged = {response_record(7, 4)};

  const DecisionQualitySummary q =
      reconstruct_decision_quality({blind}, merged);
  // A blind pick promised queue 0; landing on depth 4 is 4 units of regret.
  EXPECT_EQ(q.decisions, 1);
  EXPECT_EQ(q.blind_fallbacks, 1);
  EXPECT_EQ(q.mistakes, 1);
  EXPECT_EQ(q.regret_total, 4);

  // A blind pick that lands on an idle server has nothing to regret.
  std::vector<MergedRecord> idle = {response_record(7, 0)};
  const DecisionQualitySummary q2 = reconstruct_decision_quality({blind}, idle);
  EXPECT_EQ(q2.decisions, 1);
  EXPECT_EQ(q2.mistakes, 0);
  EXPECT_EQ(q2.regret_total, 0);
}

TEST(DecisionQualityTest, EmptyInputs) {
  const DecisionQualitySummary q = reconstruct_decision_quality({}, {});
  EXPECT_EQ(q.decisions, 0);
  EXPECT_DOUBLE_EQ(q.mistake_rate(), 0.0);
  EXPECT_DOUBLE_EQ(q.mean_regret(), 0.0);
}

// The sim and the prototype must publish quality under identical metric
// names — this is the name list the stats documents and the alert rules
// key on.
TEST(DecisionQualityTest, AppendedMetricNamesAreStable) {
  DecisionQualitySummary q;
  q.decisions = 10;
  q.mistakes = 4;
  q.blind_fallbacks = 1;
  q.regret_total = 6;

  MetricsSnapshot snap;
  append_decision_metrics(snap, q);

  const auto counter = [&](const std::string& name) -> std::int64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return -1;
  };
  const auto value = [&](const std::string& name) -> double {
    for (const auto& [n, v] : snap.values) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing value " << name;
    return -1.0;
  };
  EXPECT_EQ(counter("decisions_total"), 10);
  EXPECT_EQ(counter("decision_mistakes_total"), 4);
  EXPECT_EQ(counter("decision_blind_fallbacks"), 1);
  EXPECT_EQ(counter("decision_regret_total"), 6);
  EXPECT_DOUBLE_EQ(value("decision_mistake_rate"), 0.4);
  EXPECT_DOUBLE_EQ(value("decision_regret_mean"), 0.6);
}

TEST(DecisionQualityTest, GoldenJson) {
  DecisionQualitySummary q;
  q.decisions = 4;
  q.mistakes = 1;
  q.blind_fallbacks = 2;
  q.regret_total = 3;
  const std::string json = decision_quality_to_json(q);
  EXPECT_NE(json.find("\"decisions\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mistakes\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"blind_fallbacks\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"regret_total\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mistake_rate\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_regret\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace finelb::telemetry
