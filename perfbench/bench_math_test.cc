// Tests of the benchmark's own arithmetic on hand-built inputs.
#include "bench_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

using finelb::telemetry::TracePoint;
using finelb::telemetry::TraceRecord;

/// Nearest-rank quantile over a sorted list, the rule LatencyHistogram uses.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  return sorted[rank - 1];
}

TEST(Quantile, NearestRank) {
  EXPECT_EQ(quantile({5, 1, 4, 2, 3}, 0.5), 3);
  EXPECT_EQ(quantile({5, 1, 4, 2, 3}, 0.99), 5);
  EXPECT_EQ(quantile({5, 1, 4, 2, 3}, 0.0), 1);
  EXPECT_EQ(quantile({}, 0.5), 0);
}

TEST(Quantile, SupportNeedsTenBeyond) {
  EXPECT_FALSE(percentile_supported(999, 0.99));  // rank 990, 9 beyond
  EXPECT_TRUE(percentile_supported(1000, 0.99));  // rank 990, 10 beyond
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(0, 0.5));
}

TEST(QuantileWithFailures, NoFailuresMatchesCompletions) {
  std::vector<double> done;
  for (int i = 1; i <= 1000; ++i) done.push_back(i);
  const auto q = [&done](double p) { return sorted_quantile(done, p); };
  EXPECT_EQ(quantile_with_failures(q, 1000, 0, 0.5), 500);
  EXPECT_EQ(quantile_with_failures(q, 1000, 0, 0.99), 990);
}

TEST(QuantileWithFailures, FailuresRankAboveEveryCompletion) {
  // 990 completions of 1..990 ms plus 10 failures: p99 is the 990th of
  // 1000, still a completion; one more failure pushes it onto a failure.
  std::vector<double> done;
  for (int i = 1; i <= 990; ++i) done.push_back(i);
  const auto q = [&done](double p) { return sorted_quantile(done, p); };
  EXPECT_EQ(quantile_with_failures(q, 990, 10, 0.99), 990);
  EXPECT_EQ(quantile_with_failures(q, 990, 10, 0.5), 500);
  std::vector<double> fewer(done.begin(), done.end() - 1);
  const auto q2 = [&fewer](double p) { return sorted_quantile(fewer, p); };
  EXPECT_EQ(quantile_with_failures(q2, 989, 11, 0.99), kFailed);
}

TEST(QuantileWithFailures, TurningSlowSuccessesIntoFailuresCannotLowerP99) {
  // 100 accesses, the two slowest take 50 ms. Failing them instead must not
  // make p99 look better.
  std::vector<double> all(98, 1.0);
  all.push_back(50.0);
  all.push_back(50.0);
  const auto q_all = [&all](double p) { return sorted_quantile(all, p); };
  const double before = quantile_with_failures(q_all, 100, 0, 0.99);
  std::vector<double> kept(98, 1.0);
  const auto q_kept = [&kept](double p) { return sorted_quantile(kept, p); };
  const double after = quantile_with_failures(q_kept, 98, 2, 0.99);
  EXPECT_EQ(before, 50.0);
  EXPECT_GE(after, before);
}

TEST(InterpolatedQuantile, SpreadsRanksAcrossTheBucket) {
  // 100 values spread evenly over one log bucket [16, 16.5) ms: the
  // bucket midpoint would report ~16.25 for every quantile.
  finelb::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add(16.0 + 0.5 * (i + 0.5) / 100.0);
  EXPECT_NEAR(interpolated_quantile(h, 0.10), 16.0 + 0.5 * 0.095, 1e-9);
  EXPECT_NEAR(interpolated_quantile(h, 0.50), 16.0 + 0.5 * 0.495, 1e-9);
  EXPECT_NEAR(interpolated_quantile(h, 0.99), 16.0 + 0.5 * 0.985, 1e-9);
}

TEST(InterpolatedQuantile, CountsBucketsBelowAndAbove) {
  finelb::LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.add(1.0);   // below
  for (int i = 0; i < 80; ++i) h.add(4.01);  // the p50 bucket [4, 4.125)
  for (int i = 0; i < 10; ++i) h.add(100.0);  // above
  // rank 50 is the 40th of 80 values in the bucket.
  EXPECT_NEAR(interpolated_quantile(h, 0.50), 4.0 + 0.125 * 39.5 / 80.0, 1e-9);
  EXPECT_EQ(interpolated_quantile(finelb::LatencyHistogram(), 0.5), 0.0);
}

TEST(Lateness, KnownSchedule) {
  // Intervals of 100 ns from a first draw at t=1000: accesses are due at
  // 1100, 1200, 1300. Access 0 is issued on time, access 1 runs 50 ns
  // late, and a stall delays access 2 by 250 ns.
  const std::vector<std::int64_t> draw_at = {1000, 1100, 1250, 1550};
  const std::vector<std::int64_t> interval = {100, 100, 100, 100};
  const std::vector<std::int64_t> late = lateness_ns(draw_at, interval);
  ASSERT_EQ(late.size(), 3u);
  EXPECT_EQ(late[0], 0);
  EXPECT_EQ(late[1], 50);
  EXPECT_EQ(late[2], 250);
  EXPECT_EQ(due_ns(draw_at, interval),
            (std::vector<std::int64_t>{1100, 1200, 1300}));
}

TEST(Lateness, TooFewDraws) {
  EXPECT_TRUE(lateness_ns({1000}, {100}).empty());
  EXPECT_TRUE(lateness_ns({}, {}).empty());
}

TraceRecord rec(TracePoint p, std::int32_t node, std::int64_t at,
                std::int64_t detail = 0) {
  TraceRecord r;
  r.request_id = 7;
  r.point = p;
  r.node = node;
  r.at_ns = at;
  r.detail = detail;
  return r;
}

Chain hand_built_chain() {
  Chain c;
  c.client = {rec(TracePoint::kClientEnqueue, -1, 1000),
              rec(TracePoint::kPollSent, -1, 1000),
              rec(TracePoint::kPollReply, 2, 1200),
              rec(TracePoint::kPollReply, 5, 1300),
              rec(TracePoint::kPollReply, 6, 1350),
              rec(TracePoint::kServerPick, 5, 1400),
              rec(TracePoint::kDispatch, 5, 1450),
              rec(TracePoint::kResponse, 5, 2600)};
  // Server 5 enqueued the request at 1500 (start 1700 minus 200 wait),
  // served it until 2500; server 2 answered a poll only.
  c.server = {rec(TracePoint::kLoadReplied, 2, 1100),
              rec(TracePoint::kLoadReplied, 5, 1150),
              rec(TracePoint::kServiceStart, 5, 1700, 200),
              rec(TracePoint::kResponse, 5, 2500)};
  return c;
}

TEST(PartitionChain, StagesOfHandBuiltChain) {
  const auto s = partition_chain(hand_built_chain(), 900);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->client_queue, 100);  // due 900 -> poll sent 1000
  EXPECT_EQ(s->poll_round, 400);
  EXPECT_EQ(s->dispatch, 50);
  EXPECT_EQ(s->wire_request, 50);   // 1450 -> enqueued 1500
  EXPECT_EQ(s->server_queue, 200);
  EXPECT_EQ(s->service, 800);
  EXPECT_EQ(s->wire_response, 100);
  EXPECT_EQ(s->end_to_end, 1700);
  EXPECT_EQ(s->sum(), s->end_to_end);
}

TEST(PartitionChain, IncompleteChainsAreRejected) {
  Chain no_server = hand_built_chain();
  no_server.server.clear();
  EXPECT_FALSE(partition_chain(no_server, 900).has_value());

  Chain other_server = hand_built_chain();
  other_server.server[2].node = 6;  // service start on a server not dispatched to
  EXPECT_FALSE(partition_chain(other_server, 900).has_value());

  Chain retried = hand_built_chain();
  retried.client.push_back(rec(TracePoint::kDispatch, 6, 2000));
  EXPECT_FALSE(partition_chain(retried, 900).has_value());

  Chain no_response = hand_built_chain();
  no_response.client.pop_back();
  EXPECT_FALSE(partition_chain(no_response, 900).has_value());
}

TEST(GroupChains, SplitsByRequestAndNodeKind) {
  std::vector<finelb::telemetry::MergedRecord> merged;
  const auto add = [&merged](std::uint64_t id, TracePoint p, std::int32_t src) {
    finelb::telemetry::MergedRecord m;
    m.record.request_id = id;
    m.record.point = p;
    m.source = src;
    merged.push_back(m);
  };
  add(1, TracePoint::kClientEnqueue, 2);
  add(1, TracePoint::kServiceStart, 0);
  add(2, TracePoint::kClientEnqueue, 2);
  add(9, TracePoint::kLeaderElected, 1);
  const auto chains =
      group_chains(merged, [](std::int32_t s) { return s == 2; });
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0].client.size(), 1u);
  EXPECT_EQ(chains[0].server.size(), 1u);
  EXPECT_EQ(chains[1].client.size(), 1u);
  EXPECT_TRUE(chains[1].server.empty());
}

Rung good_rung(double aps) {
  Rung r;
  r.offered_aps = aps;
  r.issued = 1000;
  r.latency_p99_ms = 1.0;
  r.issue_late_p99_ms = 0.1;
  r.drain_ms = 0.5;
  return r;
}

TEST(CapacityRung, PassFailRule) {
  EXPECT_TRUE(rung_passes(good_rung(10), 5.0));
  Rung slow = good_rung(10);
  slow.latency_p99_ms = 5.5;
  EXPECT_FALSE(rung_passes(slow, 5.0));
  Rung failed = good_rung(10);
  failed.failed = 1;
  EXPECT_FALSE(rung_passes(failed, 5.0));
  Rung late = good_rung(10);
  late.issue_late_p99_ms = 6.0;  // the generator itself fell behind
  EXPECT_FALSE(rung_passes(late, 5.0));
  Rung backlog = good_rung(10);
  backlog.drain_ms = 40.0;  // completions did not keep up with arrivals
  EXPECT_FALSE(rung_passes(backlog, 5.0));
  Rung lost = good_rung(10);
  lost.latency_p99_ms = kFailed;
  EXPECT_FALSE(rung_passes(lost, 5.0));
  Rung empty = good_rung(10);
  empty.issued = 0;
  EXPECT_FALSE(rung_passes(empty, 5.0));
}

TEST(CapacityRung, CapacityInterpolatesTheHalfPassCrossing) {
  // All runs pass up to 40k, one in three passes at 80k: the crossing sits
  // at 3/4 of the log distance from 40k to 80k.
  const std::vector<RungResult> ramp = {
      {20'000, 1.0}, {40'000, 1.0}, {80'000, 1.0 / 3.0}, {160'000, 0.0}};
  EXPECT_NEAR(capacity_aps(ramp), 40'000 * std::pow(2.0, 0.75), 1e-6);
}

TEST(CapacityRung, CapacityEdgeCases) {
  EXPECT_EQ(capacity_aps({{20'000, 0.0}, {40'000, 0.0}}), 0.0);
  EXPECT_EQ(capacity_aps({{20'000, 1.0}, {40'000, 2.0 / 3.0}}), 40'000);
  EXPECT_EQ(capacity_aps({}), 0.0);
  // A later rung passing again does not lift capacity past the first drop.
  EXPECT_NEAR(capacity_aps({{20'000, 1.0}, {40'000, 0.0}, {80'000, 1.0}}),
              20'000 * std::sqrt(2.0), 1e-6);
  // Exactly one half still passes.
  EXPECT_EQ(capacity_aps({{20'000, 0.5}, {40'000, 0.5}}), 40'000);
}

}  // namespace
}  // namespace perfbench
