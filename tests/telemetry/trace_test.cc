#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace finelb::telemetry {
namespace {

TEST(TraceRingTest, SamplingKnob) {
  TraceRing off(64, 0);
  EXPECT_FALSE(off.sampled(0));
  EXPECT_FALSE(off.sampled(16));

  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  TraceRing every16(64, 16);
  EXPECT_TRUE(every16.sampled(0));
  EXPECT_TRUE(every16.sampled(32));
  EXPECT_FALSE(every16.sampled(33));
  TraceRing all(64, 1);
  EXPECT_TRUE(all.sampled(7));
}

TEST(TraceRingTest, RecordsCanonicalRequestPathInOrder) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  TraceRing ring(64, 1);
  const TracePoint path[] = {
      TracePoint::kClientEnqueue, TracePoint::kPollSent,
      TracePoint::kPollReply,     TracePoint::kServerPick,
      TracePoint::kDispatch,      TracePoint::kServiceStart,
      TracePoint::kResponse,
  };
  std::int64_t t = 1000;
  for (const TracePoint p : path) ring.record(7, p, 2, t += 10, 5);

  const std::vector<TraceRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 7u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].point, path[i]);
    EXPECT_EQ(records[i].request_id, 7u);
    EXPECT_EQ(records[i].node, 2);
    EXPECT_EQ(records[i].detail, 5);
    if (i > 0) {
      EXPECT_GT(records[i].at_ns, records[i - 1].at_ns);
    }
  }
}

TEST(TraceRingTest, WrapKeepsNewestRecords) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  TraceRing ring(8, 1);
  for (int i = 0; i < 20; ++i) {
    ring.record(static_cast<std::uint64_t>(i), TracePoint::kDispatch, 0, i);
  }
  const std::vector<TraceRecord> records = ring.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].request_id, 12 + i);  // oldest-first, newest 8
  }
}

TEST(TraceRingTest, DisabledPeriodRecordsNothing) {
  TraceRing ring(8, 0);
  ring.record(1, TracePoint::kDispatch, 0, 0);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRingTest, PointNamesAreStable) {
  EXPECT_STREQ(trace_point_name(TracePoint::kClientEnqueue),
               "client_enqueue");
  EXPECT_STREQ(trace_point_name(TracePoint::kPollDiscard), "poll_discard");
  EXPECT_STREQ(trace_point_name(TracePoint::kResponse), "response");
}

// Writers hammering the ring while a reader snapshots: every returned record
// must be one that some writer actually produced, never a mix of two
// generations. Each writer tags records with request_id == at_ns == detail,
// so a torn record is directly detectable. Run under TSan via `-L runtime`.
TEST(TraceRingConcurrencyTest, SnapshotNeverReturnsTornRecords) {
  if (!kEnabled) GTEST_SKIP() << "telemetry compiled out";
  TraceRing ring(32, 1);  // small ring: constant overwriting
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
        ring.record(tag, TracePoint::kPollReply, w,
                    static_cast<std::int64_t>(tag),
                    static_cast<std::int64_t>(tag));
      }
    });
  }
  int snapshots = 0;
  std::thread reader([&] {
    reading.store(true);
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceRecord& rec : ring.snapshot()) {
        EXPECT_EQ(rec.request_id, static_cast<std::uint64_t>(rec.at_ns));
        EXPECT_EQ(rec.at_ns, rec.detail) << "torn trace record";
        EXPECT_EQ(rec.request_id / kIters, static_cast<unsigned>(rec.node));
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

}  // namespace
}  // namespace finelb::telemetry
