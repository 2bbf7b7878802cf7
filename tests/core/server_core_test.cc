// Tests for core::ServerCore, the server queue model the simulator and the
// prototype server drive. Pure: no clock, no sockets, no threads.
#include "core/server_core.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "alloc_hook.h"
#include "common/check.h"
#include "common/rng.h"

namespace finelb::core {
namespace {

using Core = ServerCore<int>;

/// Jobs in service, counted over every unit.
std::int32_t in_service(const Core& core) {
  std::int32_t n = 0;
  for (std::size_t u = 0; u < core.units(); ++u) n += core.busy(u) ? 1 : 0;
  return n;
}

TEST(ServerCoreTest, ServesInFifoOrderAcrossUnits) {
  Core core(3);
  for (int job = 1; job <= 6; ++job) core.arrive(job);
  for (std::size_t u = 0; u < 3; ++u) ASSERT_TRUE(core.start(u));
  EXPECT_EQ(core.job(0), 1);
  EXPECT_EQ(core.job(1), 2);
  EXPECT_EQ(core.job(2), 3);
  EXPECT_FALSE(core.start(1)) << "a busy unit starts nothing";

  core.finish(1);
  ASSERT_TRUE(core.start(1));
  EXPECT_EQ(core.job(1), 4);
  core.finish(2);
  core.finish(0);
  ASSERT_TRUE(core.start(2));
  ASSERT_TRUE(core.start(0));
  EXPECT_EQ(core.job(2), 5);
  EXPECT_EQ(core.job(0), 6);
  core.finish(0);
  EXPECT_FALSE(core.start(0)) << "nothing waits";
}

TEST(ServerCoreTest, QueueLengthIsWaitingPlusInServiceAtEveryStep) {
  Core core(2);
  Rng rng(7);
  std::deque<int> waiting;  // reference FIFO
  int next_job = 0;
  std::int64_t accepted = 0;
  std::int64_t finished = 0;
  for (int step = 0; step < 5'000; ++step) {
    const auto unit = static_cast<std::size_t>(rng.uniform_int(2));
    switch (rng.uniform_int(3)) {
      case 0:
        core.arrive(next_job);
        waiting.push_back(next_job++);
        ++accepted;
        break;
      case 1: {
        const bool can_start = !core.busy(unit) && !waiting.empty();
        ASSERT_EQ(core.start(unit), can_start);
        if (can_start) {
          EXPECT_EQ(core.job(unit), waiting.front());
          waiting.pop_front();
        }
        break;
      }
      default:
        if (core.busy(unit)) {
          core.finish(unit);
          ++finished;
        }
        break;
    }
    ASSERT_EQ(core.queue_length(), accepted - finished);
    ASSERT_EQ(core.queue_length(),
              static_cast<std::int32_t>(waiting.size()) + in_service(core));
  }
}

TEST(ServerCoreTest, ArriveReturnsTheQueueTheJobFound) {
  Core core(1);
  EXPECT_EQ(core.arrive(10), 0);
  EXPECT_EQ(core.arrive(11), 1);
  ASSERT_TRUE(core.start(0));
  EXPECT_EQ(core.queue_at_arrival(0), 0);
  core.finish(0);
  EXPECT_EQ(core.arrive(12), 1) << "job 11 still waits";
  ASSERT_TRUE(core.start(0));
  EXPECT_EQ(core.job(0), 11);
  EXPECT_EQ(core.queue_at_arrival(0), 1);
  core.finish(0);
  ASSERT_TRUE(core.start(0));
  EXPECT_EQ(core.queue_at_arrival(0), 1);
}

TEST(ServerCoreTest, MaxQueueLengthTracksTheHighWaterMark) {
  Core core(1);
  EXPECT_EQ(core.max_queue_length(), 0);
  for (int job = 0; job < 4; ++job) core.arrive(job);
  EXPECT_EQ(core.max_queue_length(), 4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(core.start(0));
    core.finish(0);
  }
  EXPECT_EQ(core.queue_length(), 1);
  EXPECT_EQ(core.max_queue_length(), 4);
  core.arrive(4);
  EXPECT_EQ(core.max_queue_length(), 4);
  for (int job = 5; job < 9; ++job) core.arrive(job);
  EXPECT_EQ(core.max_queue_length(), 6);
}

TEST(ServerCoreTest, ClearDropsEveryJobAndReturnsTheCount) {
  Core core(2);
  for (int job = 0; job < 5; ++job) core.arrive(job);
  ASSERT_TRUE(core.start(0));
  ASSERT_TRUE(core.start(1));
  EXPECT_EQ(core.clear(), 5);
  EXPECT_EQ(core.queue_length(), 0);
  EXPECT_FALSE(core.busy(0));
  EXPECT_FALSE(core.busy(1));
  EXPECT_FALSE(core.start(0)) << "the waiting jobs are gone too";
  EXPECT_EQ(core.max_queue_length(), 5);
  EXPECT_EQ(core.clear(), 0);
  EXPECT_EQ(core.arrive(7), 0) << "a cleared server starts empty";
}

TEST(ServerCoreTest, ZeroLengthServiceStartsAndFinishesInOneTurn) {
  Core core(1);
  core.arrive(1);
  core.arrive(2);
  // The driver finishes each job as soon as it starts, as a zero-length
  // service does, and keeps the unit turning until nothing waits.
  int served = 0;
  while (core.start(0)) {
    EXPECT_EQ(core.job(0), ++served);
    core.finish(0);
  }
  EXPECT_EQ(served, 2);
  EXPECT_EQ(core.queue_length(), 0);
  EXPECT_FALSE(core.busy(0));
}

TEST(ServerCoreTest, MisuseIsAnInvariantError) {
  EXPECT_THROW(Core(0), InvariantError);
  Core core(1);
  EXPECT_THROW(core.finish(0), InvariantError);
}

TEST(ServerCoreTest, SteadyStateNeverAllocates) {
  Core core(2);
  // Warm-up: the longest backlog the measured phase reaches.
  constexpr int kBacklog = 64;
  for (int job = 0; job < kBacklog; ++job) core.arrive(job);
  core.clear();

  const std::int64_t before = alloc_hook::local();
  int job = 0;
  for (int round = 0; round < 1'000; ++round) {
    const int burst = 1 + round % kBacklog;
    for (int i = 0; i < burst; ++i) core.arrive(job++);
    for (std::size_t unit = 0; core.queue_length() > 0; unit ^= 1) {
      core.start(unit);
      if (core.busy(unit)) core.finish(unit);
    }
  }
  const std::int64_t allocations = alloc_hook::local() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(core.max_queue_length(), kBacklog);
}

}  // namespace
}  // namespace finelb::core
