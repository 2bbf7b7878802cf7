#include "cluster/blocking_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace finelb::cluster {
namespace {

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BlockingQueueTest, CloseWakesBlockedPopper) {
  BlockingQueue<int> q;
  std::atomic<bool> returned{false};
  std::thread popper([&] {
    EXPECT_FALSE(q.pop().has_value());
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  popper.join();
  EXPECT_TRUE(returned.load());
}

TEST(BlockingQueueTest, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.push(7);
  q.push(8);
  q.close();
  EXPECT_FALSE(q.push(9)) << "push after close must fail";
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), 8);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueueTest, ProducerConsumerStress) {
  BlockingQueue<int> q;
  constexpr int kItems = 20000;
  constexpr int kConsumers = 3;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++popped;
      }
    });
  }
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) q.push(i);
    q.close();
  });
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kItems);
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kItems) * (kItems + 1) / 2);
}

TEST(BlockingQueueTest, MoveOnlyPayload) {
  BlockingQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 5);
}

TEST(BlockingQueueTest, RingGrowthPreservesFifoAcrossWrap) {
  // Force the ring to wrap and regrow with a live head offset: interleave
  // pushes and pops past the initial capacity, then grow mid-wrap.
  BlockingQueue<int> q;
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 7; ++i) q.push(next_push++);
    for (int i = 0; i < 5; ++i) ASSERT_EQ(q.pop(), next_pop++);
  }
  q.close();
  while (auto v = q.pop()) ASSERT_EQ(*v, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

}  // namespace
}  // namespace finelb::cluster
