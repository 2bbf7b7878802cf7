#include "net/waker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/clock.h"
#include "net/poller.h"

namespace finelb::net {
namespace {

TEST(WakerTest, WakeReturnsAWaitBlockedOnAnotherThread) {
  Waker waker;
  Poller poller;
  poller.add(waker.fd(), 7);
  std::atomic<bool> returned{false};
  std::vector<Ready> seen;
  std::thread waiter([&] {
    const auto ready = poller.wait(-1);  // no timeout: only wake() ends it
    seen.assign(ready.begin(), ready.end());
    returned.store(true);
  });
  sleep_for(20 * kMillisecond);
  EXPECT_FALSE(returned.load()) << "wait returned before wake()";
  waker.wake();
  waiter.join();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].tag, 7u);
  EXPECT_TRUE(seen[0].readable);
}

TEST(WakerTest, StaysReadableOnceWoken) {
  Waker waker;
  Poller poller;
  poller.add(waker.fd(), 0);
  EXPECT_TRUE(poller.wait(0).empty());
  waker.wake();
  waker.wake();
  EXPECT_EQ(poller.wait(0).size(), 1u);
  EXPECT_EQ(poller.wait(0).size(), 1u);
}

}  // namespace
}  // namespace finelb::net
