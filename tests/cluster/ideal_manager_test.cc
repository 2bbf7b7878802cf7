#include "cluster/ideal_manager.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "codec_test_util.h"
#include "common/check.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"

namespace finelb::cluster {
namespace {

class ManagerClient {
 public:
  explicit ManagerClient(const net::Address& manager) {
    socket_.connect(manager);
    poller_.add(socket_.fd(), 0);
  }

  std::int32_t acquire(std::uint64_t seq) {
    net::Acquire msg;
    msg.seq = seq;
    EXPECT_TRUE(socket_.send(msg.encode()));
    std::array<std::uint8_t, 64> buf{};
    const SimTime deadline = net::monotonic_now() + 2 * kSecond;
    while (net::monotonic_now() < deadline) {
      poller_.wait(50 * kMillisecond);
      if (auto size = socket_.recv(buf)) {
        const auto reply =
            must_decode<net::AcquireReply>(std::span(buf.data(), *size));
        EXPECT_EQ(reply.seq, seq);
        return reply.server;
      }
    }
    ADD_FAILURE() << "manager did not answer";
    return -1;
  }

  void release(std::int32_t server) {
    net::Release msg;
    msg.server = server;
    EXPECT_TRUE(socket_.send(msg.encode()));
  }

  void send_raw(std::span<const std::uint8_t> payload) {
    EXPECT_TRUE(socket_.send(payload));
  }

 private:
  net::UdpSocket socket_;
  net::Poller poller_;
};

TEST(IdealManagerTest, AcquireSpreadsAcrossServers) {
  IdealManager manager(4);
  manager.start();
  ManagerClient client(manager.address());
  std::set<std::int32_t> chosen;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::int32_t server = client.acquire(i);
    ASSERT_GE(server, 0);
    ASSERT_LT(server, 4);
    chosen.insert(server);
  }
  // Four acquires with no releases must use four distinct servers (each
  // acquire increments the chosen server's count).
  EXPECT_EQ(chosen.size(), 4u);
  const auto queues = manager.tracked_queues();
  for (const std::int32_t q : queues) EXPECT_EQ(q, 1);
  manager.stop();
}

TEST(IdealManagerTest, ReleaseDecrements) {
  IdealManager manager(2);
  manager.start();
  ManagerClient client(manager.address());
  const std::int32_t first = client.acquire(1);
  client.release(first);
  net::sleep_for(50 * kMillisecond);
  const auto queues = manager.tracked_queues();
  EXPECT_EQ(queues[static_cast<std::size_t>(first)], 0);
  EXPECT_EQ(manager.acquires(), 1);
  EXPECT_EQ(manager.releases(), 1);
  manager.stop();
}

TEST(IdealManagerTest, PicksShortestQueue) {
  IdealManager manager(3);
  manager.start();
  ManagerClient client(manager.address());
  // Occupy two servers; the third acquire must take the empty one, and a
  // fourth (after releasing it) must take it again.
  const std::int32_t a = client.acquire(1);
  const std::int32_t b = client.acquire(2);
  const std::int32_t c = client.acquire(3);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  client.release(c);
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(client.acquire(4), c);
  manager.stop();
}

TEST(IdealManagerTest, BogusReleaseIsIgnored) {
  IdealManager manager(2);
  manager.start();
  ManagerClient client(manager.address());
  client.release(0);    // idle server
  client.release(99);   // unknown server
  net::sleep_for(50 * kMillisecond);
  EXPECT_EQ(manager.releases(), 0);
  const auto queues = manager.tracked_queues();
  EXPECT_EQ(queues[0], 0);
  manager.stop();
}

TEST(IdealManagerTest, RequiresAtLeastOneServer) {
  EXPECT_THROW(IdealManager manager(0), InvariantError);
}

// The oracle path takes loss/delay schedules like every other socket: with
// a total ingress drop the manager never sees an acquire, so the tracked
// queues stay untouched and the client times out instead of hanging.
TEST(IdealManagerTest, FaultInjectorDropsAcquires) {
  IdealManager manager(2);
  fault::FaultSpec spec;
  spec.ingress.drop_prob = 1.0;
  manager.attach_fault_injector(std::make_shared<fault::FaultInjector>(spec));
  manager.start();

  net::UdpSocket socket;
  socket.connect(manager.address());
  net::Acquire msg;
  msg.seq = 1;
  ASSERT_TRUE(socket.send(msg.encode()));
  net::sleep_for(150 * kMillisecond);
  EXPECT_EQ(manager.acquires(), 0) << "dropped acquire must not be counted";
  for (const std::int32_t q : manager.tracked_queues()) EXPECT_EQ(q, 0);
  manager.stop();
}

// Deterministic seeded drop schedule: with p=0.5 ingress loss some acquires
// land and some vanish; the survivors must still be answered correctly.
TEST(IdealManagerTest, PartialDropScheduleStillServesSurvivors) {
  IdealManager manager(4);
  fault::FaultSpec spec;
  spec.ingress.drop_prob = 0.5;
  spec.seed = 13;
  manager.attach_fault_injector(std::make_shared<fault::FaultInjector>(spec));
  manager.start();

  net::UdpSocket socket;
  socket.connect(manager.address());
  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::array<std::uint8_t, 64> buf{};
  int answered = 0;
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    net::Acquire msg;
    msg.seq = seq;
    ASSERT_TRUE(socket.send(msg.encode()));
    const SimTime deadline = net::monotonic_now() + 100 * kMillisecond;
    while (net::monotonic_now() < deadline) {
      poller.wait(20 * kMillisecond);
      if (auto size = socket.recv(buf)) {
        const auto reply =
            must_decode<net::AcquireReply>(std::span(buf.data(), *size));
        if (reply.seq == seq) {
          ++answered;
          break;
        }
      }
    }
  }
  EXPECT_GT(answered, 0) << "half-loss schedule should pass some acquires";
  EXPECT_LT(answered, 20) << "half-loss schedule should drop some acquires";
  EXPECT_EQ(manager.acquires(), answered);
  manager.stop();
}

// Hostile input on the manager socket: an empty datagram, truncated
// Acquire and Release encodings and an unknown type tag are each dropped
// without an answer or a queue change, and the manager keeps serving.
TEST(IdealManagerTest, MalformedDatagramsDroppedAndManagerKeepsServing) {
  IdealManager manager(2);
  manager.start();
  ManagerClient client(manager.address());
  const std::int32_t first = client.acquire(1);
  ASSERT_GE(first, 0);

  net::Acquire acquire;
  acquire.seq = 99;
  std::vector<std::uint8_t> truncated_acquire = acquire.encode();
  truncated_acquire.pop_back();
  net::Release release;
  release.server = first;
  std::vector<std::uint8_t> truncated_release = release.encode();
  truncated_release.pop_back();
  client.send_raw({});
  client.send_raw(truncated_acquire);
  client.send_raw(truncated_release);
  client.send_raw(std::vector<std::uint8_t>{0xee, 1, 2, 3});

  // Sent on the same socket after the garbage: the reply (checked to carry
  // seq 2, not the truncated acquire's 99) proves the garbage was drained.
  const std::int32_t second = client.acquire(2);
  ASSERT_GE(second, 0);
  // The queues are updated before each reply is sent (the acquire counter
  // only after), so they are the race-free witness: exactly two acquires
  // and no release took effect.
  EXPECT_EQ(manager.releases(), 0);
  std::int32_t held = 0;
  for (const std::int32_t q : manager.tracked_queues()) held += q;
  EXPECT_EQ(held, 2);
  manager.stop();
}

}  // namespace
}  // namespace finelb::cluster
