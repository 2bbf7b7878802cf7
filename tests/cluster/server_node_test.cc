#include "cluster/server_node.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include "cluster/stop_latency.h"
#include "codec_test_util.h"
#include "common/check.h"
#include "net/clock.h"
#include "net/poller.h"
#include "telemetry/metrics.h"

namespace finelb::cluster {
namespace {

ServerOptions quiet_options(ServerId id = 0) {
  ServerOptions opts;
  opts.id = id;
  opts.inject_busy_reply_delay = false;
  return opts;
}

// Sends a datagram and waits for one reply on the same socket.
template <class Request>
std::vector<std::uint8_t> roundtrip(net::UdpSocket& socket,
                                    const net::Address& dest,
                                    const Request& request,
                                    SimDuration timeout = 2 * kSecond) {
  EXPECT_TRUE(socket.send_to(request.encode(), dest));
  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::array<std::uint8_t, 512> buf{};
  const SimTime deadline = net::monotonic_now() + timeout;
  while (net::monotonic_now() < deadline) {
    poller.wait(50 * kMillisecond);
    if (auto dgram = socket.recv_from(buf)) {
      return {buf.begin(), buf.begin() + static_cast<long>(dgram->size)};
    }
  }
  ADD_FAILURE() << "no reply within timeout";
  return {};
}

TEST(ServerNodeTest, AnswersLoadInquiriesWithZeroQueueWhenIdle) {
  ServerNode server(quiet_options(3));
  server.start();
  net::UdpSocket client;
  net::LoadInquiry inquiry;
  inquiry.seq = 77;
  const auto bytes = roundtrip(client, server.load_address(), inquiry);
  const auto reply = must_decode<net::LoadReply>(bytes);
  EXPECT_EQ(reply.seq, 77u);
  EXPECT_EQ(reply.queue_length, 0);
  server.stop();
  EXPECT_EQ(server.counters().inquiries_answered, 1);
}

TEST(ServerNodeTest, ServesRequestAndDecrementsQueue) {
  ServerNode server(quiet_options(5));
  server.start();
  net::UdpSocket client;
  net::ServiceRequest request;
  request.request_id = 1234;
  request.service_us = 5000;  // 5 ms
  const SimTime start = net::monotonic_now();
  const auto bytes = roundtrip(client, server.service_address(), request);
  const SimDuration elapsed = net::monotonic_now() - start;
  const auto response = must_decode<net::ServiceResponse>(bytes);
  EXPECT_EQ(response.request_id, 1234u);
  EXPECT_EQ(response.server, 5);
  EXPECT_EQ(response.queue_at_arrival, 0);
  EXPECT_GE(elapsed, 5 * kMillisecond) << "service time must be honoured";
  // The worker sends the response before decrementing the queue counter,
  // so poll briefly instead of asserting the instant the reply lands.
  const SimTime drain_deadline = net::monotonic_now() + kSecond;
  while (server.queue_length() != 0 && net::monotonic_now() < drain_deadline) {
    net::sleep_for(kMillisecond);
  }
  EXPECT_EQ(server.queue_length(), 0) << "queue drains after response";
  server.stop();
  EXPECT_EQ(server.counters().requests_served, 1);
}

TEST(ServerNodeTest, FifoQueueingSerializesRequests) {
  ServerNode server(quiet_options(1));  // one worker: non-preemptive unit
  server.start();
  net::UdpSocket client;
  net::ServiceRequest request;
  request.service_us = 30000;  // 30 ms each
  for (std::uint64_t i = 0; i < 3; ++i) {
    request.request_id = i;
    ASSERT_TRUE(client.send_to(request.encode(), server.service_address()));
  }
  // Give the receive loop a moment; all three must be active at once.
  net::sleep_for(10 * kMillisecond);
  EXPECT_EQ(server.queue_length(), 3);

  // Responses must arrive in FIFO order and take ~90 ms total.
  net::Poller poller;
  poller.add(client.fd(), 0);
  std::array<std::uint8_t, 128> buf{};
  std::vector<std::uint64_t> order;
  const SimTime deadline = net::monotonic_now() + 2 * kSecond;
  while (order.size() < 3 && net::monotonic_now() < deadline) {
    poller.wait(50 * kMillisecond);
    while (auto dgram = client.recv_from(buf)) {
      order.push_back(
          must_decode<net::ServiceResponse>(std::span(buf.data(), dgram->size))
              .request_id);
    }
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
  server.stop();
}

TEST(ServerNodeTest, QueueLengthVisibleToPollsDuringService) {
  ServerNode server(quiet_options(2));
  server.start();
  net::UdpSocket service_client;
  net::ServiceRequest request;
  request.request_id = 9;
  request.service_us = 100000;  // 100 ms
  ASSERT_TRUE(service_client.send_to(request.encode(),
                                     server.service_address()));
  net::sleep_for(20 * kMillisecond);

  net::UdpSocket poll_client;
  net::LoadInquiry inquiry;
  inquiry.seq = 1;
  const auto bytes = roundtrip(poll_client, server.load_address(), inquiry);
  EXPECT_EQ(must_decode<net::LoadReply>(bytes).queue_length, 1);
  server.stop();
}

TEST(ServerNodeTest, BusyReplyDelaySlowsInquiriesUnderLoad) {
  ServerOptions opts = quiet_options(4);
  opts.inject_busy_reply_delay = true;
  opts.busy_reply_alpha = 1.2;
  opts.busy_reply_xm = from_ms(5);  // exaggerated for test visibility
  opts.busy_reply_cap = from_ms(50);
  ServerNode server(opts);
  server.start();

  // Idle: replies are fast even with injection enabled (qlen == 0).
  net::UdpSocket poll_client;
  net::LoadInquiry inquiry;
  inquiry.seq = 1;
  SimTime start = net::monotonic_now();
  roundtrip(poll_client, server.load_address(), inquiry);
  EXPECT_LT(net::monotonic_now() - start, from_ms(5));

  // Busy: replies carry the injected Pareto delay (min 5 ms here).
  net::UdpSocket service_client;
  net::ServiceRequest request;
  request.request_id = 1;
  request.service_us = 200000;
  ASSERT_TRUE(service_client.send_to(request.encode(),
                                     server.service_address()));
  net::sleep_for(20 * kMillisecond);
  inquiry.seq = 2;
  start = net::monotonic_now();
  roundtrip(poll_client, server.load_address(), inquiry);
  EXPECT_GE(net::monotonic_now() - start, from_ms(4));
  server.stop();
}

TEST(ServerNodeTest, MalformedDatagramsIgnored) {
  ServerNode server(quiet_options(6));
  server.start();
  net::UdpSocket client;
  const std::array<std::uint8_t, 3> garbage = {0xff, 0x00, 0x42};
  ASSERT_TRUE(client.send_to(garbage, server.service_address()));
  ASSERT_TRUE(client.send_to(garbage, server.load_address()));
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(server.queue_length(), 0);
  // Server still functional afterwards.
  net::LoadInquiry inquiry;
  inquiry.seq = 3;
  const auto bytes = roundtrip(client, server.load_address(), inquiry);
  EXPECT_EQ(must_decode<net::LoadReply>(bytes).seq, 3u);
  server.stop();
}

TEST(ServerNodeTest, AnswersStatsInquiriesWithJsonSnapshot) {
  ServerOptions opts = quiet_options(11);
  opts.trace_sample_period = 1;  // trace every request
  ServerNode server(opts);
  server.start();

  // Serve one request so the scraped snapshot has non-zero content.
  net::UdpSocket service_client;
  net::ServiceRequest request;
  request.request_id = 42;
  request.service_us = 1000;
  roundtrip(service_client, server.service_address(), request);
  // Wait for the served counter so the scrape below observes the
  // completed request.
  const SimTime drain_deadline = net::monotonic_now() + kSecond;
  while (server.counters().requests_served < 1 &&
         net::monotonic_now() < drain_deadline) {
    net::sleep_for(kMillisecond);
  }

  // Snapshot documents are far larger than fixed wire messages: receive
  // through a payload-sized buffer instead of the roundtrip() helper's.
  net::UdpSocket scraper;
  net::StatsInquiry inquiry;
  inquiry.seq = 909;
  ASSERT_TRUE(scraper.send_to(inquiry.encode(), server.load_address()));
  net::Poller poller;
  poller.add(scraper.fd(), 0);
  ASSERT_FALSE(poller.wait(2 * kSecond).empty());
  std::vector<std::uint8_t> buf(64 * 1024);
  const auto dgram = scraper.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());
  net::StatsReply reply;
  ASSERT_TRUE(
      net::StatsReply::try_decode(std::span(buf.data(), dgram->size), reply));
  EXPECT_EQ(reply.seq, 909u);
  server.stop();

  const std::string& json = reply.payload;
  EXPECT_NE(json.find("\"node\":\"server.11\""), std::string::npos);
  if (telemetry::kEnabled) {
    EXPECT_NE(json.find("\"queue_depth\":"), std::string::npos);
    EXPECT_NE(json.find("\"requests_served\":1"), std::string::npos);
    EXPECT_NE(json.find("\"service_time_ms\":{\"count\":1"),
              std::string::npos);
    EXPECT_NE(json.find("\"point\":\"service_start\""), std::string::npos);
    EXPECT_NE(json.find("\"point\":\"response\""), std::string::npos);
  }
  // The registry view agrees with the wire snapshot.
  const auto snap = server.metrics().snapshot("server.11");
  for (const auto& [name, value] : snap.counters) {
    if (name == "requests_served") {
      EXPECT_EQ(value, telemetry::kEnabled ? 1 : 0);
    }
  }
}

TEST(ServerNodeTest, StopIsIdempotentAndRestartForbidden) {
  ServerNode server(quiet_options(7));
  server.start();
  server.stop();
  server.stop();  // no-op
  EXPECT_THROW(server.start(), InvariantError);
}

// Threads in this process, from /proc/self/task, read until the count
// holds for 5 ms: a joined thread can linger there briefly.
std::ptrdiff_t settled_thread_count() {
  std::ptrdiff_t last = -1;
  for (;;) {
    const std::ptrdiff_t now = std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator());
    if (now == last) return now;
    last = now;
    net::sleep_for(5 * kMillisecond);
  }
}

TEST(ServerNodeTest, RunsOneThreadWithSeveralSlotsAndAnnouncements) {
  ServerOptions opts = quiet_options(9);
  opts.worker_threads = 3;
  ServerNode server(opts);
  net::UdpSocket sink;  // stands in for the directory and the channel
  server.enable_publishing(sink.local_address(), "svc", 0, from_ms(100),
                           from_ms(300));
  server.enable_load_broadcast(sink.local_address(), from_ms(100));
  // A sanitizer runtime may start a helper thread with the process's first
  // thread; let that happen before counting.
  std::thread([] {}).join();
  const std::ptrdiff_t before = settled_thread_count();
  server.start();
  EXPECT_EQ(settled_thread_count(), before + 1);
  server.stop();
  EXPECT_EQ(settled_thread_count(), before);
}

TEST(ServerNodeTest, StopWakesAnIdleLoopAtOnce) {
  // stop() wakes the event loop instead of waiting out its idle slice.
  const SimDuration fastest = fastest_idle_stop(
      [] { return std::make_unique<ServerNode>(quiet_options()); });
  EXPECT_LT(fastest, 20 * kMillisecond);
}

TEST(ServerNodeTest, WorkerPoolAllowsConcurrentService) {
  ServerOptions opts = quiet_options(8);
  opts.worker_threads = 3;
  ServerNode server(opts);
  server.start();
  net::UdpSocket client;
  net::ServiceRequest request;
  request.service_us = 50000;  // 50 ms
  const SimTime start = net::monotonic_now();
  for (std::uint64_t i = 0; i < 3; ++i) {
    request.request_id = i;
    ASSERT_TRUE(client.send_to(request.encode(), server.service_address()));
  }
  net::Poller poller;
  poller.add(client.fd(), 0);
  std::array<std::uint8_t, 128> buf{};
  int responses = 0;
  const SimTime deadline = net::monotonic_now() + 2 * kSecond;
  while (responses < 3 && net::monotonic_now() < deadline) {
    poller.wait(50 * kMillisecond);
    while (client.recv_from(buf)) ++responses;
  }
  const SimDuration elapsed = net::monotonic_now() - start;
  EXPECT_EQ(responses, 3);
  // Three 50 ms jobs on three workers: well under the 150 ms serial time.
  EXPECT_LT(elapsed, 120 * kMillisecond);
  server.stop();
}

}  // namespace
}  // namespace finelb::cluster
