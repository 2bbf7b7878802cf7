#include "neptune/service_node.h"

#include <gtest/gtest.h>

#include <string>

#include "cluster/stop_latency.h"
#include "codec_test_util.h"
#include "common/check.h"
#include "net/clock.h"
#include "net/message.h"
#include "net/poller.h"
#include "telemetry/metrics.h"

namespace finelb::neptune {
namespace {

constexpr std::uint16_t kEcho = 1;
constexpr std::uint16_t kUpper = 2;
constexpr std::uint16_t kBoom = 3;

ServiceNodeOptions echo_options(ServerId id = 0) {
  ServiceNodeOptions options;
  options.id = id;
  options.service_name = "echo";
  options.partitions = {0, 1};
  return options;
}

std::unique_ptr<ServiceNode> make_echo_node(ServerId id = 0) {
  auto node = std::make_unique<ServiceNode>(echo_options(id));
  node->register_method(kEcho, [](std::uint32_t,
                                  std::span<const std::uint8_t> args) {
    return std::vector<std::uint8_t>(args.begin(), args.end());
  });
  node->register_method(kUpper, [](std::uint32_t,
                                   std::span<const std::uint8_t> args) {
    std::vector<std::uint8_t> out(args.begin(), args.end());
    for (auto& c : out) c = static_cast<std::uint8_t>(std::toupper(c));
    return out;
  });
  node->register_method(kBoom, [](std::uint32_t,
                                  std::span<const std::uint8_t>)
                            -> std::vector<std::uint8_t> {
    throw std::runtime_error("application failure");
  });
  return node;
}

RpcResponse call_raw(net::UdpSocket& socket, const net::Address& dest,
                     const RpcRequest& request) {
  EXPECT_TRUE(socket.send_to(request.encode(), dest));
  net::Poller poller;
  poller.add(socket.fd(), 0);
  std::vector<std::uint8_t> buf(64 * 1024);
  const SimTime deadline = net::monotonic_now() + 2 * kSecond;
  while (net::monotonic_now() < deadline) {
    poller.wait(50 * kMillisecond);
    if (auto dgram = socket.recv_from(buf)) {
      return must_decode<RpcResponse>(std::span(buf.data(), dgram->size));
    }
  }
  ADD_FAILURE() << "no RPC response";
  return {};
}

TEST(ServiceNodeTest, DispatchesToRegisteredMethod) {
  auto node = make_echo_node(4);
  node->start();
  net::UdpSocket client;
  RpcRequest request;
  request.request_id = 10;
  request.method = kUpper;
  request.partition = 1;
  request.args = {'h', 'i'};
  const RpcResponse response =
      call_raw(client, node->service_address(), request);
  EXPECT_EQ(response.status, RpcStatus::kOk);
  EXPECT_EQ(response.request_id, 10u);
  EXPECT_EQ(response.server, 4);
  EXPECT_EQ(response.result, (std::vector<std::uint8_t>{'H', 'I'}));
  node->stop();
  EXPECT_EQ(node->accesses_served(), 1);
}

TEST(ServiceNodeTest, UnknownMethodAndPartitionStatuses) {
  auto node = make_echo_node();
  node->start();
  net::UdpSocket client;

  RpcRequest request;
  request.request_id = 1;
  request.method = 99;
  request.partition = 0;
  EXPECT_EQ(call_raw(client, node->service_address(), request).status,
            RpcStatus::kNoSuchMethod);

  request.request_id = 2;
  request.method = kEcho;
  request.partition = 7;  // not hosted
  EXPECT_EQ(call_raw(client, node->service_address(), request).status,
            RpcStatus::kNoSuchPartition);
  node->stop();
}

TEST(ServiceNodeTest, HandlerExceptionsBecomeAppErrors) {
  auto node = make_echo_node();
  node->start();
  net::UdpSocket client;
  RpcRequest request;
  request.request_id = 3;
  request.method = kBoom;
  request.partition = 0;
  EXPECT_EQ(call_raw(client, node->service_address(), request).status,
            RpcStatus::kAppError);
  // Node survives the exception and keeps serving.
  request.request_id = 4;
  request.method = kEcho;
  request.args = {'x'};
  EXPECT_EQ(call_raw(client, node->service_address(), request).status,
            RpcStatus::kOk);
  node->stop();
  EXPECT_EQ(node->app_errors(), 1);
}

TEST(ServiceNodeTest, AnswersLoadInquiries) {
  auto node = make_echo_node();
  node->start();
  net::UdpSocket client;
  net::LoadInquiry inquiry;
  inquiry.seq = 55;
  ASSERT_TRUE(client.send_to(inquiry.encode(), node->load_address()));
  net::Poller poller;
  poller.add(client.fd(), 0);
  ASSERT_FALSE(poller.wait(2 * kSecond).empty());
  std::array<std::uint8_t, 64> buf{};
  const auto size = client.recv_from(buf);
  ASSERT_TRUE(size.has_value());
  const auto reply =
      must_decode<net::LoadReply>(std::span(buf.data(), size->size));
  EXPECT_EQ(reply.seq, 55u);
  EXPECT_EQ(reply.queue_length, 0);
  node->stop();
}

TEST(ServiceNodeTest, AnswersStatsInquiriesWithJsonSnapshot) {
  auto node = make_echo_node(6);
  node->start();

  // Execute one access so the handler-time histogram is populated.
  net::UdpSocket rpc_client;
  RpcRequest request;
  request.request_id = 7;
  request.method = kEcho;
  request.partition = 0;
  request.args = {'h', 'i'};
  EXPECT_EQ(call_raw(rpc_client, node->service_address(), request).status,
            RpcStatus::kOk);
  // The served counter ticks just after the response is sent; wait for it
  // so the scrape below observes the completed access.
  const SimTime drain_deadline = net::monotonic_now() + kSecond;
  while (node->accesses_served() < 1 &&
         net::monotonic_now() < drain_deadline) {
    net::sleep_for(kMillisecond);
  }

  net::UdpSocket scraper;
  net::StatsInquiry inquiry;
  inquiry.seq = 404;
  ASSERT_TRUE(scraper.send_to(inquiry.encode(), node->load_address()));
  net::Poller poller;
  poller.add(scraper.fd(), 0);
  ASSERT_FALSE(poller.wait(2 * kSecond).empty());
  std::vector<std::uint8_t> buf(64 * 1024);
  const auto dgram = scraper.recv_from(buf);
  ASSERT_TRUE(dgram.has_value());
  net::StatsReply reply;
  ASSERT_TRUE(
      net::StatsReply::try_decode(std::span(buf.data(), dgram->size), reply));
  EXPECT_EQ(reply.seq, 404u);
  node->stop();

  EXPECT_NE(reply.payload.find("\"node\":\"neptune.echo.6\""),
            std::string::npos);
  if (telemetry::kEnabled) {
    EXPECT_NE(reply.payload.find("\"requests_served\":1"), std::string::npos);
    EXPECT_NE(reply.payload.find("\"service_time_ms\":{\"count\":1"),
              std::string::npos);
    EXPECT_NE(reply.payload.find("\"queue_depth\":"), std::string::npos);
  }
}

TEST(ServiceNodeTest, ValidationErrors) {
  ServiceNodeOptions no_name = echo_options();
  no_name.service_name.clear();
  EXPECT_THROW(ServiceNode node(no_name), InvariantError);

  ServiceNodeOptions no_partitions = echo_options();
  no_partitions.partitions.clear();
  EXPECT_THROW(ServiceNode node(no_partitions), InvariantError);

  auto node = std::make_unique<ServiceNode>(echo_options());
  EXPECT_THROW(node->start(), InvariantError) << "no methods registered";
  node->register_method(kEcho, [](std::uint32_t,
                                  std::span<const std::uint8_t> a) {
    return std::vector<std::uint8_t>(a.begin(), a.end());
  });
  EXPECT_THROW(
      node->register_method(kEcho,
                            [](std::uint32_t, std::span<const std::uint8_t>) {
                              return std::vector<std::uint8_t>{};
                            }),
      InvariantError)
      << "duplicate method id";
}

TEST(ServiceNodeTest, MalformedDatagramIgnored) {
  auto node = make_echo_node();
  node->start();
  net::UdpSocket client;
  const std::array<std::uint8_t, 2> garbage = {0xff, 0x01};
  ASSERT_TRUE(client.send_to(garbage, node->service_address()));
  net::sleep_for(30 * kMillisecond);
  EXPECT_EQ(node->queue_length(), 0);
  node->stop();
}

TEST(ServiceNodeTest, StopWakesAnIdleLoopAtOnce) {
  // Publishing on too: the receive loops and the publish loop all wait on
  // the stop waker, so none of them sits out a sleep slice.
  net::UdpSocket directory;
  const SimDuration fastest = cluster::fastest_idle_stop([&directory] {
    auto node = make_echo_node();
    node->enable_publishing(directory.local_address(), kSecond, 2 * kSecond);
    return node;
  });
  EXPECT_LT(fastest, 20 * kMillisecond);
}

}  // namespace
}  // namespace finelb::neptune
