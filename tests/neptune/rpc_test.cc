#include "neptune/rpc.h"

#include <gtest/gtest.h>

#include "codec_test_util.h"

namespace finelb::neptune {
namespace {

TEST(RpcCodecTest, RequestRoundTrip) {
  RpcRequest request;
  request.request_id = 0xabcdef0123456789ull;
  request.method = 7;
  request.partition = 3;
  request.args = {1, 2, 3, 4, 5};
  const auto decoded = must_decode<RpcRequest>(request.encode());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.method, 7);
  EXPECT_EQ(decoded.partition, 3u);
  EXPECT_EQ(decoded.args, request.args);
}

TEST(RpcCodecTest, EmptyArgsAllowed) {
  RpcRequest request;
  request.request_id = 1;
  const auto decoded = must_decode<RpcRequest>(request.encode());
  EXPECT_TRUE(decoded.args.empty());
}

TEST(RpcCodecTest, ResponseRoundTripAllStatuses) {
  for (const RpcStatus status :
       {RpcStatus::kOk, RpcStatus::kNoSuchMethod, RpcStatus::kNoSuchPartition,
        RpcStatus::kAppError}) {
    RpcResponse response;
    response.request_id = 42;
    response.status = status;
    response.server = 11;
    response.queue_at_arrival = 2;
    response.result = {9, 9, 9};
    const auto decoded = must_decode<RpcResponse>(response.encode());
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.server, 11);
    EXPECT_EQ(decoded.result, response.result);
  }
}

TEST(RpcCodecTest, LargePayloadWithinDatagramLimit) {
  RpcRequest request;
  request.request_id = 1;
  request.args.assign(60 * 1024, 0x5a);
  const auto decoded = must_decode<RpcRequest>(request.encode());
  EXPECT_EQ(decoded.args.size(), 60u * 1024);
}

TEST(RpcCodecTest, OversizedPayloadRejected) {
  RpcRequest request;
  request.args.assign(60 * 1024 + 1, 0);
  std::vector<std::uint8_t> buf(request.encoded_size());
  EXPECT_EQ(request.encode_into(buf), 0u);
  EXPECT_TRUE(request.encode().empty());
  RpcResponse response;
  response.result.assign(60 * 1024 + 1, 0);
  buf.resize(response.encoded_size());
  EXPECT_EQ(response.encode_into(buf), 0u);
  EXPECT_TRUE(response.encode().empty());
}

TEST(RpcCodecTest, CrossDecodeRejected) {
  RpcRequest request;
  request.request_id = 1;
  EXPECT_FALSE(decodes<RpcResponse>(request.encode()));
  RpcResponse response;
  response.request_id = 1;
  EXPECT_FALSE(decodes<RpcRequest>(response.encode()));
}

TEST(RpcCodecTest, TruncatedPrefixesRejected) {
  RpcRequest request;
  request.request_id = 1;
  request.args = {1, 2, 3};
  const auto bytes = request.encode();
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    EXPECT_FALSE(decodes<RpcRequest>(all.subspan(0, len)));
  }
}

TEST(RpcCodecTest, UnknownStatusByteRejected) {
  RpcResponse response;
  response.request_id = 1;
  auto bytes = response.encode();
  bytes[9] = 250;  // status byte follows tag(1) + request_id(8)
  EXPECT_FALSE(decodes<RpcResponse>(bytes));
}

}  // namespace
}  // namespace finelb::neptune
