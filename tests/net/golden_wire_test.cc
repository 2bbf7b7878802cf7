// Golden wire bytes: every message type encodes to exactly its pinned hex,
// and the pinned bytes decode back to a value that re-encodes identically.
// A codec refactor must leave every one of these byte strings untouched.
#include <gtest/gtest.h>

#include <string_view>
#include <type_traits>
#include <vector>

#include "golden_messages.h"

namespace finelb::golden {
namespace {

template <class Msg>
std::vector<std::uint8_t> encode_exact(const Msg& msg) {
  std::vector<std::uint8_t> out(msg.encoded_size());
  EXPECT_EQ(msg.encode_into(out), out.size());
  return out;
}

TEST(GoldenWireTest, EveryMessageEncodesToItsPinnedBytes) {
  int checked = 0;
  for_each_golden([&](const char* name, const auto& msg, std::string_view hex) {
    SCOPED_TRACE(name);
    EXPECT_EQ(to_hex(encode_exact(msg)), hex);
    ++checked;
  });
  EXPECT_EQ(checked, 25);
}

TEST(GoldenWireTest, PinnedBytesDecodeAndReencodeIdentically) {
  for_each_golden([](const char* name, const auto& msg, std::string_view hex) {
    SCOPED_TRACE(name);
    using Msg = std::decay_t<decltype(msg)>;
    const std::vector<std::uint8_t> wire = from_hex(hex);
    Msg decoded;
    ASSERT_TRUE(Msg::try_decode(wire, decoded));
    EXPECT_EQ(to_hex(encode_exact(decoded)), hex);
  });
}

TEST(GoldenWireTest, DistinctTypeTagsPerNetMessage) {
  // Every net message starts with its own MsgType tag (1..23, in order);
  // the two RPC tags live on a separate socket and may reuse values.
  int expected_tag = 1;
  for_each_golden([&](const char* name, const auto&, std::string_view hex) {
    SCOPED_TRACE(name);
    const std::uint8_t tag = from_hex(hex.substr(0, 2))[0];
    if (std::string_view(name).starts_with("Rpc")) return;
    EXPECT_EQ(tag, expected_tag);
    ++expected_tag;
  });
}

}  // namespace
}  // namespace finelb::golden
