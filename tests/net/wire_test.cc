#include "net/wire.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace finelb::net {
namespace {

/// The bytes a SpanWriter wrote into `buf`, once every write fitted.
std::span<const std::uint8_t> written(const SpanWriter& w,
                                      std::span<const std::uint8_t> buf) {
  EXPECT_TRUE(w.ok());
  return buf.first(w.size());
}

TEST(WireTest, ScalarRoundTrip) {
  std::array<std::uint8_t, 64> buf{};
  SpanWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-9'000'000'000ll);

  TryReader r(written(w, buf));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -9'000'000'000ll);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(WireTest, LittleEndianLayout) {
  std::array<std::uint8_t, 8> buf{};
  SpanWriter w(buf);
  w.u32(0x01020304);
  const auto bytes = written(w, buf);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(WireTest, StringRoundTrip) {
  std::array<std::uint8_t, 64> buf{};
  SpanWriter w(buf);
  w.str("image-store");
  w.str("");  // empty string is valid
  TryReader r(written(w, buf));
  std::string first = "stale";
  std::string second = "stale";
  r.str(first);
  r.str(second);
  EXPECT_EQ(first, "image-store");
  EXPECT_EQ(second, "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(WireTest, TruncatedFieldRejected) {
  std::array<std::uint8_t, 4> buf{};
  SpanWriter w(buf);
  w.u32(7);
  TryReader r(written(w, buf).first(3));
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  // The failure latches: a later field that would fit is not read either.
  TryReader latched(written(w, buf).first(3));
  latched.u32();
  EXPECT_EQ(latched.u8(), 0u);
  EXPECT_FALSE(latched.ok());
}

TEST(WireTest, TruncatedStringRejected) {
  std::array<std::uint8_t, 16> buf{};
  SpanWriter w(buf);
  w.str("hello");
  // The length says 5 but only 2 bytes follow.
  TryReader r(written(w, buf).first(4));
  std::string out = "stale";
  r.str(out);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(out.empty());
}

TEST(WireTest, RemainingTracksConsumption) {
  std::array<std::uint8_t, 4> buf{};
  SpanWriter w(buf);
  w.u16(1);
  w.u16(2);
  TryReader r(written(w, buf));
  EXPECT_EQ(r.remaining(), 4u);
  r.u16();
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.done());
  r.u16();
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.ok());
}

TEST(WireTest, EmptyReaderRejectsRead) {
  TryReader r({});
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, BlobRoundTrip) {
  std::array<std::uint8_t, 64> buf{};
  SpanWriter w(buf);
  const std::vector<std::uint8_t> payload = {0, 255, 7, 0, 42};
  w.blob(payload);
  w.blob({});  // empty blob is valid
  TryReader r(written(w, buf));
  std::vector<std::uint8_t> first;
  std::vector<std::uint8_t> second = {9};
  r.blob(first);
  r.blob(second);
  EXPECT_EQ(first, payload);
  EXPECT_TRUE(second.empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(WireTest, TruncatedBlobRejected) {
  std::array<std::uint8_t, 16> buf{};
  SpanWriter w(buf);
  w.blob(std::vector<std::uint8_t>{1, 2, 3, 4});
  const auto bytes = written(w, buf);
  // Cut inside the payload: length prefix says 4 but only 2 bytes follow.
  TryReader r(bytes.first(6));
  std::vector<std::uint8_t> out = {9};
  r.blob(out);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(out.empty());
  // Cut inside the length prefix itself.
  TryReader r2(bytes.first(2));
  r2.blob(out);
  EXPECT_FALSE(r2.ok());
}

TEST(WireTest, LargeBlobPreserved) {
  std::vector<std::uint8_t> big(60 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  std::vector<std::uint8_t> buf(4 + big.size());
  SpanWriter w(buf);
  w.blob(big);
  TryReader r(written(w, buf));
  std::vector<std::uint8_t> out;
  r.blob(out);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(out, big);
}

}  // namespace
}  // namespace finelb::net
