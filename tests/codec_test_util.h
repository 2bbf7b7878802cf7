// Test helpers over the non-throwing codec surface (Msg::try_decode).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

namespace finelb {

/// Decodes `bytes` as a Msg, failing the current test if it is rejected.
template <class Msg>
Msg must_decode(std::span<const std::uint8_t> bytes) {
  Msg out;
  EXPECT_TRUE(Msg::try_decode(bytes, out)) << "decode rejected its input";
  return out;
}

/// Whether `bytes` decodes as a Msg.
template <class Msg>
bool decodes(std::span<const std::uint8_t> bytes) {
  Msg out;
  return Msg::try_decode(bytes, out);
}

}  // namespace finelb
