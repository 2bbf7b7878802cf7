// Deterministic mutational fuzzing of every wire codec (g++ ships no
// libFuzzer, so the mutator is a small seeded loop). Starting from each
// golden encoding it applies bit flips, byte overwrites, truncation,
// extension with junk and inflated length/count prefixes, then checks that
//   * try_decode never reads out of bounds — every input lives in an
//     exactly sized heap buffer, so the ASan stage catches any overread;
//   * try_decode never reserves storage the input cannot back;
//   * any input it accepts re-encodes to bytes that decode to an equal
//     value (compared through a second re-encoding).
// The iteration count is fixed, so a run costs well under a second even
// under the sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "golden_messages.h"

namespace finelb::golden {
namespace {

constexpr int kMutationsPerMessage = 10000;

/// Records the byte offset and width of every length or count prefix in a
/// message, by walking its field list alongside the encoded size.
struct PrefixFinder {
  std::size_t pos = 1;  // past the type tag
  std::vector<std::pair<std::size_t, std::size_t>> prefixes;

  template <class... F>
  void operator()(const F&... fields) {
    (visit(fields), ...);
  }

  template <class T>
  void visit(const T& field) {
    if constexpr (std::is_same_v<T, std::string>) {
      prefixes.emplace_back(pos, 2);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      prefixes.emplace_back(pos, 4);
    } else if constexpr (net::codec::kIsVector<T>) {
      prefixes.emplace_back(pos, 4);
      pos += 4;
      for (const auto& record : field) visit(record);
      return;
    } else if constexpr (requires { T::fields(field, *this); }) {
      T::fields(field, *this);
      return;
    }
    pos += net::codec::size_of(field);
  }
};

/// Checks that no container in a decoded message holds more storage than
/// the input could back.
struct CapacityCheck {
  std::size_t input_size = 0;

  template <class... F>
  void operator()(const F&... fields) {
    (visit(fields), ...);
  }

  template <class T>
  void visit(const T& field) {
    if constexpr (std::is_same_v<T, std::string>) {
      // A fresh std::string grows to at least 30 bytes once past SSO.
      EXPECT_LE(field.capacity(), input_size + 32);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      EXPECT_LE(field.capacity(), input_size);
    } else if constexpr (net::codec::kIsVector<T>) {
      const std::size_t min_bytes =
          net::codec::size_of(typename T::value_type{});
      EXPECT_LE(field.capacity() * min_bytes, input_size);
      for (const auto& record : field) visit(record);
    } else if constexpr (requires { T::fields(field, *this); }) {
      T::fields(field, *this);
    }
  }
};

void write_le(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::size_t width, std::uint64_t value) {
  for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::vector<std::uint8_t> mutate(
    const std::vector<std::uint8_t>& seed,
    const std::vector<std::pair<std::size_t, std::size_t>>& prefixes,
    Rng& rng) {
  std::vector<std::uint8_t> bytes = seed;
  const int ops = 1 + static_cast<int>(rng.uniform_int(3));
  for (int op = 0; op < ops; ++op) {
    switch (rng.uniform_int(5)) {
      case 0:  // flip one bit
        if (!bytes.empty()) {
          const std::size_t bit = rng.uniform_int(bytes.size() * 8);
          bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      case 1:  // overwrite one byte
        if (!bytes.empty()) {
          bytes[rng.uniform_int(bytes.size())] =
              static_cast<std::uint8_t>(rng());
        }
        break;
      case 2:  // truncate
        bytes.resize(rng.uniform_int(bytes.size() + 1));
        break;
      case 3: {  // extend with junk
        const std::size_t extra = 1 + rng.uniform_int(64);
        for (std::size_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      case 4: {  // inflate a length or count prefix
        if (prefixes.empty()) break;
        const auto [at, width] = prefixes[rng.uniform_int(prefixes.size())];
        const std::uint64_t max = width == 2 ? 0xffffull : 0xffffffffull;
        const std::uint64_t candidates[] = {max, bytes.size(),
                                            bytes.size() + 1,
                                            rng() & max};
        write_le(bytes, at, width, candidates[rng.uniform_int(4)]);
        break;
      }
    }
  }
  // Mostly keep the type tag so mutations reach the field decoders.
  if (!bytes.empty() && rng.uniform_int(8) != 0) bytes[0] = seed[0];
  return bytes;
}

template <class Msg>
void fuzz(const char* name, const Msg& golden, std::string_view hex,
          std::uint64_t seed) {
  SCOPED_TRACE(name);
  const std::vector<std::uint8_t> wire = from_hex(hex);
  PrefixFinder finder;
  Msg::fields(golden, finder);
  ASSERT_EQ(finder.pos, wire.size()) << "field walk disagrees with encoding";

  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kMutationsPerMessage; ++i) {
    const std::vector<std::uint8_t> mutated =
        mutate(wire, finder.prefixes, rng);
    // Exactly sized heap copy: one byte past the end is an ASan report.
    const std::vector<std::uint8_t> input(mutated.begin(), mutated.end());
    Msg out;
    const bool ok = Msg::try_decode(input, out);
    CapacityCheck check{input.size()};
    Msg::fields(out, check);
    if (!ok) continue;
    ++accepted;
    const std::vector<std::uint8_t> reencoded = out.encode();
    ASSERT_FALSE(reencoded.empty()) << "accepted value cannot be encoded";
    ASSERT_EQ(reencoded.size(), out.encoded_size());
    Msg again;
    ASSERT_TRUE(Msg::try_decode(reencoded, again)) << "mutation " << i;
    ASSERT_EQ(to_hex(again.encode()), to_hex(reencoded)) << "mutation " << i;
  }
  // The mutator must exercise both outcomes, or it tests nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutationsPerMessage);
}

TEST(CodecFuzzTest, MutatedGoldenEncodingsNeverMisdecode) {
  std::uint64_t seed = 0x5eed;
  for_each_golden([&](const char* name, const auto& msg, std::string_view hex) {
    fuzz(name, msg, hex, seed++);
  });
}

TEST(CodecFuzzTest, PrefixWalkFindsEveryVariableLengthField) {
  // Spot-check the field walk the mutator relies on: a SnapshotReply with
  // two entries has its entry count plus one string length per entry.
  const net::SnapshotReply reply = snapshot_reply();
  PrefixFinder finder;
  net::SnapshotReply::fields(reply, finder);
  ASSERT_EQ(finder.prefixes.size(), 3u);
  using Prefix = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(finder.prefixes[0], Prefix(9, 4));   // entry count
  EXPECT_EQ(finder.prefixes[1], Prefix(13, 2));  // first service length
}

}  // namespace
}  // namespace finelb::golden
