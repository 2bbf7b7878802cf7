// Field-list codec: every wire message describes its layout once and gets
// its size, encoder and decoder derived from that description.
//
// A message type declares
//   * `static constexpr kType` — its one-byte type tag (a MsgType, or a raw
//     byte for protocols with their own tag space such as the Neptune RPCs);
//   * `template <class Self, class V> static void fields(Self& m, V& v)`,
//     which calls `v(m.a, m.b, ...)` with its fields in wire order;
//   * optionally `bool valid() const`, a semantic check that encode_into
//     and try_decode both enforce (e.g. an enum's range);
// and derives from `Message<Type>`, which supplies encoded_size(),
// encode_into(), try_decode() and encode().
//
// Field encodings, all little-endian:
//   * integers, bools and enums — fixed width (their sizeof);
//   * std::string — u16 length prefix plus bytes (max 65535);
//   * std::vector<std::uint8_t> — u32 length prefix plus bytes (a blob);
//   * std::vector<Record> — u32 count plus each record's own fields();
//     decoding rejects a count the remaining bytes cannot hold before it
//     reserves any storage, so a corrupted count never forces a large
//     allocation;
//   * inline_array(items, count) — the first `count` items of a fixed
//     array, where `count` is a field written earlier; a count past the
//     array's extent fails both encode and decode.
//
// Nothing here throws. Only encode() and decoding into a string, blob or
// record vector allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "net/wire.h"

namespace finelb::net {

/// The first `count` entries of `items` (see inline_array()).
template <class T, std::size_t N, class Count>
struct InlineArray {
  T (&items)[N];
  Count& count;
};

template <class T, std::size_t N, class Count>
InlineArray<T, N, Count> inline_array(T (&items)[N], Count& count) {
  return {items, count};
}

namespace codec {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsInlineArray = false;
template <class T, std::size_t N, class Count>
inline constexpr bool kIsInlineArray<InlineArray<T, N, Count>> = true;

template <class T>
std::size_t size_of(const T& field);
template <class T>
void put(SpanWriter& w, const T& field);
template <class T>
void get(TryReader& r, T& field);

struct Sizer {
  std::size_t n = 0;
  template <class... F>
  void operator()(const F&... fields) {
    ((n += size_of(fields)), ...);
  }
};

struct Putter {
  SpanWriter& w;
  template <class... F>
  void operator()(const F&... fields) {
    (put(w, fields), ...);
  }
};

struct Getter {
  TryReader& r;
  template <class... F>
  void operator()(F&&... fields) {
    (get(r, fields), ...);
  }
};

template <class T>
std::size_t size_of(const T& field) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return 2 + field.size();
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    return 4 + field.size();
  } else if constexpr (kIsVector<T>) {
    std::size_t n = 4;
    for (const auto& record : field) n += size_of(record);
    return n;
  } else if constexpr (kIsInlineArray<T>) {
    std::size_t n = 0;
    const std::size_t count = field.count;
    for (std::size_t i = 0; i < count && i < std::size(field.items); ++i) {
      n += size_of(field.items[i]);
    }
    return n;
  } else {
    Sizer sizer;
    T::fields(field, sizer);
    return sizer.n;
  }
}

template <class T>
void put(SpanWriter& w, const T& field) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    if constexpr (sizeof(T) == 1) {
      w.u8(static_cast<std::uint8_t>(field));
    } else if constexpr (sizeof(T) == 2) {
      w.u16(static_cast<std::uint16_t>(field));
    } else if constexpr (sizeof(T) == 4) {
      w.u32(static_cast<std::uint32_t>(field));
    } else {
      static_assert(sizeof(T) == 8);
      w.u64(static_cast<std::uint64_t>(field));
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(field);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    w.blob(field);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(field.size()));
    for (const auto& record : field) put(w, record);
  } else if constexpr (kIsInlineArray<T>) {
    if (field.count > std::size(field.items)) {
      w.fail();
      return;
    }
    for (std::size_t i = 0; i < field.count; ++i) put(w, field.items[i]);
  } else {
    Putter putter{w};
    T::fields(field, putter);
  }
}

template <class T>
void get(TryReader& r, T& field) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    if constexpr (sizeof(T) == 1) {
      field = static_cast<T>(r.u8());
    } else if constexpr (sizeof(T) == 2) {
      field = static_cast<T>(r.u16());
    } else if constexpr (sizeof(T) == 4) {
      field = static_cast<T>(r.u32());
    } else {
      static_assert(sizeof(T) == 8);
      field = static_cast<T>(r.u64());
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    r.str(field);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    r.blob(field);
  } else if constexpr (kIsVector<T>) {
    const std::uint32_t count = r.u32();
    // A default-constructed record is the smallest one on the wire.
    const std::size_t min_bytes = size_of(typename T::value_type{});
    if (!r.ok() || count > r.remaining() / min_bytes) {
      r.fail();
      return;
    }
    field.resize(count);
    for (auto& record : field) {
      get(r, record);
      if (!r.ok()) return;
    }
  } else if constexpr (kIsInlineArray<T>) {
    if (field.count > std::size(field.items)) {
      r.fail();
      return;
    }
    for (std::size_t i = 0; i < field.count; ++i) get(r, field.items[i]);
  } else {
    Getter getter{r};
    T::fields(field, getter);
  }
}

template <class Msg>
bool valid(const Msg& m) {
  if constexpr (requires { m.valid(); }) {
    return m.valid();
  } else {
    return true;
  }
}

}  // namespace codec

/// The codec surface of a wire message, derived from Msg::fields().
template <class Msg>
struct Message {
  /// Exact encoded length: the type tag plus every field.
  std::size_t encoded_size() const { return 1 + codec::size_of(self()); }

  /// Serializes into `out`; returns bytes written, 0 if `out` is too small
  /// or the message cannot be encoded (nothing usable is written in that
  /// case). Never allocates.
  std::size_t encode_into(std::span<std::uint8_t> out) const {
    if (!codec::valid(self())) return 0;
    SpanWriter w(out);
    w.u8(static_cast<std::uint8_t>(Msg::kType));
    codec::put(w, self());
    return w.ok() ? w.size() : 0;
  }

  /// Parses `data`; returns false on a wrong tag, truncated or otherwise
  /// malformed input, leaving `out` unspecified. Strings, blobs and record
  /// vectors are assigned into `out`'s storage, reusing its capacity; the
  /// fixed-size message types never allocate.
  static bool try_decode(std::span<const std::uint8_t> data, Msg& out) {
    TryReader r(data);
    if (r.u8() != static_cast<std::uint8_t>(Msg::kType) || !r.ok()) {
      return false;
    }
    codec::get(r, out);
    return r.ok() && codec::valid(out);
  }

  /// Convenience for cold paths: the encoding in a fresh vector, empty when
  /// the message cannot be encoded.
  std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> out(encoded_size());
    out.resize(encode_into(out));
    return out;
  }

 private:
  const Msg& self() const { return static_cast<const Msg&>(*this); }
};

}  // namespace finelb::net
