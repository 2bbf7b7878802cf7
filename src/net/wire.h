// Little-endian wire encoding helpers.
//
// All wire fields are explicit little-endian fixed-width integers or
// length-prefixed byte strings. SpanWriter/TryReader are the one codec
// pair: neither throws, and every message codec (net/codec.h) is built on
// them, application payloads inside RPC blobs included. TryReader cannot
// read out of bounds on a short or corrupted datagram.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace finelb::net {

/// Bounds-checked writer over a caller-supplied buffer. Never allocates and
/// never throws: running out of space latches ok() to false and discards
/// further writes, so callers check ok() once at the end instead of
/// guarding every field. Every message's encode_into() (net/codec.h) uses
/// it to serialize straight into DatagramBatch arenas and stack buffers.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) {
    if (pos_ + 1 > out_.size()) {
      ok_ = false;
      return;
    }
    out_[pos_++] = v;
  }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u16) byte string, at most 64 KiB.
  void str(std::string_view s) {
    if (s.size() > 0xffff) {
      ok_ = false;
      return;
    }
    u16(static_cast<std::uint16_t>(s.size()));
    append_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Length-prefixed (u32) binary blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    append_bytes(data.data(), data.size());
  }

  /// Marks the encoding failed (a field that cannot be represented).
  void fail() { ok_ = false; }
  /// False once any write overflowed the buffer (or a string was oversized).
  bool ok() const { return ok_; }
  /// Bytes written so far (only meaningful while ok()).
  std::size_t size() const { return pos_; }

 private:
  template <class T>
  void append_le(T v) {
    if (pos_ + sizeof(T) > out_.size()) {
      ok_ = false;
      return;
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_[pos_++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  void append_bytes(const std::uint8_t* data, std::size_t n) {
    if (!ok_ || pos_ + n > out_.size()) {
      ok_ = false;
      return;
    }
    // An empty string or blob may have a null data(); memcpy from null is
    // undefined even for zero bytes.
    if (n == 0) return;
    std::memcpy(out_.data() + pos_, data, n);
    pos_ += n;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Non-throwing reader behind every message's try_decode() (net/codec.h).
/// A truncated field latches ok() to false and yields zero values; callers
/// check ok() once after reading every field. String/blob reads assign into
/// caller-owned storage so repeated decodes reuse capacity.
class TryReader {
 public:
  explicit TryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  void str(std::string& out) {
    const std::size_t len = u16();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      out.clear();
      return;
    }
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
  }

  void blob(std::vector<std::uint8_t>& out) {
    const std::size_t len = u32();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      out.clear();
      return;
    }
    out.assign(data_.begin() + static_cast<long>(pos_),
               data_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
  }

  /// Marks the input malformed (a field value the message cannot hold).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <class T>
  T read_le() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return 0;
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace finelb::net
