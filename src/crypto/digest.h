// Fixed-width digest and tag values.
//
// Every digest and tag of the three MAC constructions fits in 32 bytes
// (SHA-1: 20, SHA-256 and BLAKE2s: 32), so a measurement record carries its
// H(mem_t) and MAC_K fields inline: copying, decoding and judging a record
// allocates nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "common/bytes.h"

namespace erasmus::crypto {

class Digest {
 public:
  /// The widest digest or tag of the three constructions.
  static constexpr size_t kMaxSize = 32;

  Digest() = default;
  /// Copies `bytes`; throws std::length_error past kMaxSize.
  explicit Digest(ByteView bytes) { assign(bytes); }

  /// Replaces the contents with `bytes`; throws past kMaxSize.
  void assign(ByteView bytes) {
    resize(bytes.size());
    std::copy(bytes.begin(), bytes.end(), bytes_.begin());
  }
  /// Sets the length; bytes past the old length read as whatever was
  /// there. Throws std::length_error past kMaxSize.
  void resize(size_t n) {
    if (n > kMaxSize) throw std::length_error("Digest: longer than 32 bytes");
    size_ = static_cast<uint8_t>(n);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The used bytes. Indexing goes through these spans, so a build with
  /// _GLIBCXX_ASSERTIONS traps an index past size() -- an overrun that
  /// stays inside the object, where ASan cannot see it.
  std::span<uint8_t> bytes() { return {bytes_.data(), size_}; }
  ByteView bytes() const { return {bytes_.data(), size_}; }
  operator ByteView() const { return bytes(); }

  uint8_t& operator[](size_t i) { return bytes()[i]; }
  uint8_t operator[](size_t i) const { return bytes()[i]; }
  /// Where a hash writes its output, after resize().
  uint8_t* data() { return bytes_.data(); }
  /// An owning copy, for the callers that keep byte buffers.
  Bytes to_bytes() const { return Bytes(bytes().begin(), bytes().end()); }

  friend bool operator==(const Digest& a, const Digest& b) {
    return equal(a, b);
  }
  friend bool operator==(const Digest& a, ByteView b) { return equal(a, b); }

 private:
  std::array<uint8_t, kMaxSize> bytes_{};
  uint8_t size_ = 0;
};

}  // namespace erasmus::crypto
