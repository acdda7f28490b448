// Checked binary serialization used by the wire protocols.
//
// All multi-byte integers are little-endian on the wire (matching the MSP430
// and ARM targets the paper implements on). The reader never reads past the
// end of its input: every accessor reports failure through ok() so protocol
// parsers can reject truncated or malformed packets, which an adversarial
// network (or tampering malware) may produce.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"

namespace erasmus {

/// `v` as the 8 little-endian bytes ByteWriter::u64 appends, for callers
/// that lay out a record without a heap buffer.
inline std::array<uint8_t, 8> le64(uint64_t v) {
  std::array<uint8_t, 8> out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return out;
}

/// Appends fixed-width little-endian integers and raw buffers to a Bytes.
class ByteWriter {
 public:
  /// Sizes the buffer for `n` bytes in all, so a writer that knows its
  /// message's length allocates once.
  void reserve(size_t n) { out_.reserve(n); }
  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(ByteView data) { append(out_, data); }
  /// u32 length prefix followed by the bytes.
  void var_bytes(ByteView data);

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Bounds-checked reader over a byte view. After any failed read, ok() is
/// false and every subsequent read returns zero/empty.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  /// Reads exactly n raw bytes.
  Bytes raw(size_t n);
  /// Reads exactly n raw bytes as a view into the input (empty on failure).
  ByteView view(size_t n);
  /// Reads a u32 length prefix then that many bytes.
  Bytes var_bytes();

  /// True while no read has run past the end of the buffer.
  bool ok() const { return ok_; }
  /// Number of unread bytes.
  size_t remaining() const { return data_.size() - pos_; }
  /// True when ok() and the whole input has been consumed.
  bool done() const { return ok_ && remaining() == 0; }

 private:
  bool ensure(size_t n);

  ByteView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace erasmus
