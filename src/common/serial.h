// Deterministic little-endian binary serialization. Protocol evidence is
// hashed and signed over these encodings, so they must be canonical: one and
// only one encoding per value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/error.h"

namespace tpnr::common {

/// Append-only canonical encoder.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Length-prefixed (u32) raw bytes.
  void bytes(BytesView v);
  /// Length-prefixed (u32) UTF-8/ASCII string.
  void str(std::string_view v);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked decoder over a non-owning view. Throws SerialError on
/// truncation or overlong lengths.
class BinaryReader {
 public:
  explicit BinaryReader(BytesView data) noexcept : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  Bytes bytes();
  std::string str();
  /// A u32 element count, checked against the unread bytes: each element
  /// takes at least `min_element_size` bytes (4 for bytes()/str(), 8 for
  /// u64()). Throws SerialError if they cannot all be there, so a hostile
  /// count can be reserve()d without allocating more than the input holds.
  std::uint32_t count(std::size_t min_element_size);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  /// Throws SerialError unless every byte was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace tpnr::common
