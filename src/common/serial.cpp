#include "common/serial.h"

namespace tpnr::common {

namespace {
constexpr std::size_t kMaxLength = 1u << 30;  // 1 GiB sanity bound
}

void BinaryWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void BinaryWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void BinaryWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void BinaryWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void BinaryWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void BinaryWriter::bytes(BytesView v) {
  if (v.size() > kMaxLength) throw SerialError("BinaryWriter: buffer too large");
  u32(static_cast<std::uint32_t>(v.size()));
  append(buf_, v);
}

void BinaryWriter::str(std::string_view v) {
  if (v.size() > kMaxLength) throw SerialError("BinaryWriter: string too large");
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void BinaryWriter::boolean(bool v) { u8(v ? 1 : 0); }

void BinaryReader::need(std::size_t n) const {
  if (remaining() < n) throw SerialError("BinaryReader: truncated input");
}

std::uint32_t BinaryReader::count(std::size_t min_element_size) {
  const std::uint32_t n = u32();
  if (min_element_size != 0 && remaining() / min_element_size < n) {
    throw SerialError("BinaryReader: element count exceeds input");
  }
  return n;
}

std::uint8_t BinaryReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t BinaryReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1] << 8);
  pos_ += 2;
  return v;
}

std::uint32_t BinaryReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t BinaryReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t BinaryReader::i64() { return static_cast<std::int64_t>(u64()); }

Bytes BinaryReader::bytes() {
  const std::uint32_t len = u32();
  if (len > kMaxLength) throw SerialError("BinaryReader: overlong length");
  need(len);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

std::string BinaryReader::str() {
  const std::uint32_t len = u32();
  if (len > kMaxLength) throw SerialError("BinaryReader: overlong length");
  need(len);
  std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

bool BinaryReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw SerialError("BinaryReader: non-canonical bool");
  return v == 1;
}

void BinaryReader::expect_done() const {
  if (!done()) throw SerialError("BinaryReader: trailing bytes");
}

}  // namespace tpnr::common
