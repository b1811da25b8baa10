#include "crypto/sha1.h"

#include <cstring>

namespace tpnr::crypto {

namespace {

inline std::uint32_t rotl(std::uint32_t x, std::uint32_t n) noexcept {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void Sha1::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffered_ = 0;
  total_bytes_ = 0;
  buffer_.fill(0);
}

void Sha1::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f;
    std::uint32_t k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdcu;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6u;
    }
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(BytesView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  // An empty view may carry a null pointer, which memcpy must not see.
  if (buffered_ > 0 && !data.empty()) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Bytes Sha1::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(BytesView(&pad_byte, 1));
  static constexpr std::uint8_t kZero[64] = {};
  while (buffered_ != 56) {
    const std::size_t gap = buffered_ < 56 ? 56 - buffered_ : 64 - buffered_;
    update(BytesView(kZero, gap));
  }
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  update(BytesView(len_be, 8));

  Bytes out(20);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[static_cast<std::size_t>(4 * i + j)] = static_cast<std::uint8_t>(
          state_[static_cast<std::size_t>(i)] >> (8 * (3 - j)));
    }
  }
  reset();
  return out;
}

}  // namespace tpnr::crypto
