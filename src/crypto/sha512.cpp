#include "crypto/sha512.h"

#include <cstring>

namespace tpnr::crypto {

namespace {

constexpr std::array<std::uint64_t, 80> kK = {
    0x428a2f98d728ae22ull, 0x7137449123ef65cdull, 0xb5c0fbcfec4d3b2full,
    0xe9b5dba58189dbbcull, 0x3956c25bf348b538ull, 0x59f111f1b605d019ull,
    0x923f82a4af194f9bull, 0xab1c5ed5da6d8118ull, 0xd807aa98a3030242ull,
    0x12835b0145706fbeull, 0x243185be4ee4b28cull, 0x550c7dc3d5ffb4e2ull,
    0x72be5d74f27b896full, 0x80deb1fe3b1696b1ull, 0x9bdc06a725c71235ull,
    0xc19bf174cf692694ull, 0xe49b69c19ef14ad2ull, 0xefbe4786384f25e3ull,
    0x0fc19dc68b8cd5b5ull, 0x240ca1cc77ac9c65ull, 0x2de92c6f592b0275ull,
    0x4a7484aa6ea6e483ull, 0x5cb0a9dcbd41fbd4ull, 0x76f988da831153b5ull,
    0x983e5152ee66dfabull, 0xa831c66d2db43210ull, 0xb00327c898fb213full,
    0xbf597fc7beef0ee4ull, 0xc6e00bf33da88fc2ull, 0xd5a79147930aa725ull,
    0x06ca6351e003826full, 0x142929670a0e6e70ull, 0x27b70a8546d22ffcull,
    0x2e1b21385c26c926ull, 0x4d2c6dfc5ac42aedull, 0x53380d139d95b3dfull,
    0x650a73548baf63deull, 0x766a0abb3c77b2a8ull, 0x81c2c92e47edaee6ull,
    0x92722c851482353bull, 0xa2bfe8a14cf10364ull, 0xa81a664bbc423001ull,
    0xc24b8b70d0f89791ull, 0xc76c51a30654be30ull, 0xd192e819d6ef5218ull,
    0xd69906245565a910ull, 0xf40e35855771202aull, 0x106aa07032bbd1b8ull,
    0x19a4c116b8d2d0c8ull, 0x1e376c085141ab53ull, 0x2748774cdf8eeb99ull,
    0x34b0bcb5e19b48a8ull, 0x391c0cb3c5c95a63ull, 0x4ed8aa4ae3418acbull,
    0x5b9cca4f7763e373ull, 0x682e6ff3d6b2b8a3ull, 0x748f82ee5defb2fcull,
    0x78a5636f43172f60ull, 0x84c87814a1f0ab72ull, 0x8cc702081a6439ecull,
    0x90befffa23631e28ull, 0xa4506cebde82bde9ull, 0xbef9a3f7b2c67915ull,
    0xc67178f2e372532bull, 0xca273eceea26619cull, 0xd186b8c721c0c207ull,
    0xeada7dd6cde0eb1eull, 0xf57d4f7fee6ed178ull, 0x06f067aa72176fbaull,
    0x0a637dc5a2c898a6ull, 0x113f9804bef90daeull, 0x1b710b35131c471bull,
    0x28db77f523047d84ull, 0x32caab7b40c72493ull, 0x3c9ebe0a15c9bebcull,
    0x431d67c49c100d4cull, 0x4cc5d4becb3e42b6ull, 0x597f299cfc657e2aull,
    0x5fcb6fab3ad6faecull, 0x6c44198c4a475817ull};

inline std::uint64_t rotr(std::uint64_t x, std::uint64_t n) noexcept {
  return (x >> n) | (x << (64 - n));
}

inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void Sha512Core::reset() {
  state_ = iv();
  buffered_ = 0;
  total_lo_ = 0;
  total_hi_ = 0;
  buffer_.fill(0);
}

void Sha512Core::process_block(const std::uint8_t* block) noexcept {
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be64(block + 8 * i);
  for (int i = 16; i < 80; ++i) {
    const std::uint64_t s0 =
        rotr(w[i - 15], 1) ^ rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    const std::uint64_t s1 =
        rotr(w[i - 2], 19) ^ rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint64_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t s1 = rotr(e, 14) ^ rotr(e, 18) ^ rotr(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 =
        h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
    const std::uint64_t s0 = rotr(a, 28) ^ rotr(a, 34) ^ rotr(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha512Core::update(BytesView data) {
  const std::uint64_t prev = total_lo_;
  total_lo_ += data.size();
  if (total_lo_ < prev) ++total_hi_;
  std::size_t offset = 0;
  // An empty view may carry a null pointer, which memcpy must not see.
  if (buffered_ > 0 && !data.empty()) {
    const std::size_t take = std::min(data.size(), 128 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == 128) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 128 <= data.size()) {
    process_block(data.data() + offset);
    offset += 128;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Bytes Sha512Core::finish() {
  const std::uint64_t bits_lo = total_lo_ << 3;
  const std::uint64_t bits_hi = (total_hi_ << 3) | (total_lo_ >> 61);
  const std::uint8_t pad_byte = 0x80;
  update(BytesView(&pad_byte, 1));
  static constexpr std::uint8_t kZero[128] = {};
  while (buffered_ != 112) {
    const std::size_t gap = buffered_ < 112 ? 112 - buffered_ : 128 - buffered_;
    update(BytesView(kZero, gap));
  }
  std::uint8_t len_be[16];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bits_hi >> (8 * (7 - i)));
    len_be[8 + i] = static_cast<std::uint8_t>(bits_lo >> (8 * (7 - i)));
  }
  update(BytesView(len_be, 16));

  Bytes out(digest_size());
  for (std::size_t i = 0; i < digest_size() / 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<std::uint8_t>(state_[i] >> (8 * (7 - j)));
    }
  }
  reset();
  return out;
}

}  // namespace tpnr::crypto
