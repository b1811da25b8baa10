#include "crypto/sha256.h"

#include <cstring>

#include "common/error.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define TPNR_HAVE_SHANI 1
#include <immintrin.h>
#else
#define TPNR_HAVE_SHANI 0
#endif

namespace tpnr::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

inline std::uint32_t rotr(std::uint32_t x, std::uint32_t n) noexcept {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void compress_block(std::uint32_t* state, const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] +
                             w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if TPNR_HAVE_SHANI

// The rounds run four at a time: sha256rnds2 does two rounds on the state
// held as {a, b, e, f} and {c, d, g, h}, and sha256msg1/sha256msg2 extend
// the message schedule four words at a time. Group g covers rounds 4g to
// 4g+3 with the words in m[g % 4]; it finishes the schedule of m[(g+1) % 4]
// and starts that of m[(g-1) % 4].
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks,
    std::size_t nblocks) noexcept {
  // Message words are big-endian: reverse the bytes of each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto* const io = reinterpret_cast<__m128i*>(state);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(io), 0xb1);       // c d a b
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(io + 1), 0x1b);  // e f g h
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                     // a b e f
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);                          // c d g h

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            bswap);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   kK.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        __m128i& next = m[(g + 1) & 3];
        next = _mm_sha256msg2_epu32(
            _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g - 1) & 3], 4)),
            cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g >= 1 && g < 13) {
        __m128i& prev = m[(g - 1) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1b);                     // f e b a
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);                    // d c h g
  _mm_storeu_si128(io, _mm_blend_epi16(tmp, cdgh, 0xf0));  // d c b a
  _mm_storeu_si128(io + 1, _mm_alignr_epi8(cdgh, tmp, 8));  // h g f e
}

#endif

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*,
                            std::size_t) noexcept;

CompressFn pick_compress() noexcept {
#if TPNR_HAVE_SHANI
  if (sha256_shani_supported()) return &compress_shani;
#endif
  return &sha256_compress_portable;
}

}  // namespace

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t nblocks) noexcept {
  for (std::size_t i = 0; i < nblocks; ++i) {
    compress_block(state, blocks + 64 * i);
  }
}

bool sha256_shani_supported() noexcept {
#if TPNR_HAVE_SHANI
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

void sha256_compress(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept {
  static const CompressFn compress = pick_compress();
  compress(state, blocks, nblocks);
}

Sha256Midstate Sha256Core::midstate() const {
  if (buffered_ != 0) {
    throw common::CryptoError("Sha256: midstate requires a block boundary");
  }
  return {state_, total_bytes_};
}

void Sha256Core::restore(const Sha256Midstate& mid) {
  if (mid.total_bytes % 64 != 0) {
    throw common::CryptoError("Sha256: midstate byte count not block-aligned");
  }
  state_ = mid.state;
  total_bytes_ = mid.total_bytes;
  buffered_ = 0;
}

void Sha256Core::reset() {
  state_ = iv();
  buffered_ = 0;
  total_bytes_ = 0;
  buffer_.fill(0);
}

void Sha256Core::update(BytesView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  // An empty view may carry a null pointer, which memcpy must not see.
  if (buffered_ > 0 && !data.empty()) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      sha256_compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    sha256_compress(state_.data(), data.data() + offset, whole);
    offset += 64 * whole;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Bytes Sha256Core::finish() {
  // Padding: 0x80, zeros up to byte 56 of a block, then the bit length
  // big-endian. It spills into a second block when fewer than 9 bytes of
  // the buffered one are free.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    sha256_compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  sha256_compress(state_.data(), buffer_.data(), 1);

  Bytes out(digest_size());
  for (std::size_t i = 0; i < digest_size() / 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<std::uint8_t>(state_[i] >> (8 * (3 - j)));
    }
  }
  reset();
  return out;
}

}  // namespace tpnr::crypto
