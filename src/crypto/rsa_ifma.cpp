#include "crypto/rsa_ifma.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/error.h"
#include "crypto/counters.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define TPNR_HAVE_IFMA 1
#include <immintrin.h>
#else
#define TPNR_HAVE_IFMA 0
#endif

namespace tpnr::crypto {

using common::CryptoError;

namespace {

constexpr std::size_t kLimbs = 10;  // 520 bits
constexpr std::size_t kLanes = 16;
constexpr std::size_t kLimbBits = 52;
constexpr std::size_t kMaxModulusBits = kLimbs * kLimbBits - 2;
constexpr std::size_t kExpWords = 9;  // 576 >= 520 bits
constexpr std::uint64_t kMask52 = (std::uint64_t{1} << kLimbBits) - 1;
constexpr unsigned kWindowBits = 5;
constexpr std::size_t kTableSize = std::size_t{1} << kWindowBits;

/// x -> `count` little-endian words of `width` bits (52 or 64). Requires
/// 0 <= x < 2^(width·count).
void pack(const BigInt& x, std::size_t width, std::uint64_t* out,
          std::size_t count) {
  const std::uint64_t mask = width == 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << width) - 1;
  const Bytes be = x.to_bytes();
  std::fill(out, out + count, std::uint64_t{0});
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::uint64_t byte = be[be.size() - 1 - i];
    const std::size_t bit = 8 * i;
    const std::size_t off = bit % width;
    out[bit / width] |= (byte << off) & mask;
    if (off + 8 > width) out[bit / width + 1] |= byte >> (width - off);
  }
}

#if TPNR_HAVE_IFMA

BigInt from_limbs52(const std::uint64_t* x) {
  constexpr std::size_t kBytes = kLimbs * kLimbBits / 8;
  Bytes be(kBytes, 0);
  for (std::size_t i = 0; i < kBytes; ++i) {
    const std::size_t bit = 8 * i;
    const std::size_t off = bit % kLimbBits;
    std::uint64_t byte = x[bit / kLimbBits] >> off;
    if (off > kLimbBits - 8) {
      byte |= x[bit / kLimbBits + 1] << (kLimbBits - off);
    }
    be[kBytes - 1 - i] = static_cast<std::uint8_t>(byte);
  }
  return BigInt::from_bytes(be);
}

#define TPNR_IFMA_FN __attribute__((target("avx512f,avx512ifma")))
#define TPNR_IFMA_INLINE \
  __attribute__((target("avx512f,avx512ifma"), always_inline)) inline

// The shifts, lane rotations and permutes below use the zero-masking forms
// with every lane selected: GCC 12's unmasked forms pass an uninitialised
// vector through and raise -Wuninitialized. The code generated is the same.
constexpr __mmask8 kAllLanes = 0xff;

/// One half's modulus in registers: limbs 0-7, limbs 8-15, and k0 in every
/// lane.
struct ZmmModulus {
  __m512i lo;
  __m512i hi;
  __m512i k0;
};

/// One row of the operand-scanning loop for one half: x += a_i·b, then
/// x += m·n with m chosen to zero limb 0, then x /= 2^52. The low 52 bits
/// of each product go in before the shift and the high 52 bits after it,
/// which lands them one limb up. Lanes stay unnormalized (below 2^58).
/// Only the m chain (limb 0 -> m -> m·n -> shift) is serial from row to
/// row; the a_i·b products and m·n's high halves are summed beside it.
TPNR_IFMA_INLINE void amm_row(__m512i& x_lo, __m512i& x_hi, std::uint64_t ai,
                              __m512i b_lo, __m512i b_hi,
                              const ZmmModulus& n) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i a = _mm512_set1_epi64(static_cast<long long>(ai));
  x_lo = _mm512_add_epi64(x_lo, _mm512_madd52lo_epu64(zero, a, b_lo));
  x_hi = _mm512_add_epi64(x_hi, _mm512_madd52lo_epu64(zero, a, b_hi));
  const __m512i high_lo = _mm512_madd52hi_epu64(zero, a, b_lo);
  const __m512i high_hi = _mm512_madd52hi_epu64(zero, a, b_hi);
  const __m512i m = _mm512_madd52lo_epu64(
      zero, _mm512_maskz_permutexvar_epi64(kAllLanes, zero, x_lo), n.k0);
  x_lo = _mm512_madd52lo_epu64(x_lo, m, n.lo);
  x_hi = _mm512_madd52lo_epu64(x_hi, m, n.hi);
  const __m512i carry = _mm512_maskz_srli_epi64(kAllLanes, x_lo, kLimbBits);
  x_lo = _mm512_maskz_alignr_epi64(kAllLanes, x_hi, x_lo, 1);
  x_hi = _mm512_maskz_alignr_epi64(kAllLanes, zero, x_hi, 1);
  x_lo = _mm512_mask_add_epi64(x_lo, 1, x_lo, carry);
  x_lo = _mm512_add_epi64(x_lo, _mm512_madd52hi_epu64(high_lo, m, n.lo));
  x_hi = _mm512_add_epi64(x_hi, _mm512_madd52hi_epu64(high_hi, m, n.hi));
}

/// Brings every lane below 2^52 and stores the 16 limbs. Lanes arrive below
/// 2^58, so one shift-and-add leaves each at most 2^52 + 63, and the
/// remaining one-bit carries ripple through runs of all-ones limbs in one
/// mask addition (carry lookahead over the 16 lanes).
TPNR_IFMA_INLINE void normalize_store(std::uint64_t* r, __m512i lo,
                                      __m512i hi) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  const __m512i c_lo = _mm512_maskz_srli_epi64(kAllLanes, lo, kLimbBits);
  const __m512i c_hi = _mm512_maskz_srli_epi64(kAllLanes, hi, kLimbBits);
  lo = _mm512_add_epi64(_mm512_and_si512(lo, mask),
                        _mm512_maskz_alignr_epi64(kAllLanes, c_lo, zero, 7));
  hi = _mm512_add_epi64(_mm512_and_si512(hi, mask),
                        _mm512_maskz_alignr_epi64(kAllLanes, c_hi, c_lo, 7));
  const unsigned gen =
      static_cast<unsigned>(_mm512_cmpgt_epu64_mask(lo, mask)) |
      (static_cast<unsigned>(_mm512_cmpgt_epu64_mask(hi, mask)) << 8);
  const unsigned prop =
      static_cast<unsigned>(_mm512_cmpeq_epu64_mask(lo, mask)) |
      (static_cast<unsigned>(_mm512_cmpeq_epu64_mask(hi, mask)) << 8);
  const unsigned carry_in = ((gen << 1) + prop) ^ prop;
  const __m512i one = _mm512_set1_epi64(1);
  lo = _mm512_mask_add_epi64(lo, static_cast<__mmask8>(carry_in), lo, one);
  hi = _mm512_mask_add_epi64(hi, static_cast<__mmask8>(carry_in >> 8), hi,
                             one);
  _mm512_storeu_si512(r, _mm512_and_si512(lo, mask));
  _mm512_storeu_si512(r + 8, _mm512_and_si512(hi, mask));
}

/// Dual almost-Montgomery multiply: r_h = a_h·b_h·2^-520 mod n_h, up to one
/// extra n_h, for h = 0, 1. With a_h, b_h < 2n_h and n_h < 2^518 the result
/// is below 2n_h again. Outputs may alias inputs.
TPNR_IFMA_INLINE void amm_x2(std::uint64_t* r0, std::uint64_t* r1,
                             const std::uint64_t* a0, const std::uint64_t* a1,
                             const std::uint64_t* b0, const std::uint64_t* b1,
                             const ZmmModulus& n0, const ZmmModulus& n1) {
  const __m512i b0_lo = _mm512_loadu_si512(b0);
  const __m512i b0_hi = _mm512_loadu_si512(b0 + 8);
  const __m512i b1_lo = _mm512_loadu_si512(b1);
  const __m512i b1_hi = _mm512_loadu_si512(b1 + 8);
  __m512i x0_lo = _mm512_setzero_si512();
  __m512i x0_hi = x0_lo;
  __m512i x1_lo = x0_lo;
  __m512i x1_hi = x0_lo;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    amm_row(x0_lo, x0_hi, a0[i], b0_lo, b0_hi, n0);
    amm_row(x1_lo, x1_hi, a1[i], b1_lo, b1_hi, n1);
  }
  normalize_store(r0, x0_lo, x0_hi);
  normalize_store(r1, x1_lo, x1_hi);
}

TPNR_IFMA_INLINE ZmmModulus load_modulus(const Amm52Modulus& m) {
  return {_mm512_loadu_si512(m.n), _mm512_loadu_si512(m.n + 8),
          _mm512_set1_epi64(static_cast<long long>(m.k0))};
}

unsigned window_at(const std::uint64_t* exp, std::size_t w) {
  const std::size_t bit = w * kWindowBits;
  std::uint64_t v = exp[bit / 64] >> (bit % 64);
  if (bit % 64 > 64 - kWindowBits && bit / 64 + 1 < kExpWords) {
    v |= exp[bit / 64 + 1] << (64 - bit % 64);
  }
  return static_cast<unsigned>(v & (kTableSize - 1));
}

/// out_h = base_h^exp_h mod n_h as a value in [0, n_h] (n_h stands for 0),
/// both halves on one fixed-window schedule of `windows` 5-bit windows.
/// base_h < n_h; exp_h holds kExpWords words. Returns the dual steps taken.
TPNR_IFMA_FN std::uint64_t pow_x2(std::uint64_t* out0, std::uint64_t* out1,
                                  const std::uint64_t* base0,
                                  const std::uint64_t* base1,
                                  const std::uint64_t* exp0,
                                  const std::uint64_t* exp1,
                                  std::size_t windows, const Amm52Modulus& m0,
                                  const Amm52Modulus& m1) {
  const ZmmModulus n0 = load_modulus(m0);
  const ZmmModulus n1 = load_modulus(m1);
  // table[k] = base^k in Montgomery form, per half.
  alignas(64) std::uint64_t table[kTableSize][2][kLanes];
  alignas(64) std::uint64_t acc[2][kLanes];
  std::uint64_t steps = 0;
  std::memcpy(table[0][0], m0.one, sizeof table[0][0]);
  std::memcpy(table[0][1], m1.one, sizeof table[0][1]);
  amm_x2(table[1][0], table[1][1], base0, base1, m0.rr, m1.rr, n0, n1);
  ++steps;
  for (std::size_t k = 2; k < kTableSize; ++k) {
    amm_x2(table[k][0], table[k][1], table[k - 1][0], table[k - 1][1],
           table[1][0], table[1][1], n0, n1);
    ++steps;
  }
  std::memcpy(acc[0], table[window_at(exp0, windows - 1)][0], sizeof acc[0]);
  std::memcpy(acc[1], table[window_at(exp1, windows - 1)][1], sizeof acc[1]);
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (unsigned s = 0; s < kWindowBits; ++s) {
      amm_x2(acc[0], acc[1], acc[0], acc[1], acc[0], acc[1], n0, n1);
    }
    amm_x2(acc[0], acc[1], acc[0], acc[1], table[window_at(exp0, w)][0],
           table[window_at(exp1, w)][1], n0, n1);
    steps += kWindowBits + 1;
  }
  // Out of Montgomery form: a·1·R^-1 with a < 2n lands in [0, n].
  alignas(64) std::uint64_t unit[kLanes] = {1};
  amm_x2(out0, out1, acc[0], acc[1], unit, unit, n0, n1);
  return steps + 1;
}

#endif  // TPNR_HAVE_IFMA

/// The state of one modulus, which must be odd, above 1 and below 2^518.
Amm52Modulus prepare(const BigInt& n) {
  Amm52Modulus m;
  pack(n, kLimbBits, m.n, kLanes);
  // -n^{-1} mod 2^52 by Newton iteration on the low word (see Montgomery).
  std::uint64_t inv = m.n[0];
  for (int i = 0; i < 5; ++i) inv *= std::uint64_t{2} - m.n[0] * inv;
  m.k0 = (std::uint64_t{0} - inv) & kMask52;
  const std::size_t r_bits = kLimbs * kLimbBits;
  pack(BigInt(1).shifted_left(2 * r_bits).mod(n), kLimbBits, m.rr, kLanes);
  pack(BigInt(1).shifted_left(r_bits).mod(n), kLimbBits, m.one, kLanes);
  return m;
}

}  // namespace

bool IfmaDualPow::host_supported() noexcept {
#if TPNR_HAVE_IFMA
  static const bool supported = __builtin_cpu_supports("avx512ifma") != 0;
  return supported;
#else
  return false;
#endif
}

std::optional<IfmaDualPow> IfmaDualPow::make(const BigInt& p,
                                             const BigInt& q) {
  const auto fits = [](const BigInt& n) {
    return !n.is_negative() && n.is_odd() && n.compare(BigInt(1)) > 0 &&
           n.bit_length() <= kMaxModulusBits;
  };
  if (!host_supported() || !fits(p) || !fits(q)) return std::nullopt;
  return IfmaDualPow(p, q);
}

IfmaDualPow::IfmaDualPow(const BigInt& p, const BigInt& q)
    : p_(p), q_(q), mod_{prepare(p), prepare(q)} {}

std::pair<BigInt, BigInt> IfmaDualPow::pow(const BigInt& c, const BigInt& ep,
                                           const BigInt& eq) const {
  const std::size_t exp_bits = std::max(ep.bit_length(), eq.bit_length());
  if (c.is_negative() || ep.is_negative() || eq.is_negative() ||
      exp_bits > kLimbs * kLimbBits) {
    throw CryptoError("IfmaDualPow::pow: operand out of range");
  }
#if TPNR_HAVE_IFMA
  alignas(64) std::uint64_t base[2][kLanes];
  alignas(64) std::uint64_t out[2][kLanes];
  std::uint64_t exp[2][kExpWords];
  pack(c.mod(p_), kLimbBits, base[0], kLanes);
  pack(c.mod(q_), kLimbBits, base[1], kLanes);
  pack(ep, 64, exp[0], kExpWords);
  pack(eq, 64, exp[1], kExpWords);
  const std::size_t windows =
      std::max<std::size_t>(1, (exp_bits + kWindowBits - 1) / kWindowBits);
  const std::uint64_t steps =
      pow_x2(out[0], out[1], base[0], base[1], exp[0], exp[1], windows,
             mod_[0], mod_[1]);
  counters().mont_modmuls.fetch_add(2 * steps, std::memory_order_relaxed);
  BigInt rp = from_limbs52(out[0]);
  BigInt rq = from_limbs52(out[1]);
  if (rp == p_) rp = BigInt(0);
  if (rq == q_) rq = BigInt(0);
  return {std::move(rp), std::move(rq)};
#else
  throw CryptoError("IfmaDualPow::pow: not built for this target");
#endif
}

}  // namespace tpnr::crypto
