// Arbitrary-precision integers for RSA. Sign-magnitude over 32-bit limbs
// (little-endian limb order), with Karatsuba multiplication, Knuth
// Algorithm-D division, sliding-window modular exponentiation, extended
// Euclid inverse, and Miller-Rabin primality.
//
// Values are normalized: no trailing zero limbs; zero is an empty limb vector
// with positive sign.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "crypto/drbg.h"

namespace tpnr::crypto {

using common::Bytes;
using common::BytesView;

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric literal interop is intended
  BigInt(const BigInt&) = default;
  BigInt(BigInt&&) noexcept = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt& operator=(BigInt&&) noexcept = default;

  /// Big-endian unsigned bytes -> non-negative value.
  static BigInt from_bytes(BytesView data);
  /// Hex string (no 0x prefix, optional leading '-').
  static BigInt from_hex(std::string_view hex);
  /// Decimal string (optional leading '-').
  static BigInt from_decimal(std::string_view dec);
  /// Uniform value in [0, bound) — bound must be positive.
  static BigInt random_below(const BigInt& bound, Drbg& rng);
  /// Uniform value with exactly `bits` bits (msb set).
  static BigInt random_bits(std::size_t bits, Drbg& rng);

  /// Minimal big-endian encoding ("" for zero), or left-zero-padded to
  /// `min_len` when given.
  [[nodiscard]] Bytes to_bytes(std::size_t min_len = 0) const;
  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] std::string to_decimal() const;

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const noexcept { return negative_; }
  [[nodiscard]] bool is_odd() const noexcept {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  /// Number of significant bits; 0 for zero.
  [[nodiscard]] std::size_t bit_length() const noexcept;
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  // Comparisons (total order).
  [[nodiscard]] int compare(const BigInt& other) const noexcept;
  friend bool operator==(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) == 0;
  }
  friend auto operator<=>(const BigInt& a, const BigInt& b) noexcept {
    const int c = a.compare(b);
    return c <=> 0;
  }

  // Arithmetic.
  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncated division (C semantics). Throws CryptoError on division by 0.
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  BigInt operator-() const;

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }

  /// Quotient and remainder in one pass.
  static void div_mod(const BigInt& a, const BigInt& b, BigInt& quotient,
                      BigInt& remainder);

  [[nodiscard]] BigInt shifted_left(std::size_t bits) const;
  [[nodiscard]] BigInt shifted_right(std::size_t bits) const;

  /// Non-negative residue in [0, m).
  [[nodiscard]] BigInt mod(const BigInt& m) const;
  /// (this ^ exp) mod m, exp >= 0, m > 1. Dispatches to the Montgomery/CIOS
  /// fast path when the modulus is odd; falls back to mod_pow_classic
  /// otherwise. Results are bit-identical.
  [[nodiscard]] BigInt mod_pow(const BigInt& exp, const BigInt& m) const;
  /// The reference path: 4-bit fixed-window exponentiation with schoolbook
  /// multiply-then-reduce steps. Public as the reference that equivalence
  /// tests and the RSA ablation bench compare the fast path against.
  [[nodiscard]] BigInt mod_pow_classic(const BigInt& exp,
                                       const BigInt& m) const;
  /// Multiplicative inverse mod m; throws CryptoError if gcd != 1.
  [[nodiscard]] BigInt mod_inverse(const BigInt& m) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// Miller-Rabin with `rounds` random bases (plus base-2 first).
  [[nodiscard]] bool is_probable_prime(Drbg& rng, int rounds = 32) const;
  /// Random prime with exactly `bits` bits.
  static BigInt generate_prime(std::size_t bits, Drbg& rng);

 private:
  friend class Montgomery;

  void normalize() noexcept;
  [[nodiscard]] int compare_magnitude(const BigInt& other) const noexcept;

  static std::vector<std::uint32_t> add_mag(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  /// Requires |a| >= |b|.
  static std::vector<std::uint32_t> sub_mag(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_mag(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_school(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  static void div_mag(const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b,
                      std::vector<std::uint32_t>& quotient,
                      std::vector<std::uint32_t>& remainder);

  std::vector<std::uint32_t> limbs_;  // little-endian, normalized
  bool negative_ = false;             // never true for zero
};

/// Precomputed Montgomery-reduction context for one odd modulus n: holds
/// n0' = -n^{-1} mod 2^w and R^2 mod n (R = 2^(w·limbs)), so repeated
/// modular multiplications run as word-level CIOS loops (one fused
/// multiply-and-reduce pass with double-width accumulators) instead of
/// full-width multiply + Knuth division. The word size w is 64 where the
/// compiler provides __int128 (one quarter the multiply-accumulate count of
/// the 32-bit fallback). Building the context costs one division; amortize
/// it across an exponentiation or a batch of verifies under the same key.
/// Immutable after construction — safe to share across threads.
///
/// Every operation adds its Montgomery multiplies and squarings (including
/// the conversions into and out of Montgomery form) to
/// counters().mont_modmuls once, when it finishes.
class Montgomery {
 public:
  /// Throws CryptoError unless `modulus` is odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  [[nodiscard]] const BigInt& modulus() const noexcept { return n_; }

  /// x (plain) -> x·R mod n. Requires 0 <= x < n.
  [[nodiscard]] BigInt to_mont(const BigInt& x) const;
  /// x (Montgomery form) -> x·R^{-1} mod n.
  [[nodiscard]] BigInt from_mont(const BigInt& x) const;
  /// Montgomery product: a·b·R^{-1} mod n, both operands in Montgomery form.
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;
  /// (base ^ exp) mod n for plain (non-Montgomery) base; exp >= 0.
  /// Exponents up to 20 bits (e = 65537) take a left-to-right binary
  /// ladder; longer ones a 5-bit sliding window over the odd powers
  /// base^1..base^31. The whole exponentiation works in one scratch
  /// buffer. Bit-identical to BigInt::mod_pow_classic with this modulus.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;

 private:
#if defined(__SIZEOF_INT128__)
  using Word = std::uint64_t;
#else
  using Word = std::uint32_t;
#endif
  using Limbs = std::vector<Word>;

  /// out = a·b·R^{-1} mod n for s-word operands below n (s = modulus
  /// width). `out` may alias an operand; `t` is s + 1 words of scratch the
  /// caller owns.
  void mont_mul_into(Word* out, const Word* a, const Word* b, Word* t) const;
  /// One counted Montgomery product of padded operands.
  [[nodiscard]] BigInt product(const Limbs& a, const Limbs& b) const;
  [[nodiscard]] Limbs pad(const BigInt& x) const;
  [[nodiscard]] BigInt unpack(const Word* x) const;

  BigInt n_;
  Limbs n_limbs_;  ///< modulus limbs, unpadded length s
  Limbs rr_;       ///< R^2 mod n, padded to s limbs
  Word n0_ = 0;    ///< -n^{-1} mod 2^w
};

}  // namespace tpnr::crypto
