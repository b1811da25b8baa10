// The two CRT exponentiations of an RSA private op, c^dp mod p and
// c^dq mod q, run in lockstep on AVX-512 IFMA. Each step is a dual
// almost-Montgomery multiply in radix 2^52: ten limbs per prime, padded to
// sixteen lanes in two zmm, with vpmadd52luq/vpmadd52huq. A fixed 5-bit
// window gives both halves the same schedule; the shorter exponent's top
// windows multiply by 1. Results are the unique residues, equal to
// Montgomery::pow and BigInt::mod_pow_classic.
//
// The AVX-512 code is confined to functions compiled for that target and
// called only after __builtin_cpu_supports("avx512ifma"); they touch raw
// uint64_t arrays only, no BigInt and no inline function from a header.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "crypto/bigint.h"

namespace tpnr::crypto {

/// One odd modulus below 2^518 in radix 2^52: ten limbs, zero-padded to
/// sixteen so each operand fills two zmm registers. R = 2^520.
struct Amm52Modulus {
  std::uint64_t n[16] = {};
  std::uint64_t rr[16] = {};   ///< R^2 mod n
  std::uint64_t one[16] = {};  ///< R mod n: 1 in Montgomery form
  std::uint64_t k0 = 0;        ///< -n^{-1} mod 2^52
};

/// Radix-2^52 state of two moduli, built once (a cached RsaCrtContext holds
/// one per key) and immutable after: safe to share across threads.
class IfmaDualPow {
 public:
  /// Whether this CPU has AVX-512 IFMA (CPUID, read once per process).
  static bool host_supported() noexcept;
  /// The state for moduli p and q, or nullopt when the host lacks IFMA or
  /// either modulus is even, below 3 or wider than 518 bits.
  static std::optional<IfmaDualPow> make(const BigInt& p, const BigInt& q);

  /// {c^ep mod p, c^eq mod q} for c >= 0 and 0 <= ep, eq < 2^520 (throws
  /// CryptoError otherwise). Adds two Montgomery multiplies per dual step,
  /// one per half, to counters().mont_modmuls.
  [[nodiscard]] std::pair<BigInt, BigInt> pow(const BigInt& c,
                                              const BigInt& ep,
                                              const BigInt& eq) const;

 private:
  IfmaDualPow(const BigInt& p, const BigInt& q);

  BigInt p_;
  BigInt q_;
  Amm52Modulus mod_[2];
};

}  // namespace tpnr::crypto
