// Deterministic random bit generator built on ChaCha20 with forward-secure
// rekeying (fast-key-erasure construction). All protocol randomness — nonces,
// RSA prime search, Shamir coefficients — flows through this, so a seeded
// Drbg makes complete protocol runs reproducible.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace tpnr::crypto {

using common::Bytes;
using common::BytesView;

class Drbg {
 public:
  /// Deterministic instance from an explicit 32-byte-or-shorter seed (the
  /// seed is hashed to 32 bytes).
  explicit Drbg(BytesView seed);

  /// Convenience: deterministic instance from a 64-bit seed.
  explicit Drbg(std::uint64_t seed);

  /// Fills `out` with random bytes.
  void fill(Bytes& out);

  /// Returns `n` random bytes.
  Bytes bytes(std::size_t n);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform value in [0, bound) via rejection sampling; bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);

 private:
  void rekey();

  Bytes key_;       // 32 bytes
  std::uint64_t counter_ = 0;
};

}  // namespace tpnr::crypto
