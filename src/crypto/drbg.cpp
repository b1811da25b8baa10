#include "crypto/drbg.h"

#include "common/error.h"
#include "crypto/chacha20.h"
#include "crypto/hash.h"

namespace tpnr::crypto {

namespace {

Bytes normalize_seed(BytesView seed) {
  // Hash any seed down to exactly 32 bytes.
  return sha256(seed);
}

}  // namespace

Drbg::Drbg(BytesView seed) : key_(normalize_seed(seed)) {}

Drbg::Drbg(std::uint64_t seed) {
  Bytes raw(8);
  for (int i = 0; i < 8; ++i) {
    raw[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  key_ = normalize_seed(raw);
}

void Drbg::rekey() {
  // Fast key erasure: the first 32 keystream bytes of each request become
  // the next key, so compromise of the current state cannot recover past
  // output.
  Bytes nonce(ChaCha20::kNonceSize, 0);
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(counter_ >> (8 * i));
  }
  ChaCha20 cipher(key_, nonce);
  Bytes next_key = cipher.keystream(32);
  common::secure_wipe(key_);
  key_ = std::move(next_key);
  ++counter_;
}

void Drbg::fill(Bytes& out) {
  Bytes nonce(ChaCha20::kNonceSize, 0);
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(counter_ >> (8 * i));
  }
  // Domain-separate output stream from the rekey stream via nonce[11].
  nonce[11] = 0x01;
  ChaCha20 cipher(key_, nonce);
  out = cipher.keystream(out.size());
  rekey();
}

Bytes Drbg::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

std::uint64_t Drbg::next_u64() {
  const Bytes raw = bytes(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(raw[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

std::uint64_t Drbg::uniform(std::uint64_t bound) {
  if (bound == 0) throw common::CryptoError("Drbg::uniform: zero bound");
  // Rejection sampling: discard values in the biased tail.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

double Drbg::next_double() {
  // 53 uniform bits into [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Drbg::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

}  // namespace tpnr::crypto
