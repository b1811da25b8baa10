// RSA keypairs, PKCS#1 v1.5 signatures (the paper's Sign(·)), and a hybrid
// public-key encryption envelope (the paper's Encrypt{·} over evidence). The
// envelope is RSA-KEM-style: a fresh AEAD key is RSA-encrypted with OAEP-like
// padding and the payload travels under the AEAD — required because evidence
// payloads exceed the RSA block size.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/drbg.h"
#include "crypto/hash.h"

namespace tpnr::crypto {

/// Cached CRT + Montgomery state for one private key (built in rsa.cpp).
struct RsaCrtContext;

struct RsaPublicKey {
  BigInt n;  ///< modulus
  BigInt e;  ///< public exponent

  RsaPublicKey() = default;
  RsaPublicKey(BigInt n_in, BigInt e_in)
      : n(std::move(n_in)), e(std::move(e_in)) {}

  [[nodiscard]] std::size_t modulus_bytes() const {
    return (n.bit_length() + 7) / 8;
  }
  /// Canonical encoding for fingerprints and transport.
  [[nodiscard]] Bytes encode() const;
  static RsaPublicKey decode(BytesView data);
  /// SHA-256 of the canonical encoding; identifies the key in certificates.
  /// Cached after the first call (copies share the cache), so hot lookups —
  /// the verify memo keys on this — never re-encode n||e. Treat n/e as
  /// immutable once a fingerprint has been taken.
  [[nodiscard]] Bytes fingerprint() const;

  /// Shared Montgomery context for n, built on first use and cached (copies
  /// share it) — the per-key R^2-mod-n division is paid once, not per
  /// verify. Returns nullptr for degenerate moduli (even or < 2), which
  /// routes verification to the classic exponentiation. Thread-safe.
  [[nodiscard]] std::shared_ptr<const Montgomery> mont_context() const;

 private:
  mutable std::shared_ptr<const Bytes> fp_cache_;
  mutable std::shared_ptr<const Montgomery> mont_cache_;
};

struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;  ///< private exponent
  BigInt p;
  BigInt q;

  RsaPrivateKey() = default;
  RsaPrivateKey(BigInt n_in, BigInt e_in, BigInt d_in, BigInt p_in,
                BigInt q_in)
      : n(std::move(n_in)),
        e(std::move(e_in)),
        d(std::move(d_in)),
        p(std::move(p_in)),
        q(std::move(q_in)) {}

  [[nodiscard]] RsaPublicKey public_key() const { return {n, e}; }

  /// CRT state (d mod p-1, d mod q-1, q^{-1} mod p, per-prime Montgomery
  /// contexts), built on first use and cached; copies share it. Returns
  /// nullptr for keys without valid factors (hand-built test keys), which
  /// routes private ops to the full-width exponentiation. Thread-safe.
  [[nodiscard]] std::shared_ptr<const RsaCrtContext> crt_context() const;

 private:
  mutable std::shared_ptr<const RsaCrtContext> crt_cache_;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates an RSA keypair with modulus of `bits` bits (e = 65537).
RsaKeyPair rsa_generate(std::size_t bits, Drbg& rng);

/// PKCS#1 v1.5 signature over `message` (the message is hashed with `kind`).
Bytes rsa_sign(const RsaPrivateKey& key, HashKind kind, BytesView message);

/// Verifies a PKCS#1 v1.5 signature; returns false on any mismatch (never
/// throws for malformed signatures).
bool rsa_verify(const RsaPublicKey& key, HashKind kind, BytesView message,
                BytesView signature);

/// One signature in a same-key batch for rsa_verify_many. The views must
/// stay valid for the duration of the call.
struct RsaVerifyItem {
  HashKind kind = HashKind::kSha256;
  BytesView message;
  BytesView signature;
};

/// Verifies a batch of signatures under ONE public key, sharing a single
/// Montgomery context across the whole group (the per-key setup — one
/// division for R^2 mod n — is paid once instead of per signature). Each
/// verdict is bit-identical to rsa_verify; the memo is consulted and fed
/// per item. This is the entry point for an
/// auditor's evidence stream, TTP Resolve and fork-arbitration walks.
std::vector<bool> rsa_verify_many(const RsaPublicKey& key,
                                  std::span<const RsaVerifyItem> items);

/// Hybrid encryption: RSA(OAEP-like) wraps a random 32-byte AEAD key, the
/// payload is sealed under that key. Output: u16 len || wrapped key || sealed.
Bytes rsa_encrypt(const RsaPublicKey& key, BytesView plaintext, Drbg& rng);

/// Inverse of rsa_encrypt. Throws CryptoError on any failure.
Bytes rsa_decrypt(const RsaPrivateKey& key, BytesView ciphertext);

}  // namespace tpnr::crypto
