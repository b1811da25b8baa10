#include "crypto/rsa.h"

#include <mutex>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/aead.h"
#include "crypto/counters.h"
#include "crypto/hmac.h"
#include "crypto/verify_memo.h"

namespace tpnr::crypto {

using common::CryptoError;

namespace {
/// Guards the per-key lazy caches (fingerprint, CRT context). Both are
/// computed once per key object and then only read, so a single process-wide
/// mutex sees no meaningful contention.
std::mutex g_key_cache_mu;
}  // namespace

Bytes RsaPublicKey::encode() const {
  common::BinaryWriter w;
  w.bytes(n.to_bytes());
  w.bytes(e.to_bytes());
  return w.take();
}

RsaPublicKey RsaPublicKey::decode(BytesView data) {
  common::BinaryReader r(data);
  RsaPublicKey key;
  key.n = BigInt::from_bytes(r.bytes());
  key.e = BigInt::from_bytes(r.bytes());
  r.expect_done();
  return key;
}

Bytes RsaPublicKey::fingerprint() const {
  std::lock_guard<std::mutex> lock(g_key_cache_mu);
  if (!fp_cache_) {
    fp_cache_ = std::make_shared<const Bytes>(sha256(encode()));
  }
  return *fp_cache_;
}

std::shared_ptr<const Montgomery> RsaPublicKey::mont_context() const {
  std::lock_guard<std::mutex> lock(g_key_cache_mu);
  if (!mont_cache_) {
    if (!n.is_odd() || n.compare(BigInt(1)) <= 0) {
      return nullptr;  // degenerate modulus: classic path only
    }
    mont_cache_ = std::make_shared<const Montgomery>(n);
  }
  return mont_cache_;
}

/// The expensive pieces of a CRT private op, computed once per key: the
/// reduced exponents, Garner's coefficient, and one Montgomery context per
/// prime (each context costs a division to set up).
struct RsaCrtContext {
  explicit RsaCrtContext(const RsaPrivateKey& key)
      : dp(key.d.mod(key.p - BigInt(1))),
        dq(key.d.mod(key.q - BigInt(1))),
        qinv(key.q.mod_inverse(key.p)),
        mp(key.p),
        mq(key.q) {}

  BigInt dp;
  BigInt dq;
  BigInt qinv;
  Montgomery mp;
  Montgomery mq;
};

std::shared_ptr<const RsaCrtContext> RsaPrivateKey::crt_context() const {
  std::lock_guard<std::mutex> lock(g_key_cache_mu);
  if (!crt_cache_) {
    if (p.is_zero() || q.is_zero() || !p.is_odd() || !q.is_odd() ||
        (p * q).compare(n) != 0) {
      return nullptr;  // factors absent or inconsistent: no CRT for this key
    }
    try {
      crt_cache_ = std::make_shared<const RsaCrtContext>(*this);
    } catch (const CryptoError&) {
      return nullptr;  // degenerate factors (q not invertible mod p)
    }
  }
  return crt_cache_;
}

RsaKeyPair rsa_generate(std::size_t bits, Drbg& rng) {
  if (bits < 256) throw CryptoError("rsa_generate: modulus too small");
  const BigInt e(65537);
  while (true) {
    const BigInt p = BigInt::generate_prime(bits / 2, rng);
    const BigInt q = BigInt::generate_prime(bits - bits / 2, rng);
    if (p.compare(q) == 0) continue;
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (!(BigInt::gcd(e, phi).compare(BigInt(1)) == 0)) continue;
    const BigInt d = e.mod_inverse(phi);
    RsaKeyPair pair;
    pair.priv = RsaPrivateKey{n, e, d, p, q};
    pair.pub = RsaPublicKey{n, e};
    return pair;
  }
}

namespace {

// DigestInfo prefixes per RFC 8017 §9.2 for EMSA-PKCS1-v1_5.
Bytes digest_info_prefix(HashKind kind) {
  switch (kind) {
    case HashKind::kMd5:
      return common::from_hex("3020300c06082a864886f70d020505000410");
    case HashKind::kSha1:
      return common::from_hex("3021300906052b0e03021a05000414");
    case HashKind::kSha224:
      return common::from_hex("302d300d06096086480165030402040500041c");
    case HashKind::kSha256:
      return common::from_hex("3031300d060960864801650304020105000420");
    case HashKind::kSha384:
      return common::from_hex("3041300d060960864801650304020205000430");
    case HashKind::kSha512:
      return common::from_hex("3051300d060960864801650304020305000440");
  }
  throw CryptoError("digest_info_prefix: unknown hash");
}

// EMSA-PKCS1-v1_5: 00 01 FF..FF 00 || DigestInfo || H(m)
Bytes emsa_pkcs1_encode(HashKind kind, BytesView message, std::size_t em_len) {
  const Bytes h = digest(kind, message);
  const Bytes prefix = digest_info_prefix(kind);
  const std::size_t t_len = prefix.size() + h.size();
  if (em_len < t_len + 11) {
    throw CryptoError("emsa_pkcs1_encode: modulus too small for hash");
  }
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(prefix.begin(), prefix.end(),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - t_len));
  std::copy(h.begin(), h.end(),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - h.size()));
  return em;
}

// MGF1 with SHA-256 (RFC 8017 §B.2.1) for the OAEP-like key wrap.
Bytes mgf1(BytesView seed, std::size_t out_len) {
  Bytes out;
  std::uint32_t counter = 0;
  while (out.size() < out_len) {
    Bytes input(seed.begin(), seed.end());
    for (int i = 3; i >= 0; --i) {
      input.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
    }
    common::append(out, sha256(input));
    ++counter;
  }
  out.resize(out_len);
  return out;
}

constexpr std::size_t kWrapKeySize = 32;
constexpr std::size_t kOaepSeedSize = 32;

// c^d mod n. With valid factors this runs as two half-width Montgomery
// exponentiations recombined with Garner's formula — bit-identical to the
// full-width exponentiation, ~4x cheaper (each half is half the iterations
// over a quarter-cost multiply).
BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c) {
  if (const auto crt = key.crt_context()) {
    const BigInt m1 = crt->mp.pow(c, crt->dp);
    const BigInt m2 = crt->mq.pow(c, crt->dq);
    const BigInt h = ((m1 - m2) * crt->qinv).mod(key.p);
    counters().crt_signs.fetch_add(1, std::memory_order_relaxed);
    return m2 + h * key.q;
  }
  counters().classic_signs.fetch_add(1, std::memory_order_relaxed);
  return c.mod_pow(key.d, key.n);
}

// Shared verify core: the public-key operation via an optional pre-built
// Montgomery context (batch callers amortize the context across a key
// group; nullptr dispatches through BigInt::mod_pow, which builds its own).
bool rsa_verify_core(const RsaPublicKey& key, HashKind kind, BytesView message,
                     BytesView signature, const Montgomery* ctx) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes(signature);
  if (s.compare(key.n) >= 0) return false;
  const BigInt m = ctx != nullptr ? ctx->pow(s, key.e) : s.mod_pow(key.e, key.n);
  Bytes expected;
  try {
    expected = emsa_pkcs1_encode(kind, message, k);
  } catch (const CryptoError&) {
    return false;
  }
  return common::constant_time_equal(m.to_bytes(k), expected);
}

// OAEP-like wrap of a 32-byte key: EM = 00 || maskedSeed || maskedDB where
// DB = lHash || PS(00..) || 01 || key. Requires modulus >= 96 bytes + 2.
Bytes oaep_wrap(const RsaPublicKey& pub, BytesView key_material, Drbg& rng) {
  const std::size_t k = pub.modulus_bytes();
  const std::size_t db_len = k - kOaepSeedSize - 1;
  if (db_len < kWrapKeySize + 33) {
    throw CryptoError("rsa_encrypt: modulus too small for OAEP wrap");
  }
  const Bytes lhash = sha256(Bytes{});
  Bytes db(db_len, 0);
  std::copy(lhash.begin(), lhash.end(), db.begin());
  db[db_len - key_material.size() - 1] = 0x01;
  std::copy(key_material.begin(), key_material.end(),
            db.end() - static_cast<std::ptrdiff_t>(key_material.size()));

  const Bytes seed = rng.bytes(kOaepSeedSize);
  Bytes masked_db = db;
  common::xor_into(masked_db, mgf1(seed, db_len));
  Bytes masked_seed(seed.begin(), seed.end());
  common::xor_into(masked_seed, mgf1(masked_db, kOaepSeedSize));

  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  common::append(em, masked_seed);
  common::append(em, masked_db);

  const BigInt m = BigInt::from_bytes(em);
  const BigInt c = m.mod_pow(pub.e, pub.n);
  return c.to_bytes(k);
}

Bytes oaep_unwrap(const RsaPrivateKey& priv, BytesView wrapped) {
  const std::size_t k = (priv.n.bit_length() + 7) / 8;
  if (wrapped.size() != k) {
    throw CryptoError("rsa_decrypt: wrapped key has wrong length");
  }
  const BigInt c = BigInt::from_bytes(wrapped);
  if (c.compare(priv.n) >= 0) {
    throw CryptoError("rsa_decrypt: ciphertext out of range");
  }
  const BigInt m = rsa_private_op(priv, c);
  const Bytes em = m.to_bytes(k);
  if (em[0] != 0x00) throw CryptoError("rsa_decrypt: bad padding");

  Bytes masked_seed(em.begin() + 1,
                    em.begin() + 1 + static_cast<std::ptrdiff_t>(kOaepSeedSize));
  Bytes masked_db(em.begin() + 1 + static_cast<std::ptrdiff_t>(kOaepSeedSize),
                  em.end());
  Bytes seed = masked_seed;
  common::xor_into(seed, mgf1(masked_db, kOaepSeedSize));
  Bytes db = masked_db;
  common::xor_into(db, mgf1(seed, db.size()));

  const Bytes lhash = sha256(Bytes{});
  if (!common::constant_time_equal(BytesView(db).subspan(0, lhash.size()),
                                   lhash)) {
    throw CryptoError("rsa_decrypt: bad padding");
  }
  // Find the 0x01 separator after lHash.
  std::size_t sep = lhash.size();
  while (sep < db.size() && db[sep] == 0x00) ++sep;
  if (sep == db.size() || db[sep] != 0x01) {
    throw CryptoError("rsa_decrypt: bad padding");
  }
  return Bytes(db.begin() + static_cast<std::ptrdiff_t>(sep + 1), db.end());
}

}  // namespace

Bytes rsa_sign(const RsaPrivateKey& key, HashKind kind, BytesView message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  const Bytes em = emsa_pkcs1_encode(kind, message, k);
  const BigInt m = BigInt::from_bytes(em);
  const BigInt s = rsa_private_op(key, m);
  return s.to_bytes(k);
}

bool rsa_verify(const RsaPublicKey& key, HashKind kind, BytesView message,
                BytesView signature) {
  return rsa_verify_core(key, kind, message, signature,
                         key.mont_context().get());
}

std::vector<bool> rsa_verify_many(const RsaPublicKey& key,
                                  std::span<const RsaVerifyItem> items) {
  std::vector<bool> out(items.size(), false);
  if (items.empty()) return out;
  counters().batch_verify_groups.fetch_add(1, std::memory_order_relaxed);
  counters().batch_verify_items.fetch_add(items.size(),
                                          std::memory_order_relaxed);
  // The key's shared Montgomery context serves the whole group; only fetched
  // when at least one item misses the memo (an all-hit group costs nothing).
  std::shared_ptr<const Montgomery> ctx;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RsaVerifyItem& item = items[i];
    bool memoized = false;
    if (verify_memo_lookup(key, item.kind, item.message, item.signature,
                           memoized)) {
      out[i] = memoized;
      continue;
    }
    if (!ctx) ctx = key.mont_context();
    const bool ok = rsa_verify_core(key, item.kind, item.message,
                                    item.signature, ctx.get());
    verify_memo_store(key, item.kind, item.message, item.signature, ok);
    out[i] = ok;
  }
  return out;
}

Bytes rsa_encrypt(const RsaPublicKey& key, BytesView plaintext, Drbg& rng) {
  const Bytes session_key = rng.bytes(kWrapKeySize);
  const Bytes wrapped = oaep_wrap(key, session_key, rng);
  const Aead aead(session_key);
  const Bytes sealed = aead.seal(plaintext, Bytes{}, rng);

  common::BinaryWriter w;
  w.bytes(wrapped);
  w.bytes(sealed);
  return w.take();
}

Bytes rsa_decrypt(const RsaPrivateKey& key, BytesView ciphertext) {
  common::BinaryReader r(ciphertext);
  Bytes wrapped;
  Bytes sealed;
  try {
    wrapped = r.bytes();
    sealed = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    throw CryptoError("rsa_decrypt: malformed ciphertext envelope");
  }
  const Bytes session_key = oaep_unwrap(key, wrapped);
  if (session_key.size() != kWrapKeySize) {
    throw CryptoError("rsa_decrypt: bad session key size");
  }
  const Aead aead(session_key);
  return aead.open(sealed, Bytes{});
}

}  // namespace tpnr::crypto
