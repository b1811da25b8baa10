// The RSA fast path must be a pure speedup: Montgomery/CIOS modexp, CRT
// signing and batched verification all have to be bit-for-bit identical to
// the reference exponentiation, BigInt::mod_pow_classic. These tests pin
// that down with randomized equivalence sweeps (512/1024/2048-bit), sign and
// verify checked against the reference computed over an independently
// built RFC 8017 encoding, corrupted-signature rejection, and the
// rsa_verify_many / verify-memo interplay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "crypto/bigint.h"
#include "crypto/counters.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;
using common::BytesView;
using common::CryptoError;
using common::to_bytes;

/// EMSA-PKCS1-v1_5 over SHA-256 (RFC 8017 §9.2), built here rather than
/// taken from rsa.cpp so the reference path shares no code with the fast one.
Bytes pkcs1_sha256_encoding(BytesView message, std::size_t k) {
  const Bytes t = common::concat(
      {common::from_hex("3031300d060960864801650304020105000420"),
       sha256(message)});
  Bytes em(k, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - t.size() - 1] = 0x00;
  std::copy(t.begin(), t.end(),
            em.end() - static_cast<std::ptrdiff_t>(t.size()));
  return em;
}

/// The reference signature: EM^d mod n, full width, classic arithmetic.
Bytes classic_sign(const RsaPrivateKey& key, BytesView message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  return BigInt::from_bytes(pkcs1_sha256_encoding(message, k))
      .mod_pow_classic(key.d, key.n)
      .to_bytes(k);
}

/// The reference verification: s^e mod n, classic arithmetic, compared with
/// the expected encoding.
bool classic_verify(const RsaPublicKey& key, BytesView message,
                    BytesView signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes(signature);
  if (s.compare(key.n) >= 0) return false;
  return s.mod_pow_classic(key.e, key.n).to_bytes(k) ==
         pkcs1_sha256_encoding(message, k);
}

BigInt random_odd_modulus(std::size_t bits, Drbg& rng) {
  BigInt m;
  do {
    m = BigInt::random_bits(bits, rng);
  } while (!m.is_odd());
  return m;
}

TEST(MontgomeryEquivalence, PowMatchesClassicModPowOnRandomOperands) {
  Drbg rng(std::uint64_t{0xfeed});
  for (const std::size_t bits : {512, 1024, 2048}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const Montgomery mont(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_below(m, rng);
      // Mix short and full-width exponents: short ones exercise the binary
      // ladder, long ones the 4-bit fixed window.
      const BigInt exp = (i % 2 == 0) ? BigInt::random_bits(16 + bits / 64, rng)
                                      : BigInt::random_bits(bits, rng);
      const BigInt classic = base.mod_pow_classic(exp, m);
      EXPECT_EQ(mont.pow(base, exp).compare(classic), 0)
          << bits << "-bit modulus, iteration " << i;
    }
  }
}

TEST(MontgomeryEquivalence, MulAndConversionRoundTrip) {
  Drbg rng(std::uint64_t{0xc0ffee});
  for (const std::size_t bits : {512, 1024, 2048}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const Montgomery mont(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt a = BigInt::random_below(m, rng);
      const BigInt b = BigInt::random_below(m, rng);
      EXPECT_EQ(mont.from_mont(mont.to_mont(a)).compare(a), 0);
      const BigInt product =
          mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
      EXPECT_EQ(product.compare((a * b).mod(m)), 0)
          << bits << "-bit modulus, iteration " << i;
    }
  }
}

TEST(MontgomeryEquivalence, EdgeOperands) {
  Drbg rng(std::uint64_t{7});
  const BigInt m = random_odd_modulus(512, rng);
  const Montgomery mont(m);
  const BigInt x = BigInt::random_below(m, rng);
  EXPECT_EQ(mont.pow(x, BigInt(0)).compare(BigInt(1)), 0);  // x^0 = 1
  EXPECT_EQ(mont.pow(x, BigInt(1)).compare(x), 0);
  EXPECT_EQ(mont.pow(BigInt(0), BigInt(5)).compare(BigInt(0)), 0);
  EXPECT_EQ(mont.pow(m - BigInt(1), BigInt(2)).compare(BigInt(1)), 0);
}

TEST(MontgomeryEquivalence, RejectsUnusableModulus) {
  EXPECT_THROW(Montgomery(BigInt(4)), CryptoError);   // even
  EXPECT_THROW(Montgomery(BigInt(1)), CryptoError);   // too small
  EXPECT_THROW(Montgomery(BigInt(0)), CryptoError);
}

// mod_pow dispatches on the modulus: odd moduli take the Montgomery path,
// even ones fall back to the classic ladder. Both must match the reference.
TEST(MontgomeryEquivalence, ModPowDispatcherMatchesClassicBothWays) {
  Drbg rng(std::uint64_t{31337});
  const BigInt odd = random_odd_modulus(1024, rng);
  const BigInt even = odd + BigInt(1);
  const BigInt exp = BigInt::random_bits(1024, rng);
  for (const BigInt& m : {odd, even}) {
    const BigInt base = BigInt::random_below(m, rng);
    EXPECT_EQ(base.mod_pow(exp, m).compare(base.mod_pow_classic(exp, m)), 0)
        << (m.is_odd() ? "odd" : "even") << " modulus";
  }
}

// Key generation dominates the suite's runtime; share one keypair per size.
class RsaFastPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Drbg rng(std::uint64_t{2026});
    k512_ = new RsaKeyPair(rsa_generate(512, rng));
    k1024_ = new RsaKeyPair(rsa_generate(1024, rng));
    k2048_ = new RsaKeyPair(rsa_generate(2048, rng));
  }
  static void TearDownTestSuite() {
    delete k512_;
    delete k1024_;
    delete k2048_;
    k512_ = k1024_ = k2048_ = nullptr;
  }
  static std::vector<const RsaKeyPair*> all_keys() {
    return {k512_, k1024_, k2048_};
  }

  static RsaKeyPair* k512_;
  static RsaKeyPair* k1024_;
  static RsaKeyPair* k2048_;
};

RsaKeyPair* RsaFastPathTest::k512_ = nullptr;
RsaKeyPair* RsaFastPathTest::k1024_ = nullptr;
RsaKeyPair* RsaFastPathTest::k2048_ = nullptr;

TEST_F(RsaFastPathTest, SignVerifyRoundTripAcrossSizesAndPaths) {
  for (const RsaKeyPair* key : all_keys()) {
    const Bytes msg = to_bytes("round trip at " +
                               std::to_string(key->pub.modulus_bytes() * 8));
    const Bytes fast_sig = rsa_sign(key->priv, HashKind::kSha256, msg);
    const Bytes classic_sig = classic_sign(key->priv, msg);
    // CRT signing and classic full-width signing are bit-for-bit identical,
    // and each path verifies what the other produced.
    EXPECT_EQ(fast_sig, classic_sig);
    EXPECT_TRUE(rsa_verify(key->pub, HashKind::kSha256, msg, classic_sig));
    EXPECT_TRUE(classic_verify(key->pub, msg, fast_sig));
  }
}

// Keys with valid factors sign through CRT; a key without them (hand-built,
// factors absent) takes the full-width exponentiation and is counted as a
// classic sign. Both produce the same signature.
TEST_F(RsaFastPathTest, CrtSignsAreCountedAndClassicSignsAreNot) {
  const Bytes msg = to_bytes("counter attribution");
  const std::uint64_t crt_before = counters().crt_signs.load();
  const std::uint64_t classic_before = counters().classic_signs.load();
  const Bytes crt_sig = rsa_sign(k1024_->priv, HashKind::kSha256, msg);
  EXPECT_GT(counters().crt_signs.load(), crt_before);
  EXPECT_EQ(counters().classic_signs.load(), classic_before);

  const RsaPrivateKey no_factors(k1024_->priv.n, k1024_->priv.e,
                                 k1024_->priv.d, BigInt(), BigInt());
  ASSERT_EQ(no_factors.crt_context(), nullptr);
  EXPECT_EQ(rsa_sign(no_factors, HashKind::kSha256, msg), crt_sig);
  EXPECT_GT(counters().classic_signs.load(), classic_before);
}

TEST_F(RsaFastPathTest, CorruptedSignaturesRejectedOnBothPaths) {
  Drbg rng(std::uint64_t{17});
  for (const RsaKeyPair* key : all_keys()) {
    const Bytes msg = to_bytes("tamper target");
    const Bytes good = rsa_sign(key->priv, HashKind::kSha256, msg);
    for (int i = 0; i < 4; ++i) {
      Bytes bad = good;
      const std::size_t at = rng.next_u64() % bad.size();
      bad[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() % 255));
      EXPECT_FALSE(rsa_verify(key->pub, HashKind::kSha256, msg, bad));
      EXPECT_FALSE(classic_verify(key->pub, msg, bad));
    }
  }
}

TEST_F(RsaFastPathTest, VerifyManyMatchesSingleVerifies) {
  const std::vector<Bytes> msgs = {
      to_bytes("batch zero"), to_bytes("batch one"), to_bytes("batch two"),
      to_bytes("batch three")};
  std::vector<Bytes> sigs;
  sigs.reserve(msgs.size());
  for (const Bytes& m : msgs) {
    sigs.push_back(rsa_sign(k1024_->priv, HashKind::kSha256, m));
  }
  sigs[2][5] ^= 0x40;  // one corrupted signature in the middle

  std::vector<RsaVerifyItem> items;
  items.reserve(msgs.size() + 1);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    items.push_back(
        {HashKind::kSha256, BytesView(msgs[i]), BytesView(sigs[i])});
  }
  // A signature from a DIFFERENT key must fail under this key.
  const Bytes foreign = rsa_sign(k512_->priv, HashKind::kSha256, msgs[0]);
  items.push_back({HashKind::kSha256, BytesView(msgs[0]), BytesView(foreign)});

  const std::uint64_t groups_before = counters().batch_verify_groups.load();
  const std::uint64_t items_before = counters().batch_verify_items.load();
  const std::vector<bool> batch = rsa_verify_many(k1024_->pub, items);
  ASSERT_EQ(batch.size(), items.size());
  EXPECT_GT(counters().batch_verify_groups.load(), groups_before);
  EXPECT_GE(counters().batch_verify_items.load(),
            items_before + items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch[i], rsa_verify(k1024_->pub, items[i].kind,
                                   items[i].message, items[i].signature))
        << "item " << i;
  }
  EXPECT_TRUE(batch[0]);
  EXPECT_FALSE(batch[2]);
  EXPECT_FALSE(batch[4]);
}

TEST_F(RsaFastPathTest, VerifyManyFeedsAndConsultsTheMemo) {
  const Bytes msg = to_bytes("memoized batch item");
  const Bytes sig = rsa_sign(k1024_->priv, HashKind::kSha256, msg);
  const std::vector<RsaVerifyItem> items = {
      {HashKind::kSha256, BytesView(msg), BytesView(sig)}};

  const std::vector<bool> first = rsa_verify_many(k1024_->pub, items);
  const std::uint64_t hits_before = counters().verify_memo_hits.load();
  const std::vector<bool> second = rsa_verify_many(k1024_->pub, items);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(second[0]);
  // The repeat run answers from the memo the first run fed.
  EXPECT_GT(counters().verify_memo_hits.load(), hits_before);
}

TEST_F(RsaFastPathTest, VerifyManyEmptyBatch) {
  EXPECT_TRUE(rsa_verify_many(k1024_->pub, {}).empty());
}

TEST_F(RsaFastPathTest, CachedMontContextIsSharedAndCorrect) {
  const auto ctx1 = k1024_->pub.mont_context();
  const auto ctx2 = k1024_->pub.mont_context();
  ASSERT_NE(ctx1, nullptr);
  EXPECT_EQ(ctx1.get(), ctx2.get());  // built once, shared thereafter
  Drbg rng(std::uint64_t{5});
  const BigInt x = BigInt::random_below(k1024_->pub.n, rng);
  EXPECT_EQ(ctx1->pow(x, k1024_->pub.e)
                .compare(x.mod_pow_classic(k1024_->pub.e, k1024_->pub.n)),
            0);
}

}  // namespace
}  // namespace tpnr::crypto
