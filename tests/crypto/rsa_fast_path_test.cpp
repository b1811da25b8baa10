// The RSA fast path must be a pure speedup: Montgomery/CIOS modexp, the dual
// IFMA exponentiation of both CRT halves, CRT signing and batched
// verification all have to be bit-for-bit identical to the reference
// exponentiation, BigInt::mod_pow_classic. These tests pin that down with
// randomized equivalence sweeps (512/1024/2048-bit), edge matrices over
// modulus widths, exponent shapes and bases, sign and verify
// checked against the reference computed over an independently built
// RFC 8017 encoding, corrupted-signature rejection, the rsa_verify_many /
// verify-memo interplay, and exact multiply counts under concurrent signing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"
#include "crypto/bigint.h"
#include "crypto/counters.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"
#include "crypto/rsa_ifma.h"

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
      // ladder, long ones the sliding window.
      const BigInt exp = (i % 2 == 0) ? BigInt::random_bits(16 + bits / 64, rng)
                                      : BigInt::random_bits(bits, rng);
      const BigInt classic = base.mod_pow_classic(exp, m);
      EXPECT_EQ(mont.pow(base, exp).compare(classic), 0)
          << bits << "-bit modulus, iteration " << i;
    }
  }
}

/// Odd modulus of exactly `words` 64-bit words; with `top_ones` its top word
/// is all ones, so Montgomery results land near n and the final subtract
/// fires often.
BigInt modulus_of_words(std::size_t words, bool top_ones, Drbg& rng) {
  BigInt m = random_odd_modulus(64 * words, rng);
  if (top_ones) {
    const BigInt low = m.mod(BigInt(1).shifted_left(64 * (words - 1)));
    m = BigInt::from_hex("ffffffffffffffff").shifted_left(64 * (words - 1)) +
        low;
  }
  return m;
}

BigInt pow2(std::size_t k) { return BigInt(1).shifted_left(k); }

TEST(MontgomeryEquivalence, EdgeMatrixMatchesClassic) {
  Drbg rng(std::uint64_t{0x5eed});
  for (const std::size_t words : {1, 2, 3, 5, 8, 16, 33}) {
    for (const bool top_ones : {false, true}) {
      const BigInt m = modulus_of_words(words, top_ones, rng);
      const Montgomery mont(m);
      const std::size_t bits = m.bit_length();
      const std::vector<BigInt> exps = {
          BigInt(1), BigInt(2), BigInt(3), pow2(20), pow2(21), pow2(64),
          pow2(20) - BigInt(1),  // the longest exponent on the binary ladder
          pow2(64) - BigInt(1),
          BigInt::random_bits(21, rng),  // the first above the ladder cutoff
          pow2(bits) + pow2(bits / 2) + BigInt(1),  // long zero runs
          pow2(bits) - BigInt(1),                   // all ones
          BigInt::random_bits(bits, rng)};
      const std::vector<BigInt> bases = {BigInt(0), BigInt(1), m - BigInt(1),
                                         m + BigInt::random_below(m, rng)};
      for (const BigInt& exp : exps) {
        for (const BigInt& base : bases) {
          EXPECT_EQ(mont.pow(base, exp), base.mod_pow_classic(exp, m))
              << words << " words, top_ones " << top_ones << ", exp "
              << exp.to_hex() << ", base " << base.to_hex();
        }
      }
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

// The dual IFMA exponentiation, called directly, against the reference on
// each half. Skipped where the CPU has no AVX-512 IFMA (the RSA tests below
// then cover the scalar CRT path alone).
class IfmaDualPowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!IfmaDualPow::host_supported()) {
      GTEST_SKIP() << "no AVX-512 IFMA on this CPU";
    }
  }

  static void expect_matches_classic(const BigInt& p, const BigInt& q,
                                     const BigInt& c, const BigInt& ep,
                                     const BigInt& eq) {
    const auto dual = IfmaDualPow::make(p, q);
    ASSERT_TRUE(dual.has_value());
    const auto [rp, rq] = dual->pow(c, ep, eq);
    EXPECT_EQ(rp, c.mod_pow_classic(ep, p))
        << p.bit_length() << "-bit p, c " << c.to_hex() << ", ep "
        << ep.to_hex();
    EXPECT_EQ(rq, c.mod_pow_classic(eq, q))
        << q.bit_length() << "-bit q, c " << c.to_hex() << ", eq "
        << eq.to_hex();
  }
};

TEST_F(IfmaDualPowTest, RandomOperandsMatchClassicModPow) {
  Drbg rng(std::uint64_t{0x1f3a});
  for (const std::size_t bits : {256, 392, 512}) {
    const BigInt p = BigInt::generate_prime(bits, rng);
    const BigInt q = BigInt::generate_prime(bits, rng);
    for (int i = 0; i < 3; ++i) {
      const BigInt c = BigInt::random_below(p * q, rng);
      expect_matches_classic(p, q, c, BigInt::random_below(p, rng),
                             BigInt::random_below(q, rng));
    }
  }
}

TEST_F(IfmaDualPowTest, EdgeBasesMatchClassicModPow) {
  Drbg rng(std::uint64_t{0x2b});
  const BigInt p = BigInt::generate_prime(512, rng);
  const BigInt q = BigInt::generate_prime(512, rng);
  const BigInt ep = BigInt::random_below(p, rng);
  const BigInt eq = BigInt::random_below(q, rng);
  // c = 0 and c = p·q are 0 mod both primes; p - 1 and q - 1 are -1 in one
  // half; bases at or above p and q are reduced first.
  for (const BigInt& c :
       {BigInt(0), p * q, p, q, p - BigInt(1), q - BigInt(1), BigInt(1),
        p * q - BigInt(1), p + BigInt::random_below(p, rng),
        (p * q).shifted_left(7) + BigInt(3)}) {
    expect_matches_classic(p, q, c, ep, eq);
    expect_matches_classic(p, q, c, BigInt(1), BigInt(2));
  }
}

TEST_F(IfmaDualPowTest, ExponentShapesMatchClassicModPow) {
  Drbg rng(std::uint64_t{0x3c});
  const BigInt p = BigInt::generate_prime(512, rng);
  const BigInt q = BigInt::generate_prime(392, rng);
  const BigInt c = BigInt::random_below(p * q, rng);
  const std::vector<std::pair<BigInt, BigInt>> exps = {
      {BigInt(0), BigInt(0)},
      {BigInt(0), BigInt::random_bits(300, rng)},
      // Lengths 5k + 1: the top window holds one set bit over four zeros.
      {pow2(500), pow2(385) + BigInt(1)},
      // dp and dq of very different lengths: the short one's leading
      // windows are all zero while the long one's run.
      {BigInt::random_bits(511, rng), BigInt::random_bits(17, rng)},
      {BigInt::random_bits(40, rng), BigInt::random_bits(391, rng)},
      {BigInt::random_bits(512, rng), BigInt::random_bits(505, rng)},
      // Long zero runs inside, and all ones.
      {pow2(511) + pow2(5) + BigInt(1), pow2(390) + BigInt(31)},
      {pow2(520) - BigInt(1), pow2(512) - BigInt(1)}};
  for (const auto& [ep, eq] : exps) expect_matches_classic(p, q, c, ep, eq);
}

// Moduli made mostly of all-ones limbs at the widest allowed size make the
// final carries ripple through many limbs.
TEST_F(IfmaDualPowTest, AllOnesModuliAtTheWidthLimit) {
  Drbg rng(std::uint64_t{0x4d});
  const BigInt p = pow2(518) - BigInt(3);
  const BigInt q = pow2(517) + pow2(300) - BigInt(1);
  for (const BigInt& c : {p - BigInt(1), q - BigInt(1), pow2(517) - BigInt(1),
                          BigInt::random_below(p * q, rng)}) {
    expect_matches_classic(p, q, c, BigInt(1), BigInt(1));
    expect_matches_classic(p, q, c, BigInt::random_bits(518, rng),
                           BigInt::random_bits(517, rng));
  }
}

// Under a modulus with a square factor, c = r is not 0 mod r^2 but c^2 is;
// the almost-Montgomery chain then holds the modulus itself, which must
// come out as 0.
TEST_F(IfmaDualPowTest, ZeroResidueFromANonzeroBase) {
  const BigInt r = pow2(200) + BigInt(235);
  const BigInt n = r * r;
  expect_matches_classic(n, n, r, BigInt(2), BigInt(77));
  expect_matches_classic(n, n, r, BigInt(1), BigInt::from_hex("f00d1"));
}

TEST_F(IfmaDualPowTest, MakeRejectsUnfitModuli) {
  const BigInt ok = pow2(511) + BigInt(1);
  EXPECT_TRUE(IfmaDualPow::make(ok, pow2(518) - BigInt(1)).has_value());
  EXPECT_FALSE(IfmaDualPow::make(ok, pow2(518) + BigInt(1)).has_value());
  EXPECT_FALSE(IfmaDualPow::make(ok, pow2(300)).has_value());  // even
  EXPECT_FALSE(IfmaDualPow::make(BigInt(1), ok).has_value());
  EXPECT_FALSE(IfmaDualPow::make(BigInt(-7), ok).has_value());
  const auto dual = IfmaDualPow::make(ok, ok);
  ASSERT_TRUE(dual.has_value());
  EXPECT_THROW((void)dual->pow(BigInt(2), pow2(520), BigInt(1)), CryptoError);
  EXPECT_THROW((void)dual->pow(BigInt(-2), BigInt(3), BigInt(1)), CryptoError);
}

// One dual step is a Montgomery multiply in each half: a table of 32
// powers (one conversion, 30 products), six steps per window below the top
// one, and one conversion out.
TEST_F(IfmaDualPowTest, CountsTwoModmulsPerDualStep) {
  Drbg rng(std::uint64_t{0x5e});
  const BigInt p = BigInt::generate_prime(256, rng);
  const auto dual = IfmaDualPow::make(p, p);
  ASSERT_TRUE(dual.has_value());
  const std::uint64_t before = counters().mont_modmuls.load();
  (void)dual->pow(BigInt(5), BigInt::random_bits(100, rng), BigInt(7));
  const std::uint64_t windows = 20;  // 100 bits
  EXPECT_EQ(counters().mont_modmuls.load() - before,
            2 * (32 + 6 * (windows - 1)));
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

// Private ops of keys up to 1036 bits run both CRT halves on the dual IFMA
// path where the CPU has it; 2048-bit keys stay on the scalar halves. Either
// way a private op counts one CRT sign and its signature is the reference.
TEST_F(RsaFastPathTest, PrivateOpPathFollowsCpuAndPrimeWidth) {
  const Bytes msg = to_bytes("path choice");
  for (const RsaKeyPair* key : all_keys()) {
    const RsaPrivateKey& priv = key->priv;
    const bool dual = IfmaDualPow::host_supported() &&
                      priv.n.bit_length() <= 1024;
    EXPECT_EQ(IfmaDualPow::make(priv.p, priv.q).has_value(), dual);
    ASSERT_NE(priv.crt_context(), nullptr);
    const std::uint64_t crt_before = counters().crt_signs.load();
    const std::uint64_t mm_before = counters().mont_modmuls.load();
    EXPECT_EQ(rsa_sign(priv, HashKind::kSha256, msg), classic_sign(priv, msg));
    EXPECT_EQ(counters().crt_signs.load() - crt_before, 1u);
    if (dual) {
      const std::size_t bits =
          std::max(priv.d.mod(priv.p - BigInt(1)).bit_length(),
                   priv.d.mod(priv.q - BigInt(1)).bit_length());
      const std::uint64_t windows = (bits + 4) / 5;
      EXPECT_EQ(counters().mont_modmuls.load() - mm_before,
                2 * (32 + 6 * (windows - 1)))
          << priv.n.bit_length() << "-bit key";
    }
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

// One verify exponentiation is to_mont, 16 squarings, one multiply and
// from_mont, added to the counter in one step.
TEST(MontgomeryCounting, VerifyExponentCountsExactly19) {
  Drbg rng(std::uint64_t{65537});
  const BigInt m = random_odd_modulus(1024, rng);
  const Montgomery mont(m);
  const BigInt x = BigInt::random_below(m, rng);
  const std::uint64_t before = counters().mont_modmuls.load();
  const BigInt y = mont.pow(x, BigInt(65537));
  EXPECT_EQ(counters().mont_modmuls.load() - before, 19u);
  EXPECT_EQ(y, x.mod_pow_classic(BigInt(65537), m));
}

// Threads signing under distinct keys at once get the single-thread
// signatures, and the shared counter loses no multiply.
TEST(MontgomeryCounting, ConcurrentSignsMatchSerialSignsAndCounts) {
  constexpr std::size_t kThreads = 4;
  constexpr int kSignsPerThread = 3;
  Drbg rng(std::uint64_t{4444});
  std::vector<RsaKeyPair> keys;
  for (std::size_t i = 0; i < kThreads; ++i) {
    keys.push_back(rsa_generate(512, rng));
  }
  const Bytes msg = to_bytes("concurrent signer");

  std::vector<Bytes> serial(kThreads);
  std::uint64_t serial_modmuls = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    serial[i] = rsa_sign(keys[i].priv, HashKind::kSha256, msg);  // warm CRT
    const std::uint64_t before = counters().mont_modmuls.load();
    EXPECT_EQ(rsa_sign(keys[i].priv, HashKind::kSha256, msg), serial[i]);
    serial_modmuls += counters().mont_modmuls.load() - before;
  }

  std::vector<std::vector<Bytes>> concurrent(kThreads);
  const std::uint64_t before = counters().mont_modmuls.load();
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int j = 0; j < kSignsPerThread; ++j) {
          concurrent[i].push_back(
              rsa_sign(keys[i].priv, HashKind::kSha256, msg));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(counters().mont_modmuls.load() - before,
            serial_modmuls * kSignsPerThread);
  for (std::size_t i = 0; i < kThreads; ++i) {
    for (const Bytes& sig : concurrent[i]) EXPECT_EQ(sig, serial[i]);
  }
}

}  // namespace
}  // namespace tpnr::crypto
