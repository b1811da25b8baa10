// Memoized RSA verification: identical verdicts to rsa_verify for both
// accepting and rejecting cases, and hit accounting.
#include <gtest/gtest.h>

#include "crypto/counters.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "crypto/verify_memo.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;

class VerifyMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Drbg rng(std::uint64_t{424242});
    keys_ = new RsaKeyPair(rsa_generate(1024, rng));
  }
  static RsaKeyPair* keys_;
};

RsaKeyPair* VerifyMemoTest::keys_ = nullptr;

TEST_F(VerifyMemoTest, MatchesPlainVerifyAndMemoizesBothVerdicts) {
  verify_memo_clear();
  counters().reset();
  const Bytes msg = common::to_bytes("evidence bytes");
  const Bytes sig = rsa_sign(keys_->priv, HashKind::kSha256, msg);
  Bytes bad_sig = sig;
  bad_sig[10] ^= 0x40;

  // rsa_verify is the unmemoized reference.
  ASSERT_TRUE(rsa_verify(keys_->pub, HashKind::kSha256, msg, sig));
  ASSERT_FALSE(rsa_verify(keys_->pub, HashKind::kSha256, msg, bad_sig));
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(rsa_verify_memo(keys_->pub, HashKind::kSha256, msg, sig));
    EXPECT_FALSE(
        rsa_verify_memo(keys_->pub, HashKind::kSha256, msg, bad_sig));
  }
  const CounterSnapshot snap = counters().snapshot();
  EXPECT_EQ(snap.verify_memo_misses, 2u);  // one per distinct signature
  EXPECT_EQ(snap.verify_memo_hits, 4u);    // two repeats each
}

TEST_F(VerifyMemoTest, DistinguishesMessageKindAndKey) {
  verify_memo_clear();
  const Bytes msg = common::to_bytes("payload");
  const Bytes sig = rsa_sign(keys_->priv, HashKind::kSha256, msg);
  EXPECT_TRUE(rsa_verify_memo(keys_->pub, HashKind::kSha256, msg, sig));
  // Different message: not a cache collision, a real failed verification.
  EXPECT_FALSE(rsa_verify_memo(keys_->pub, HashKind::kSha256,
                               common::to_bytes("payload2"), sig));
  // Different hash kind under the same key/message/signature.
  EXPECT_FALSE(rsa_verify_memo(keys_->pub, HashKind::kSha512, msg, sig));
}

// rsa_verify is the reference the memo is checked against: it must do the
// full verification every time and neither consult nor feed the memo.
TEST_F(VerifyMemoTest, PlainVerifyBypassesMemo) {
  verify_memo_clear();
  counters().reset();
  const Bytes msg = common::to_bytes("direct");
  const Bytes sig = rsa_sign(keys_->priv, HashKind::kSha256, msg);
  EXPECT_TRUE(rsa_verify(keys_->pub, HashKind::kSha256, msg, sig));
  EXPECT_TRUE(rsa_verify(keys_->pub, HashKind::kSha256, msg, sig));
  const CounterSnapshot snap = counters().snapshot();
  EXPECT_EQ(snap.verify_memo_hits, 0u);
  EXPECT_EQ(snap.verify_memo_misses, 0u);
  // Nothing was memoized: the first memoized call is a miss.
  EXPECT_TRUE(rsa_verify_memo(keys_->pub, HashKind::kSha256, msg, sig));
  EXPECT_EQ(counters().snapshot().verify_memo_misses, 1u);
}

}  // namespace
}  // namespace tpnr::crypto
