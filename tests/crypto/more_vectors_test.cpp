// Additional published test vectors pinning the crypto substrate: FIPS
// 180-4 long-message digests, RFC 2202 HMAC-MD5 cases and the RFC 8439
// all-zero ChaCha20 keystream.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"

namespace tpnr::crypto {
namespace {

using common::from_hex;
using common::to_bytes;
using common::to_hex;

constexpr const char* kTwoBlockMessage =
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
    "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";

TEST(MoreVectors, Fips180TwoBlockMessages) {
  const Bytes msg = to_bytes(kTwoBlockMessage);
  EXPECT_EQ(to_hex(digest(HashKind::kSha1, msg)),
            "a49b2446a02c645bf419f995b67091253a04a259");
  EXPECT_EQ(
      to_hex(digest(HashKind::kSha256, msg)),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(to_hex(digest(HashKind::kSha384, msg)),
            "09330c33f71147e83d192fc782cd1b4753111b173b3b05d22fa08086e3b0f712"
            "fcc7c71a557e2db966c3e9fa91746039");
  EXPECT_EQ(to_hex(digest(HashKind::kSha512, msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

// RFC 2202 HMAC-MD5 cases 2, 3, 5.
TEST(MoreVectors, Rfc2202HmacMd5) {
  EXPECT_EQ(to_hex(hmac(HashKind::kMd5, to_bytes("Jefe"),
                        to_bytes("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
  EXPECT_EQ(to_hex(hmac(HashKind::kMd5, Bytes(16, 0xaa), Bytes(50, 0xdd))),
            "56be34521d144c88dbb8c733f0e8b3f6");
  EXPECT_EQ(to_hex(hmac(HashKind::kMd5,
                        from_hex("0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c"),
                        to_bytes("Test With Truncation"))),
            "56461ef2342edc00f9bab995690efd4c");
}

// RFC 8439 appendix A.1, test vector #1: all-zero key/nonce, counter 0.
TEST(MoreVectors, ChaCha20AllZeroKeystream) {
  ChaCha20 cipher(Bytes(32, 0), Bytes(12, 0), 0);
  EXPECT_EQ(to_hex(cipher.keystream(64)),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
}

// SHA-256 CAVS one-byte vector.
TEST(MoreVectors, Sha256SingleByte) {
  EXPECT_EQ(
      to_hex(digest(HashKind::kSha256, from_hex("bd"))),
      "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

// MD5 collision awareness: the two famous Wang et al. colliding blocks
// must hash EQUAL under a correct MD5 (this is a property of MD5 itself,
// and a strong implementation check — any deviation breaks the collision).
TEST(MoreVectors, Md5WangCollisionPairCollides) {
  const Bytes m1 = from_hex(
      "d131dd02c5e6eec4693d9a0698aff95c2fcab58712467eab4004583eb8fb7f89"
      "55ad340609f4b30283e488832571415a085125e8f7cdc99fd91dbdf280373c5b"
      "d8823e3156348f5bae6dacd436c919c6dd53e2b487da03fd02396306d248cda0"
      "e99f33420f577ee8ce54b67080a80d1ec69821bcb6a8839396f9652b6ff72a70");
  const Bytes m2 = from_hex(
      "d131dd02c5e6eec4693d9a0698aff95c2fcab50712467eab4004583eb8fb7f89"
      "55ad340609f4b30283e4888325f1415a085125e8f7cdc99fd91dbd7280373c5b"
      "d8823e3156348f5bae6dacd436c919c6dd53e23487da03fd02396306d248cda0"
      "e99f33420f577ee8ce54b67080280d1ec69821bcb6a8839396f965ab6ff72a70");
  ASSERT_NE(m1, m2);
  EXPECT_EQ(md5(m1), md5(m2));  // the documented MD5 weakness, reproduced
  // ...which is precisely why the NR protocol signs SHA-256, not MD5:
  EXPECT_NE(sha256(m1), sha256(m2));
}

}  // namespace
}  // namespace tpnr::crypto
