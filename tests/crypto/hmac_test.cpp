#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;
using common::from_hex;
using common::to_bytes;
using common::to_hex;

// RFC 4231 test cases (HMAC-SHA2 family).
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(
      to_hex(hmac(HashKind::kSha256, key, data)),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(hmac(HashKind::kSha512, key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
  EXPECT_EQ(to_hex(hmac(HashKind::kSha224, key, data)),
            "896fb1128abbdf196832107cd49df33f47b4b1169912ba4f53684b22");
}

TEST(HmacTest, Rfc4231Case2JefeKey) {
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(
      to_hex(hmac(HashKind::kSha256, key, data)),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(
      to_hex(hmac(HashKind::kSha256, key, data)),
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  const Bytes data =
      to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(
      to_hex(hmac(HashKind::kSha256, key, data)),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 2202 (HMAC-MD5 / HMAC-SHA1).
TEST(HmacTest, Rfc2202Md5AndSha1) {
  const Bytes key(16, 0x0b);
  EXPECT_EQ(to_hex(hmac(HashKind::kMd5, key, to_bytes("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  const Bytes key20(20, 0x0b);
  EXPECT_EQ(to_hex(hmac(HashKind::kSha1, key20, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacTest, StreamingMatchesOneShot) {
  const Bytes key = to_bytes("azure-account-key");
  const Bytes data = to_bytes("PUT\n\n1048576\napplication/octet-stream");
  Hmac mac(HashKind::kSha256, key);
  mac.update(common::BytesView(data).subspan(0, 10));
  mac.update(common::BytesView(data).subspan(10));
  EXPECT_EQ(mac.finish(), hmac_sha256(key, data));
}

TEST(HmacTest, InstanceIsReusableAfterFinish) {
  const Bytes key = to_bytes("k");
  Hmac mac(HashKind::kSha256, key);
  mac.update(to_bytes("first"));
  const Bytes t1 = mac.finish();
  mac.update(to_bytes("first"));
  const Bytes t2 = mac.finish();
  EXPECT_EQ(t1, t2);
  mac.update(to_bytes("second"));
  EXPECT_NE(mac.finish(), t1);
}

TEST(HmacTest, EmptyMessageAndEmptyKey) {
  // HMAC-SHA256 with empty key and empty message (well-known value).
  EXPECT_EQ(
      to_hex(hmac_sha256(Bytes{}, Bytes{})),
      "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(HmacTest, TagSizeMatchesDigest) {
  EXPECT_EQ(Hmac(HashKind::kMd5, to_bytes("k")).tag_size(), 16u);
  EXPECT_EQ(Hmac(HashKind::kSha512, to_bytes("k")).tag_size(), 64u);
}

}  // namespace
}  // namespace tpnr::crypto
