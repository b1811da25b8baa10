// HmacKeyState (midstate-resumed HMAC) against RFC 4231 vectors and the
// plain Hmac implementation.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/hmac.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;
using common::BytesView;

Bytes hexb(const std::string& hex) { return common::from_hex(hex); }

TEST(HmacKeyStateTest, Rfc4231Vectors) {
  // Case 1: 20-byte key, "Hi There".
  {
    const HmacKeyState state(HashKind::kSha256, Bytes(20, 0x0b));
    EXPECT_EQ(state.mac(common::to_bytes("Hi There")),
              hexb("b0344c61d8db38535ca8afceaf0bf12b"
                   "881dc200c9833da726e9376c2e32cff7"));
  }
  // Case 2: key "Jefe", data "what do ya want for nothing?".
  {
    const HmacKeyState state(HashKind::kSha256, common::to_bytes("Jefe"));
    EXPECT_EQ(state.mac(common::to_bytes("what do ya want for nothing?")),
              hexb("5bdcc146bf60754e6a042426089575c7"
                   "5a003f089d2739839dec58b964ec3843"));
  }
  // Case 6: 131-byte key (> block size, must be hashed first).
  {
    const HmacKeyState state(HashKind::kSha256, Bytes(131, 0xaa));
    EXPECT_EQ(state.mac(common::to_bytes(
                  "Test Using Larger Than Block-Size Key - Hash Key First")),
              hexb("60e431591ee0b67f0d8a26aacbf5b77f"
                   "8e0bc6213728c5140546040f0ee37f54"));
  }
}

TEST(HmacKeyStateTest, MatchesPlainHmacAcrossKeyAndMessageLengths) {
  for (const auto kind : {HashKind::kSha224, HashKind::kSha256}) {
    for (const std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 200u}) {
      Bytes key(key_len);
      for (std::size_t i = 0; i < key_len; ++i) {
        key[i] = static_cast<std::uint8_t>(i * 7 + key_len);
      }
      const HmacKeyState state(kind, key);
      for (const std::size_t msg_len : {0u, 1u, 55u, 56u, 64u, 129u, 1000u}) {
        const Bytes msg(msg_len, static_cast<std::uint8_t>(msg_len));
        EXPECT_EQ(state.mac(msg), hmac(kind, key, msg))
            << "kind=" << hash_name(kind) << " key_len=" << key_len
            << " msg_len=" << msg_len;
      }
    }
  }
}

TEST(HmacKeyStateTest, RejectsUnsupportedKinds) {
  EXPECT_THROW(HmacKeyState(HashKind::kMd5, Bytes(16, 1)),
               common::CryptoError);
  EXPECT_THROW(HmacKeyState(HashKind::kSha512, Bytes(16, 1)),
               common::CryptoError);
}

}  // namespace
}  // namespace tpnr::crypto
