#include "crypto/aes.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/error.h"

namespace tpnr::crypto {
namespace {

using common::from_hex;
using common::to_hex;

Bytes encrypt_one(const Bytes& key, const Bytes& plaintext) {
  Aes aes(key);
  Bytes block = plaintext;
  aes.encrypt_block(block.data());
  return block;
}

// FIPS-197 appendix C example vectors.
TEST(AesTest, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(to_hex(encrypt_one(key, pt)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes192) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(to_hex(encrypt_one(key, pt)),
            "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(to_hex(encrypt_one(key, pt)),
            "8ea2b7ca516745bfeafc49904b496089");
}

// NIST SP 800-38A F.1.1 (ECB-AES128 single block).
TEST(AesTest, Sp80038aEcbBlock) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(encrypt_one(key, pt)),
            "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(AesTest, RoundCountsPerKeySize) {
  EXPECT_EQ(Aes(Bytes(16, 0)).rounds(), 10);
  EXPECT_EQ(Aes(Bytes(24, 0)).rounds(), 12);
  EXPECT_EQ(Aes(Bytes(32, 0)).rounds(), 14);
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15, 0)), common::CryptoError);
  EXPECT_THROW(Aes(Bytes(17, 0)), common::CryptoError);
  EXPECT_THROW(Aes(Bytes(0, 0)), common::CryptoError);
  EXPECT_THROW(Aes(Bytes(64, 0)), common::CryptoError);
}

TEST(AesCtrTest, RoundTrip) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  Bytes data = common::to_bytes(
      "CTR mode must decrypt with the same keystream it encrypted with");
  const Bytes original = data;
  AesCtr enc(key, nonce);
  enc.apply(data);
  EXPECT_NE(data, original);
  AesCtr dec(key, nonce);
  dec.apply(data);
  EXPECT_EQ(data, original);
}

TEST(AesCtrTest, SplitApplicationMatchesOneShot) {
  const Bytes key(16, 0x33);
  const Bytes nonce(12, 0x44);
  Bytes data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  Bytes whole = data;
  AesCtr one(key, nonce);
  one.apply(whole);

  Bytes head(data.begin(), data.begin() + 37);
  Bytes tail(data.begin() + 37, data.end());
  AesCtr two(key, nonce);
  two.apply(head);
  two.apply(tail);
  common::append(head, tail);
  EXPECT_EQ(head, whole);
}

TEST(AesCtrTest, DifferentNoncesProduceDifferentStreams) {
  const Bytes key(16, 0x55);
  Bytes n1(12, 0), n2(12, 0);
  n2[11] = 1;
  Bytes a(64, 0), b(64, 0);
  AesCtr(key, n1).apply(a);
  AesCtr(key, n2).apply(b);
  EXPECT_NE(a, b);
}

TEST(AesCtrTest, RejectsBadNonce) {
  EXPECT_THROW(AesCtr(Bytes(16, 0), Bytes(16, 0)), common::CryptoError);
}

TEST(AesCtrTest, CounterCrossesManyBlocks) {
  // > 256 blocks forces a carry into the second counter byte.
  const Bytes key(16, 0x66);
  const Bytes nonce(12, 0x77);
  Bytes data(16 * 300, 0xab);
  const Bytes original = data;
  AesCtr enc(key, nonce);
  enc.apply(data);
  AesCtr dec(key, nonce);
  dec.apply(data);
  EXPECT_EQ(data, original);
}

}  // namespace
}  // namespace tpnr::crypto
