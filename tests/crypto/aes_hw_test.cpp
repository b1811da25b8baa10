// The AES-NI block path against the portable rounds, and CTR mode applied in
// uneven pieces and across a wrap of its 32-bit block counter. The AES-NI
// tests skip on CPUs without it; the CTR tests run everywhere against the
// portable rounds.
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"

namespace tpnr::crypto {
namespace {

using common::from_hex;
using common::to_hex;

class AesNiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Aes::aesni_supported()) GTEST_SKIP() << "CPU lacks AES-NI";
  }
};

TEST_F(AesNiTest, MatchesPortableRoundsForEveryKeySize) {
  Drbg rng(std::uint64_t{197});
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    for (int k = 0; k < 8; ++k) {
      const Aes aes(rng.bytes(key_len));
      for (int b = 0; b < 32; ++b) {
        Bytes hw = rng.bytes(Aes::kBlockSize);
        Bytes sw = hw;
        aes.encrypt_block(hw.data());
        aes.encrypt_block_portable(sw.data());
        EXPECT_EQ(hw, sw) << "key_len=" << key_len;
      }
    }
  }
}

// FIPS-197 appendix C, forward direction, through each path by name.
TEST_F(AesNiTest, Fips197VectorsOnBothPaths) {
  struct Vector {
    const char* key;
    const char* ciphertext;
  };
  const Vector vectors[] = {
      {"000102030405060708090a0b0c0d0e0f",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& v : vectors) {
    const Aes aes(from_hex(v.key));
    Bytes hw = from_hex("00112233445566778899aabbccddeeff");
    Bytes sw = hw;
    aes.encrypt_block(hw.data());
    aes.encrypt_block_portable(sw.data());
    EXPECT_EQ(to_hex(hw), v.ciphertext) << v.key;
    EXPECT_EQ(to_hex(sw), v.ciphertext) << v.key;
  }
}

// The keystream for `len` bytes from block counter `first` under the given
// key and nonce, one portable block at a time.
Bytes portable_keystream(const Bytes& key, const Bytes& nonce,
                         std::uint32_t first, std::size_t len) {
  const Aes aes(key);
  Bytes stream;
  for (std::uint32_t ctr = first; stream.size() < len; ++ctr) {
    Bytes block = nonce;
    for (int i = 3; i >= 0; --i) {
      block.push_back(static_cast<std::uint8_t>(ctr >> (8 * i)));
    }
    aes.encrypt_block_portable(block.data());
    common::append(stream, block);
  }
  stream.resize(len);
  return stream;
}

Bytes xor_bytes(Bytes a, const Bytes& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
  return a;
}

// Applies `ctr` to `plaintext` in pieces of the given lengths.
Bytes apply_in_pieces(AesCtr& ctr, const Bytes& plaintext,
                      std::initializer_list<std::size_t> lengths) {
  Bytes out;
  std::size_t at = 0;
  for (const std::size_t len : lengths) {
    Bytes part(plaintext.begin() + static_cast<std::ptrdiff_t>(at),
               plaintext.begin() + static_cast<std::ptrdiff_t>(at + len));
    ctr.apply(part);
    common::append(out, part);
    at += len;
  }
  EXPECT_EQ(at, plaintext.size());
  return out;
}

}  // namespace

// Sets the block counter of a fresh AesCtr, so a test can reach the wrap
// without 2^32 blocks of keystream.
struct AesCtrTestPeer {
  static void set_counter(AesCtr& ctr, std::uint32_t counter) {
    for (std::size_t i = 0; i < 4; ++i) {
      ctr.counter_block_[12 + i] =
          static_cast<std::uint8_t>(counter >> (8 * (3 - i)));
    }
  }
};

namespace {

// Whole blocks, a part-used block carried across calls and an empty call.
TEST(AesCtrPiecesTest, UnevenPiecesMatchThePortableKeystream) {
  Drbg rng(std::uint64_t{198});
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes plaintext = rng.bytes(4 * 16 + 5);
  const Bytes expected = xor_bytes(
      plaintext, portable_keystream(key, nonce, 0, plaintext.size()));

  Bytes whole = plaintext;
  AesCtr(key, nonce).apply(whole);
  EXPECT_EQ(whole, expected);

  AesCtr pieces(key, nonce);
  EXPECT_EQ(apply_in_pieces(pieces, plaintext, {3, 16, 29, 0, 21}), expected);
}

// The counter is the low 32 bits of the block and wraps to 0 without
// carrying into the nonce.
TEST(AesCtrWrapTest, CounterWrapsWithoutTouchingTheNonce) {
  Drbg rng(std::uint64_t{199});
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes plaintext = rng.bytes(4 * 16 + 5);
  const Bytes expected = xor_bytes(
      plaintext, portable_keystream(key, nonce, 0xfffffffeu, plaintext.size()));

  AesCtr ctr(key, nonce);
  AesCtrTestPeer::set_counter(ctr, 0xfffffffeu);
  EXPECT_EQ(apply_in_pieces(ctr, plaintext, {3, 16, 29, 0, 21}), expected);
}

}  // namespace
}  // namespace tpnr::crypto
