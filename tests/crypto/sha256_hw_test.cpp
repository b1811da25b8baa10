// The SHA-NI compression kernel against the portable one, and every path
// that reaches the dispatching kernel (update, finish, SHA-224, midstates,
// HMAC) against digests computed on the portable kernel alone. The kernel
// tests skip on CPUs without the SHA extensions, where sha256_compress is
// the portable kernel itself; the rest hold everywhere.
#include <array>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;
using common::BytesView;
using State = std::array<std::uint32_t, 8>;

constexpr State kSha256Iv = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                             0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                             0x1f83d9abu, 0x5be0cd19u};
constexpr State kSha224Iv = {0xc1059ed8u, 0x367cd507u, 0x3070dd17u,
                             0xf70e5939u, 0xffc00b31u, 0x68581511u,
                             0x64f98fa7u, 0xbefa4fa4u};

/// msg || 0x80 || zeros || be64 bit length, a whole number of blocks.
Bytes padded(BytesView msg) {
  Bytes out(msg.begin(), msg.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  return out;
}

Bytes state_bytes(const State& state, std::size_t words) {
  Bytes out;
  for (std::size_t i = 0; i < words; ++i) {
    for (int b = 3; b >= 0; --b) {
      out.push_back(static_cast<std::uint8_t>(state[i] >> (8 * b)));
    }
  }
  return out;
}

/// The digest computed on the portable kernel alone.
Bytes portable_digest(const State& iv, BytesView msg, std::size_t words = 8) {
  State state = iv;
  const Bytes blocks = padded(msg);
  sha256_compress_portable(state.data(), blocks.data(), blocks.size() / 64);
  return state_bytes(state, words);
}

Bytes portable_hmac(BytesView key, BytesView msg) {
  Bytes k(key.begin(), key.end());
  if (k.size() > 64) k = portable_digest(kSha256Iv, k);
  k.resize(64, 0);
  Bytes inner(64), outer(64);
  for (std::size_t i = 0; i < 64; ++i) {
    inner[i] = k[i] ^ 0x36;
    outer[i] = k[i] ^ 0x5c;
  }
  common::append(inner, msg);
  common::append(outer, portable_digest(kSha256Iv, inner));
  return portable_digest(kSha256Iv, outer);
}

class ShaNiKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sha256_shani_supported()) GTEST_SKIP() << "CPU lacks SHA-NI";
  }
};

TEST_F(ShaNiKernelTest, MatchesPortableForEveryLengthUpTo300) {
  Drbg rng(std::uint64_t{251});
  const Bytes data = rng.bytes(300);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes blocks = padded(BytesView(data).first(len));
    State hw = kSha256Iv;
    State sw = kSha256Iv;
    sha256_compress(hw.data(), blocks.data(), blocks.size() / 64);
    sha256_compress_portable(sw.data(), blocks.data(), blocks.size() / 64);
    EXPECT_EQ(hw, sw) << "len=" << len;
  }
}

TEST_F(ShaNiKernelTest, MultiBlockRunsMatchPortable) {
  Drbg rng(std::uint64_t{252});
  for (const std::size_t n : {1u, 2u, 17u}) {
    const Bytes blocks = rng.bytes(64 * n);
    const Bytes seed = rng.bytes(32);
    State start{};
    for (std::size_t i = 0; i < 8; ++i) {
      start[i] = static_cast<std::uint32_t>(seed[4 * i]) << 24 |
                 static_cast<std::uint32_t>(seed[4 * i + 1]) << 16 |
                 static_cast<std::uint32_t>(seed[4 * i + 2]) << 8 |
                 seed[4 * i + 3];
    }
    State hw = start;
    State sw = start;
    sha256_compress(hw.data(), blocks.data(), n);
    sha256_compress_portable(sw.data(), blocks.data(), n);
    EXPECT_EQ(hw, sw) << "blocks=" << n;

    State one_by_one = start;
    for (std::size_t i = 0; i < n; ++i) {
      sha256_compress(one_by_one.data(), blocks.data() + 64 * i, 1);
    }
    EXPECT_EQ(one_by_one, sw) << "blocks=" << n;
  }
}

// The tests below run the dispatching kernel: SHA-NI where the CPU has it.

TEST(Sha256DispatchTest, DigestsMatchPortableForEveryLengthUpTo300) {
  Drbg rng(std::uint64_t{253});
  const Bytes data = rng.bytes(300);
  for (std::size_t len = 0; len <= 300; ++len) {
    const BytesView msg = BytesView(data).first(len);
    EXPECT_EQ(sha256(msg), portable_digest(kSha256Iv, msg)) << "len=" << len;
    Sha224 h224;
    h224.update(msg);
    EXPECT_EQ(h224.finish(), portable_digest(kSha224Iv, msg, 7))
        << "len=" << len;
  }
}

TEST(Sha256DispatchTest, UpdateSplitAtEveryOffset) {
  Drbg rng(std::uint64_t{254});
  const Bytes msg = rng.bytes(200);
  const Bytes expected = portable_digest(kSha256Iv, msg);
  Sha256 h;
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    h.update(BytesView(msg).first(cut));
    h.update(BytesView(msg).subspan(cut));
    EXPECT_EQ(h.finish(), expected) << "cut=" << cut;
  }
}

TEST(Sha256DispatchTest, MidstateAndRestoreMatchPortable) {
  Drbg rng(std::uint64_t{255});
  const Bytes msg = rng.bytes(64 * 3 + 21);
  Sha256 h;
  h.update(BytesView(msg).first(128));
  const Sha256Midstate mid = h.midstate();
  State two_blocks = kSha256Iv;
  sha256_compress_portable(two_blocks.data(), msg.data(), 2);
  EXPECT_EQ(mid.state, two_blocks);
  EXPECT_EQ(mid.total_bytes, 128u);

  Sha256 resumed;
  resumed.update(common::to_bytes("discarded by restore"));
  resumed.restore(mid);
  resumed.update(BytesView(msg).subspan(128));
  EXPECT_EQ(resumed.finish(), portable_digest(kSha256Iv, msg));
}

TEST(Sha256DispatchTest, HmacPathsMatchPortableHmac) {
  Drbg rng(std::uint64_t{256});
  for (const std::size_t key_len : {0u, 32u, 64u, 65u, 131u}) {
    const Bytes key = rng.bytes(key_len);
    const HmacKeyState state(HashKind::kSha256, key);
    for (const std::size_t msg_len : {0u, 55u, 56u, 64u, 300u}) {
      const Bytes msg = rng.bytes(msg_len);
      const Bytes expected = portable_hmac(key, msg);
      EXPECT_EQ(state.mac(msg), expected)
          << "key_len=" << key_len << " msg_len=" << msg_len;
      EXPECT_EQ(hmac_sha256(key, msg), expected)
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

}  // namespace
}  // namespace tpnr::crypto
