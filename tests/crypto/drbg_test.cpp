#include "crypto/drbg.h"

#include <gtest/gtest.h>

#include <map>

#include "common/error.h"

namespace tpnr::crypto {
namespace {

TEST(DrbgTest, DeterministicForSameSeed) {
  Drbg a(std::uint64_t{1234}), b(std::uint64_t{1234});
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  Drbg a(std::uint64_t{1}), b(std::uint64_t{2});
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(DrbgTest, ForwardSecureRekeyChangesStream) {
  Drbg rng(std::uint64_t{7});
  const Bytes first = rng.bytes(32);
  const Bytes second = rng.bytes(32);
  EXPECT_NE(first, second);
}

TEST(DrbgTest, SeedIsHashedNotTruncated) {
  // Seeds differing only beyond 32 bytes must still produce different
  // streams because the seed is hashed, not copied.
  Bytes seed1(40, 0xaa);
  Bytes seed2 = seed1;
  seed2[39] = 0xbb;
  Drbg a{common::BytesView(seed1)}, b{common::BytesView(seed2)};
  EXPECT_NE(a.bytes(16), b.bytes(16));
}

TEST(DrbgTest, UniformStaysBelowBound) {
  Drbg rng(std::uint64_t{99});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(DrbgTest, UniformRejectsZeroBound) {
  Drbg rng(std::uint64_t{1});
  EXPECT_THROW(rng.uniform(0), common::CryptoError);
}

TEST(DrbgTest, UniformCoversFullRange) {
  Drbg rng(std::uint64_t{5});
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[rng.uniform(8)];
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 300) << "value " << value << " badly underrepresented";
  }
}

TEST(DrbgTest, DoubleInUnitInterval) {
  Drbg rng(std::uint64_t{13});
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DrbgTest, ChanceEdgeCases) {
  Drbg rng(std::uint64_t{21});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(DrbgTest, ChanceApproximatesProbability) {
  Drbg rng(std::uint64_t{31});
  int hits = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.03);
}

TEST(DrbgTest, ByteDistributionIsRoughlyUniform) {
  Drbg rng(std::uint64_t{77});
  const Bytes sample = rng.bytes(65536);
  std::array<int, 256> histogram{};
  for (std::uint8_t b : sample) ++histogram[b];
  for (int count : histogram) {
    // Expected 256 per bucket; allow generous slack.
    EXPECT_GT(count, 128);
    EXPECT_LT(count, 512);
  }
}

}  // namespace
}  // namespace tpnr::crypto
