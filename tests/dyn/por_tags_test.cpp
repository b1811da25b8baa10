// PoR tags and aggregated audit proofs: field arithmetic, the σ/μ algebra,
// dynamic-friendliness of leaf-hash-keyed tags, and the compactness claim.
#include <vector>

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "dyn/dyn_merkle.h"
#include "dyn/por_tags.h"

namespace tpnr::dyn {
namespace {

using common::Bytes;

constexpr std::size_t kChunkSize = 96;
constexpr std::size_t kChunks = 80;

struct Fixture {
  std::vector<Bytes> chunks;
  DynMerkleTree tree;
  TagKey key;
  std::vector<std::uint64_t> tags;

  explicit Fixture(std::uint64_t seed) {
    crypto::Drbg rng(seed);
    for (std::size_t i = 0; i < kChunks; ++i) {
      chunks.push_back(rng.bytes(kChunkSize));
    }
    tree = DynMerkleTree::build(chunk_views(chunks));
    key = TagKey::derive(rng.bytes(32), "por-object");
    tags = make_tags(key, chunk_views(chunks), kChunkSize);
  }
};

TEST(PorTagsTest, FieldArithmetic) {
  EXPECT_EQ(fp::reduce(fp::kP), 0u);
  EXPECT_EQ(fp::reduce(fp::kP + 5), 5u);
  EXPECT_EQ(fp::add(fp::kP - 1, 1), 0u);
  // 2^61 ≡ 1 (mod 2^61 − 1): multiplying 2^60 by 2 folds to exactly 1.
  EXPECT_EQ(fp::mul(std::uint64_t{1} << 60, 2), 1u);
  EXPECT_EQ(fp::mul(fp::kP - 1, fp::kP - 1), 1u);  // (−1)² = 1
  EXPECT_EQ(fp::mul(0, fp::kP - 1), 0u);
}

TEST(PorTagsTest, SectorsCoverChunkWithZeroPadding) {
  EXPECT_EQ(sectors_per_chunk(kChunkSize), (kChunkSize + 6) / 7);
  const Bytes chunk{1, 2, 3};
  const auto sectors = chunk_sectors(chunk, 2);
  ASSERT_EQ(sectors.size(), 2u);
  EXPECT_EQ(sectors[0], 1u | (2u << 8) | (3u << 16));
  EXPECT_EQ(sectors[1], 0u);  // past the end reads as zero
}

TEST(PorTagsTest, HonestAggregatedResponseVerifies) {
  Fixture f(std::uint64_t{101});
  const AggChallenge challenge{/*seed=*/999, /*count=*/32};
  const AggResponse response =
      make_agg_response(challenge, f.tree, chunk_views(f.chunks), f.tags,
                        kChunkSize, /*version=*/1);
  EXPECT_EQ(response.mu.size(), sectors_per_chunk(kChunkSize));
  EXPECT_TRUE(verify_agg_response(challenge, response, f.key, kChunks,
                                  kChunkSize, f.tree.root()));
  // Wire round-trip verifies identically.
  const AggResponse decoded = AggResponse::decode(response.encode());
  EXPECT_TRUE(verify_agg_response(challenge, decoded, f.key, kChunks,
                                  kChunkSize, f.tree.root()));
}

TEST(PorTagsTest, ChallengeDerivationIsDeterministicAndDistinct) {
  const AggChallenge challenge{/*seed=*/4242, /*count=*/48};
  const auto a = challenge.derive(kChunks);
  const auto b = challenge.derive(kChunks);
  ASSERT_EQ(a.size(), 48u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].nu, b[i].nu);
    EXPECT_GE(a[i].nu, 1u);
    EXPECT_LT(a[i].nu, fp::kP);
    if (i > 0) {
      EXPECT_LT(a[i - 1].index, a[i].index);  // sorted, distinct
    }
  }
  // Count clamps to the leaf count.
  const AggChallenge oversized{/*seed=*/7, /*count=*/500};
  EXPECT_EQ(oversized.derive(kChunks).size(), kChunks);
}

TEST(PorTagsTest, TamperedChunkCannotSatisfyTheChallenge) {
  Fixture f(std::uint64_t{202});
  const AggChallenge challenge{/*seed=*/5, /*count=*/kChunks};  // hit all
  // The provider's bytes diverge, but it keeps the original tags (it
  // cannot re-tag without the secret).
  auto tampered = f.chunks;
  tampered[13][0] ^= 0xFF;
  const DynMerkleTree tampered_tree =
      DynMerkleTree::build(chunk_views(tampered));
  const AggResponse response =
      make_agg_response(challenge, tampered_tree, chunk_views(tampered),
                        f.tags, kChunkSize, 1);
  // Lying consistently (proof over its own tree) still fails: the σ/μ
  // algebra is checked under the auditor's secret against the SIGNED root.
  EXPECT_FALSE(verify_agg_response(challenge, response, f.key, kChunks,
                                   kChunkSize, f.tree.root()));
}

TEST(PorTagsTest, ForgedAggregatesAreRejected) {
  Fixture f(std::uint64_t{303});
  const AggChallenge challenge{/*seed=*/77, /*count=*/16};
  const AggResponse honest =
      make_agg_response(challenge, f.tree, chunk_views(f.chunks), f.tags,
                        kChunkSize, 1);

  AggResponse bad = honest;
  bad.sigma = fp::add(bad.sigma, 1);
  EXPECT_FALSE(verify_agg_response(challenge, bad, f.key, kChunks,
                                   kChunkSize, f.tree.root()));
  bad = honest;
  bad.mu[0] = fp::add(bad.mu[0], 1);
  EXPECT_FALSE(verify_agg_response(challenge, bad, f.key, kChunks,
                                   kChunkSize, f.tree.root()));
  bad = honest;
  bad.mu.pop_back();
  EXPECT_FALSE(verify_agg_response(challenge, bad, f.key, kChunks,
                                   kChunkSize, f.tree.root()));
  bad = honest;
  bad.sigma = fp::kP;  // out of canonical range
  EXPECT_FALSE(verify_agg_response(challenge, bad, f.key, kChunks,
                                   kChunkSize, f.tree.root()));
  // A response to a DIFFERENT challenge covers the wrong index set.
  const AggChallenge other{/*seed=*/78, /*count=*/16};
  EXPECT_FALSE(verify_agg_response(other, honest, f.key, kChunks, kChunkSize,
                                   f.tree.root()));
  // Wrong secret: another object's key cannot cross-satisfy.
  const TagKey other_key = TagKey::derive(Bytes(32, 0x42), "other-object");
  EXPECT_FALSE(verify_agg_response(challenge, honest, other_key, kChunks,
                                   kChunkSize, f.tree.root()));
}

TEST(PorTagsTest, UntouchedTagsSurviveInsertAndErase) {
  Fixture f(std::uint64_t{404});
  // Insert a chunk in the middle: every untouched chunk's tag must remain
  // valid verbatim (the PRF keys on leaf hash, not index).
  crypto::Drbg rng(std::uint64_t{405});
  const Bytes fresh = rng.bytes(kChunkSize);
  auto chunks = f.chunks;
  chunks.insert(chunks.begin() + 40, fresh);
  auto tags = f.tags;
  const Bytes fresh_leaf = DynMerkleTree::hash_chunk(fresh);
  tags.insert(tags.begin() + 40,
              make_tag(f.key, fresh, fresh_leaf,
                       f.key.alphas(sectors_per_chunk(kChunkSize))));

  const auto recomputed = make_tags(f.key, chunk_views(chunks), kChunkSize);
  EXPECT_EQ(tags, recomputed);  // only the new position differs from f.tags

  DynMerkleTree tree = DynMerkleTree::build(chunk_views(f.chunks));
  tree.insert(40, fresh);
  const AggChallenge challenge{/*seed=*/606, /*count=*/40};
  const AggResponse response = make_agg_response(
      challenge, tree, chunk_views(chunks), tags, kChunkSize, 2);
  EXPECT_TRUE(verify_agg_response(challenge, response, f.key, kChunks + 1,
                                  kChunkSize, tree.root()));
}

TEST(PorTagsTest, AggregatedResponseIsCompact) {
  // The response is one (σ, μ) pair plus one batched Merkle proof — its
  // size depends on the sector count and tree, NOT on how many challenged
  // chunk bytes it vouches for. At realistic chunk sizes that is a large
  // constant factor under serving the 64 challenged chunks raw.
  constexpr std::size_t kBigChunk = 1024;
  crypto::Drbg rng(std::uint64_t{505});
  std::vector<Bytes> chunks;
  for (std::size_t i = 0; i < kChunks; ++i) {
    chunks.push_back(rng.bytes(kBigChunk));
  }
  const DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  const TagKey key = TagKey::derive(rng.bytes(32), "por-object");
  const auto tags = make_tags(key, chunk_views(chunks), kBigChunk);

  const AggChallenge challenge{/*seed=*/1, /*count=*/64};
  const AggResponse response =
      make_agg_response(challenge, tree, chunk_views(chunks), tags,
                        kBigChunk, 1);
  EXPECT_TRUE(verify_agg_response(challenge, response, key, kChunks,
                                  kBigChunk, tree.root()));
  EXPECT_LT(response.encoded_size(), 64 * kBigChunk / 10);
}

}  // namespace
}  // namespace tpnr::dyn
