// DynMerkleTree: incremental maintenance vs full recomputation, O(log n)
// re-hash bounds, rank-based position binding, and batched proofs.
#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/drbg.h"
#include "crypto/merkle.h"
#include "dyn/dyn_merkle.h"

namespace tpnr::dyn {
namespace {

using common::Bytes;
using common::BytesView;

constexpr std::size_t kChunkSize = 48;

std::vector<Bytes> random_chunks(std::size_t count, crypto::Drbg& rng) {
  std::vector<Bytes> chunks;
  chunks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    chunks.push_back(rng.bytes(kChunkSize));
  }
  return chunks;
}

Bytes leaf(BytesView chunk) { return DynMerkleTree::hash_chunk(chunk); }

/// Re-hash budget for one mutation on an AVL tree of n leaves: the touched
/// root-to-leaf path plus a constant number of rotation refreshes per
/// level. Far below the 2n−1 a full rebuild costs.
std::uint64_t olog_budget(std::uint64_t n) {
  const auto log2n = static_cast<std::uint64_t>(std::bit_width(n));
  return 4 * (log2n + 2);
}

TEST(DynMerkleTest, BuildMatchesReferenceAndLegacyLeafConvention) {
  crypto::Drbg rng(std::uint64_t{11});
  const auto chunks = random_chunks(37, rng);
  const DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  EXPECT_EQ(tree.leaf_count(), 37u);
  EXPECT_EQ(tree.root(), tree.recompute_root_reference());
  // Leaves share crypto::MerkleTree's 0x00-tag convention, so chunk hashes
  // are interchangeable between the static and dynamic trees. A single-leaf
  // legacy tree's root IS its leaf hash, which exposes the convention.
  const crypto::MerkleTree legacy(chunks[0], kChunkSize);
  ASSERT_EQ(legacy.leaf_count(), 1u);
  EXPECT_EQ(tree.leaf_hash(0), legacy.root());
}

TEST(DynMerkleTest, UpdateOnlyHistoryStaysByteIdenticalToFreshBuild) {
  crypto::Drbg rng(std::uint64_t{22});
  auto chunks = random_chunks(64, rng);
  DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  for (int i = 0; i < 40; ++i) {
    const auto index = rng.uniform(chunks.size());
    chunks[index] = rng.bytes(kChunkSize);
    tree.update_leaf(index, leaf(chunks[index]));
  }
  const DynMerkleTree fresh = DynMerkleTree::build(chunk_views(chunks));
  EXPECT_EQ(tree.root(), fresh.root());  // byte-identical
}

TEST(DynMerkleTest, RandomizedMutationsMatchRecomputedReference) {
  crypto::Drbg rng(std::uint64_t{33});
  auto chunks = random_chunks(24, rng);
  DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t n = tree.leaf_count();
    const std::uint64_t op = rng.uniform(4);
    if (op == 0 && n > 0) {
      const auto index = rng.uniform(n);
      chunks[index] = rng.bytes(kChunkSize);
      tree.update_leaf(index, leaf(chunks[index]));
    } else if (op == 1) {
      const auto index = rng.uniform(n + 1);
      const Bytes chunk = rng.bytes(kChunkSize);
      chunks.insert(chunks.begin() + static_cast<std::ptrdiff_t>(index),
                    chunk);
      tree.insert_leaf(index, leaf(chunk));
    } else if (op == 2) {
      const Bytes chunk = rng.bytes(kChunkSize);
      chunks.push_back(chunk);
      tree.insert_leaf(n, leaf(chunk));
    } else if (n > 1) {
      const auto index = rng.uniform(n);
      chunks.erase(chunks.begin() + static_cast<std::ptrdiff_t>(index));
      tree.erase(index);
    }
    ASSERT_EQ(tree.leaf_count(), chunks.size());
    // Every cached node hash must equal a from-scratch recomputation of
    // the SAME structure (a stale hash anywhere breaks this).
    ASSERT_EQ(tree.root(), tree.recompute_root_reference()) << "step " << step;
  }
  // The maintained leaf order matches the mutated chunk vector.
  const std::vector<Bytes> leaves = tree.leaf_hashes();
  ASSERT_EQ(leaves.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(leaves[i], DynMerkleTree::hash_chunk(chunks[i]));
  }
}

TEST(DynMerkleTest, MutationsRehashOnlyLogarithmicallyManyNodes) {
  crypto::Drbg rng(std::uint64_t{44});
  auto chunks = random_chunks(1024, rng);
  DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  EXPECT_EQ(tree.hash_computations(), 2 * 1024u - 1);  // the build is O(n)

  const std::uint64_t budget = olog_budget(tree.leaf_count());
  for (int i = 0; i < 50; ++i) {
    tree.reset_hash_computations();
    const std::uint64_t n = tree.leaf_count();
    // A written chunk's leaf hash is hashed outside the tree; count it.
    std::uint64_t leaf_hashes = 1;
    switch (i % 4) {
      case 0:
        tree.update_leaf(rng.uniform(n), leaf(rng.bytes(kChunkSize)));
        break;
      case 1:
        tree.insert_leaf(rng.uniform(n + 1), leaf(rng.bytes(kChunkSize)));
        break;
      case 2:
        tree.insert_leaf(n, leaf(rng.bytes(kChunkSize)));
        break;
      default:
        tree.erase(rng.uniform(n));
        leaf_hashes = 0;
        break;
    }
    // The counter-assertion of the O(log n) claim: far under a rebuild.
    const std::uint64_t rehashed = tree.hash_computations() + leaf_hashes;
    ASSERT_LE(rehashed, budget) << "op " << i;
    ASSERT_LT(rehashed, tree.leaf_count());
  }
}

TEST(DynMerkleTest, BoundaryInsertEraseAndSingleton) {
  crypto::Drbg rng(std::uint64_t{55});
  // Build from a singleton, grow at both ends, shrink back to empty.
  const Bytes only = rng.bytes(kChunkSize);
  DynMerkleTree tree;
  tree.insert_leaf(0, leaf(only));  // insert into empty
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), DynMerkleTree::hash_chunk(only));

  std::vector<Bytes> chunks{only};
  const Bytes front = rng.bytes(kChunkSize);
  tree.insert_leaf(0, leaf(front));  // index 0
  chunks.insert(chunks.begin(), front);
  const Bytes back = rng.bytes(kChunkSize);
  tree.insert_leaf(tree.leaf_count(), leaf(back));  // index == count appends
  chunks.push_back(back);
  // Insert histories are shape-dependent, so compare against a recomputation
  // of THIS structure and check the leaf order, not a fresh canonical build.
  EXPECT_EQ(tree.root(), tree.recompute_root_reference());
  const std::vector<Bytes> leaves = tree.leaf_hashes();
  ASSERT_EQ(leaves.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(leaves[i], DynMerkleTree::hash_chunk(chunks[i]));
  }

  tree.erase(0);  // first
  tree.erase(tree.leaf_count() - 1);  // last
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), DynMerkleTree::hash_chunk(only));
  tree.erase(0);  // the singleton — back to the canonical empty root
  EXPECT_EQ(tree.leaf_count(), 0u);
  EXPECT_EQ(tree.root(), DynMerkleTree::empty_root());

  EXPECT_THROW(tree.erase(0), std::out_of_range);
  EXPECT_THROW(tree.update_leaf(0, leaf(only)), std::out_of_range);
  EXPECT_THROW(tree.insert_leaf(1, leaf(only)), std::out_of_range);
}

// Offsets of the u64 rank fields in a DynBatchProof's pruned-tree
// encoding: (0 hash rank) a pruned subtree, (1 hash) a challenged leaf,
// (2 left right) an expanded interior node; hash is u32-length-prefixed.
void rank_offsets(const Bytes& nodes, std::size_t& pos,
                  std::vector<std::size_t>& out) {
  const std::uint8_t kind = nodes.at(pos++);
  if (kind == 2) {
    rank_offsets(nodes, pos, out);
    rank_offsets(nodes, pos, out);
    return;
  }
  const std::size_t hash_len = nodes.at(pos) | (nodes.at(pos + 1) << 8) |
                               (nodes.at(pos + 2) << 16) |
                               (std::size_t{nodes.at(pos + 3)} << 24);
  pos += 4 + hash_len;
  if (kind == 0) {
    out.push_back(pos);
    pos += 8;
  }
}

TEST(DynMerkleTest, ProofsBindPosition) {
  crypto::Drbg rng(std::uint64_t{66});
  // Two IDENTICAL chunks at different indices: the rank annotations must
  // keep their proofs from being interchangeable.
  std::vector<Bytes> chunks = random_chunks(16, rng);
  chunks[3] = chunks[11];
  const DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));

  // The verifier recomputes the index from the ranks: the proof for 3
  // recovers 3, never 11, although both leaves hash the same.
  const std::vector<std::uint64_t> three{3};
  const DynBatchProof proof = tree.prove_batch(three);
  std::vector<VerifiedLeaf> leaves;
  ASSERT_TRUE(DynMerkleTree::verify_batch(
      DynBatchProof::decode(proof.encode()), tree.root(), leaves));
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0].index, 3u);
  EXPECT_EQ(leaves[0].leaf_hash, DynMerkleTree::hash_chunk(chunks[11]));

  const std::vector<std::uint64_t> eleven{11};
  const DynBatchProof other = tree.prove_batch(eleven);
  EXPECT_NE(other.nodes, proof.nodes);
  ASSERT_TRUE(DynMerkleTree::verify_batch(other, tree.root(), leaves));
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0].index, 11u);

  // Every rank annotation is bound: flipping a bit of any sibling's rank
  // (which would shift the recovered position) fails verification.
  std::vector<std::size_t> ranks;
  std::size_t pos = 0;
  rank_offsets(proof.nodes, pos, ranks);
  ASSERT_EQ(pos, proof.nodes.size());
  ASSERT_EQ(ranks.size(), 4u);  // one sibling per level of a 16-leaf tree
  for (const std::size_t offset : ranks) {
    DynBatchProof bad = proof;
    bad.nodes[offset] ^= 0x01;
    EXPECT_FALSE(DynMerkleTree::verify_batch(bad, tree.root(), leaves))
        << offset;
  }
}

TEST(DynMerkleTest, BatchProofRoundTripsAndDetectsTampering) {
  crypto::Drbg rng(std::uint64_t{77});
  const auto chunks = random_chunks(128, rng);
  const DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  const std::vector<std::uint64_t> indices{0, 1, 17, 63, 64, 100, 127};

  const DynBatchProof proof = tree.prove_batch(indices);
  std::vector<VerifiedLeaf> leaves;
  ASSERT_TRUE(DynMerkleTree::verify_batch(
      DynBatchProof::decode(proof.encode()), tree.root(), leaves));
  ASSERT_EQ(leaves.size(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(leaves[i].index, indices[i]);
    EXPECT_EQ(leaves[i].leaf_hash, tree.leaf_hash(indices[i]));
  }

  // Shared-prefix pruning: the batch must undercut one single-index batch
  // per challenged leaf.
  std::size_t individual = 0;
  for (const std::uint64_t index : indices) {
    individual +=
        tree.prove_batch(std::span(&index, 1)).encoded_size();
  }
  EXPECT_LT(proof.encoded_size(), individual);

  // Any flipped byte in the pruned encoding fails verification.
  DynBatchProof bad = proof;
  bad.nodes[bad.nodes.size() / 2] ^= 0x01;
  EXPECT_FALSE(DynMerkleTree::verify_batch(bad, tree.root(), leaves));
  EXPECT_FALSE(DynMerkleTree::verify_batch(proof, chunks[0], leaves));
}

TEST(DynMerkleTest, CopyIsIndependentOfLaterMutations) {
  crypto::Drbg rng(std::uint64_t{88});
  const auto chunks = random_chunks(33, rng);
  DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  const Bytes root = tree.root();
  const std::uint64_t hashed = tree.hash_computations();

  // Mutating a copy leaves the original's shape, hashes and count alone.
  DynMerkleTree copy = tree;
  EXPECT_EQ(copy.hash_computations(), hashed);  // copying hashes nothing
  copy.erase(5);
  copy.update_leaf(0, leaf(rng.bytes(kChunkSize)));
  copy.insert_leaf(17, leaf(rng.bytes(kChunkSize)));
  EXPECT_EQ(tree.root(), root);
  EXPECT_EQ(tree.recompute_root_reference(), root);
  EXPECT_EQ(tree.leaf_count(), 33u);
  EXPECT_EQ(tree.hash_computations(), hashed);
  EXPECT_EQ(copy.root(), copy.recompute_root_reference());
  EXPECT_NE(copy.root(), root);

  // And the other way round: the copy keeps the pre-mutation tree.
  const DynMerkleTree snapshot = copy;
  const Bytes copy_root = copy.root();
  copy.update_leaf(3, leaf(rng.bytes(kChunkSize)));
  copy.erase(0);
  EXPECT_EQ(snapshot.root(), copy_root);
  EXPECT_EQ(snapshot.recompute_root_reference(), copy_root);
  EXPECT_EQ(snapshot.leaf_count(), 33u);
  EXPECT_EQ(copy.root(), copy.recompute_root_reference());
  EXPECT_EQ(copy.leaf_count(), 32u);
}

TEST(DynMerkleTest, SplitChunksStridesWithShortTail) {
  Bytes data(10 * kChunkSize + 7);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<Bytes> chunks = split_chunks(data, kChunkSize);
  ASSERT_EQ(chunks.size(), 11u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].size(), kChunkSize);
  }
  EXPECT_EQ(chunks.back().size(), 7u);
  EXPECT_TRUE(split_chunks(BytesView{}, kChunkSize).empty());
  EXPECT_THROW(split_chunks(data, 0), common::Error);
}

}  // namespace
}  // namespace tpnr::dyn
