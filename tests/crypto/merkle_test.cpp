#include "crypto/merkle.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/drbg.h"

namespace tpnr::crypto {
namespace {

Bytes make_data(std::size_t n, std::uint64_t seed) {
  Drbg rng(seed);
  return rng.bytes(n);
}

TEST(MerkleTest, RootIsDeterministic) {
  const Bytes data = make_data(10000, 1);
  MerkleTree a(data, 256);
  MerkleTree b(data, 256);
  EXPECT_EQ(a.root(), b.root());
}

TEST(MerkleTest, RootChangesWithData) {
  Bytes data = make_data(10000, 1);
  MerkleTree before(data, 256);
  data[5000] ^= 1;
  MerkleTree after(data, 256);
  EXPECT_NE(before.root(), after.root());
}

TEST(MerkleTest, RootChangesWithChunkSize) {
  const Bytes data = make_data(4096, 2);
  EXPECT_NE(MerkleTree(data, 256).root(), MerkleTree(data, 512).root());
}

TEST(MerkleTest, ParallelMatchesSerial) {
  const Bytes data = make_data(1 << 18, 3);
  MerkleTree serial(data, 1024, HashKind::kSha256, /*threads=*/1);
  MerkleTree parallel(data, 1024, HashKind::kSha256, /*threads=*/8);
  EXPECT_EQ(serial.root(), parallel.root());
}

TEST(MerkleTest, LeafCountsRoundUp) {
  EXPECT_EQ(MerkleTree(make_data(1000, 4), 256).leaf_count(), 4u);
  EXPECT_EQ(MerkleTree(make_data(1024, 4), 256).leaf_count(), 4u);
  EXPECT_EQ(MerkleTree(make_data(1025, 4), 256).leaf_count(), 5u);
  EXPECT_EQ(MerkleTree(make_data(1, 4), 256).leaf_count(), 1u);
  EXPECT_EQ(MerkleTree(Bytes{}, 256).leaf_count(), 1u);
}

TEST(MerkleTest, ProofsVerifyForEveryLeaf) {
  const Bytes data = make_data(2500, 5);  // 10 chunks of 256 (last partial)
  MerkleTree tree(data, 256);
  for (std::size_t i = 0; i < tree.leaf_count(); ++i) {
    const std::size_t offset = i * 256;
    const std::size_t len = std::min<std::size_t>(256, data.size() - offset);
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(BytesView(data).subspan(offset, len), proof,
                                   tree.root()))
        << "leaf " << i;
  }
}

TEST(MerkleTest, TamperedChunkFailsVerification) {
  const Bytes data = make_data(2048, 6);
  MerkleTree tree(data, 256);
  Bytes chunk(data.begin(), data.begin() + 256);
  const MerkleProof proof = tree.prove(0);
  chunk[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify(chunk, proof, tree.root()));
}

TEST(MerkleTest, ProofForWrongIndexFails) {
  const Bytes data = make_data(2048, 7);
  MerkleTree tree(data, 256);
  const Bytes chunk0(data.begin(), data.begin() + 256);
  MerkleProof proof = tree.prove(1);
  EXPECT_FALSE(MerkleTree::verify(chunk0, proof, tree.root()));
}

TEST(MerkleTest, WrongRootFails) {
  const Bytes data = make_data(2048, 8);
  MerkleTree tree(data, 256);
  const Bytes chunk0(data.begin(), data.begin() + 256);
  Bytes bad_root = tree.root();
  bad_root[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify(chunk0, tree.prove(0), bad_root));
}

TEST(MerkleTest, ProveOutOfRangeThrows) {
  MerkleTree tree(make_data(1000, 9), 256);
  EXPECT_THROW(tree.prove(tree.leaf_count()), std::out_of_range);
}

TEST(MerkleTest, ZeroChunkSizeRejected) {
  EXPECT_THROW(MerkleTree(make_data(10, 10), 0), common::CryptoError);
}

TEST(MerkleTest, SingleChunkTree) {
  const Bytes data = make_data(100, 11);
  MerkleTree tree(data, 256);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_TRUE(MerkleTree::verify(data, tree.prove(0), tree.root()));
}

// Domain separation: an interior node value must not verify as a leaf.
TEST(MerkleTest, LeafAndNodeHashesAreDomainSeparated) {
  const Bytes data = make_data(512, 12);  // exactly 2 chunks
  MerkleTree tree(data, 256);
  // The root preimage (left||right leaf hashes) must not itself be a valid
  // single-leaf tree with the same root.
  MerkleTree fake(tree.root(), tree.root().size());
  EXPECT_NE(fake.root(), tree.root());
}

TEST(MerkleTest, OddLeafCountDuplicationIsSound) {
  // 3 chunks: leaf 2 pairs with itself at level 0.
  const Bytes data = make_data(3 * 128, 13);
  MerkleTree tree(data, 128);
  ASSERT_EQ(tree.leaf_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(BytesView(data).subspan(i * 128, 128),
                                   proof, tree.root()));
  }
}

TEST(MerkleTest, DifferentHashKindsSupported) {
  const Bytes data = make_data(1024, 14);
  MerkleTree md5_tree(data, 256, HashKind::kMd5);
  MerkleTree sha_tree(data, 256, HashKind::kSha256);
  EXPECT_EQ(md5_tree.root().size(), 16u);
  EXPECT_EQ(sha_tree.root().size(), 32u);
  EXPECT_TRUE(MerkleTree::verify(BytesView(data).subspan(0, 256),
                                 md5_tree.prove(0), md5_tree.root(),
                                 HashKind::kMd5));
}

TEST(MerkleTest, VerifyFromLeafMatchesVerify) {
  const Bytes data = make_data(9 * 200, 15);
  MerkleTree tree(data, 200);
  for (std::size_t i = 0; i < tree.leaf_count(); ++i) {
    const BytesView chunk = BytesView(data).subspan(
        i * 200, std::min<std::size_t>(200, data.size() - i * 200));
    Bytes leaf;
    leaf.push_back(0x00);
    leaf.insert(leaf.end(), chunk.begin(), chunk.end());
    const Bytes leaf_digest = sha256(leaf);
    EXPECT_TRUE(MerkleTree::verify_from_leaf(leaf_digest, tree.prove(i),
                                             tree.root()));
    Bytes wrong = leaf_digest;
    wrong[0] ^= 1;
    EXPECT_FALSE(
        MerkleTree::verify_from_leaf(wrong, tree.prove(i), tree.root()));
  }
}

}  // namespace
}  // namespace tpnr::crypto
