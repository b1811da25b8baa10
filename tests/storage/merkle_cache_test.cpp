// MerkleCache: buffer-identity validation means a cached tree is served
// only for the exact bytes it was built over — tamper and fault injection
// both detach the payload buffer, so they can never be masked by cached
// service.
#include <gtest/gtest.h>

#include "common/payload.h"
#include "crypto/counters.h"
#include "storage/merkle_cache.h"
#include "storage/object_store.h"

namespace tpnr::storage {
namespace {

using common::Bytes;
using common::Payload;

constexpr std::size_t kChunk = 64;

Bytes test_bytes(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return data;
}

TEST(MerkleCacheTest, RepeatLookupServesSameTreeAndCountsAvoidedRebuilds) {
  crypto::counters().reset();
  MerkleCache cache;
  const Payload data(test_bytes(10 * kChunk));
  const auto first = cache.get_or_build("obj", data, kChunk);
  const auto second = cache.get_or_build("obj", data, kChunk);
  EXPECT_EQ(first.get(), second.get());  // the same tree object
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  const auto snap = crypto::counters().snapshot();
  EXPECT_EQ(snap.tree_builds, 1u);
  EXPECT_EQ(snap.tree_rebuilds_avoided, 1u);

  // A Payload share of the same buffer also hits; an equal-bytes copy in a
  // different buffer does NOT (identity, not content, is the contract).
  const Payload share = data;
  EXPECT_EQ(cache.get_or_build("obj", share, kChunk).get(), first.get());
  const Payload copy = Payload::copy_of(data);
  EXPECT_NE(cache.get_or_build("obj", copy, kChunk).get(), first.get());
}

TEST(MerkleCacheTest, ChunkSizeChangeMisses) {
  MerkleCache cache;
  const Payload data(test_bytes(8 * kChunk));
  const auto a = cache.get_or_build("obj", data, kChunk);
  const auto b = cache.get_or_build("obj", data, 2 * kChunk);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a->root(), b->root());
}

TEST(MerkleCacheTest, MutationDetachesBufferAndForcesRebuild) {
  MerkleCache cache;
  Payload data(test_bytes(6 * kChunk));
  const auto before = cache.get_or_build("obj", data, kChunk);
  // COW mutation: the cache's held share keeps the old buffer alive, so the
  // write lands in a fresh buffer and the next lookup cannot hit.
  data.mutate()[3] ^= 0xff;
  const auto after = cache.get_or_build("obj", data, kChunk);
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(before->root(), after->root());
}

TEST(MerkleCacheTest, AdminTamperInObjectStoreIsNeverMasked) {
  ObjectStore store;
  MerkleCache cache;
  const Bytes original = test_bytes(12 * kChunk);
  store.put("key", Payload::copy_of(original), Bytes(), 0);

  const auto r1 = store.get("key");
  ASSERT_TRUE(r1);
  const auto clean_tree = cache.get_or_build("key", r1->data, kChunk);
  // Steady state: repeated reads serve the cached tree.
  const auto r2 = store.get("key");
  ASSERT_TRUE(r2);
  EXPECT_EQ(cache.get_or_build("key", r2->data, kChunk).get(),
            clean_tree.get());

  // kAdminTamper: Eve rewrites the bytes without touching version/md5.
  Bytes tampered = original;
  tampered[5 * kChunk + 1] ^= 0x01;
  ASSERT_TRUE(store.tamper("key", tampered));

  const auto r3 = store.get("key");
  ASSERT_TRUE(r3);
  const auto tampered_tree = cache.get_or_build("key", r3->data, kChunk);
  EXPECT_NE(tampered_tree.get(), clean_tree.get())
      << "cached tree served for tampered bytes";
  EXPECT_NE(tampered_tree->root(), clean_tree->root());
}

TEST(MerkleCacheTest, VersionKeyingRejectsRecycledBuffers) {
  MerkleCache cache;
  const Payload data(test_bytes(6 * kChunk));
  const auto v1 = cache.get_or_build("obj", data, kChunk, /*version=*/1);
  // Same buffer, same chunking — but the object moved on: a tree primed at
  // version 1 must not answer for version 2 even when a buffer is recycled.
  const auto v2 = cache.get_or_build("obj", data, kChunk, /*version=*/2);
  EXPECT_NE(v1.get(), v2.get());
  EXPECT_EQ(cache.misses(), 2u);
  // The entry was replaced at version 2; the current version now hits.
  EXPECT_EQ(cache.get_or_build("obj", data, kChunk, 2).get(), v2.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(MerkleCacheTest, StoreMutationIsNeverMaskedByTheCache) {
  ObjectStore store;
  MerkleCache cache;
  Bytes content = test_bytes(8 * kChunk);
  store.put("key", Payload::copy_of(content), Bytes(), 0);

  const auto r1 = store.get("key");
  ASSERT_TRUE(r1);
  const auto before =
      cache.get_or_build("key", r1->data, kChunk, r1->version);

  // A chunk-level mutation commits a new version through the store.
  Bytes mutated = content;
  for (std::size_t i = 0; i < kChunk; ++i) mutated[2 * kChunk + i] ^= 0xA5;
  MutationInfo info;
  info.op = 2;  // dyn::MutateOp::kUpdate, as a raw byte
  info.chunk_index = 2;
  info.chunk_count = 8;
  ASSERT_EQ(store.mutate("key", Payload::copy_of(mutated), Bytes(), 1, info),
            2u);

  const auto r2 = store.get("key");
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->version, 2u);
  const auto after = cache.get_or_build("key", r2->data, kChunk, r2->version);
  EXPECT_NE(after.get(), before.get())
      << "cached tree served across a committed mutation";
  EXPECT_NE(after->root(), before->root());
  // And the stale (buffer, version) pair can no longer be replayed.
  EXPECT_NE(cache.get_or_build("key", r1->data, kChunk, r1->version).get(),
            after.get());
}

TEST(MerkleCacheTest, InvalidateDropsEntry) {
  MerkleCache cache;
  const Payload data(test_bytes(4 * kChunk));
  const auto a = cache.get_or_build("obj", data, kChunk);
  cache.invalidate("obj");
  EXPECT_EQ(cache.size(), 0u);
  const auto b = cache.get_or_build("obj", data, kChunk);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->root(), b->root());  // same bytes, same root, fresh tree
}

TEST(MerkleCacheTest, CapacityOverflowRestartsCold) {
  MerkleCache cache(2);
  const Payload a(test_bytes(2 * kChunk));
  const Payload b(test_bytes(3 * kChunk));
  const Payload c(test_bytes(4 * kChunk));
  (void)cache.get_or_build("a", a, kChunk);
  (void)cache.get_or_build("b", b, kChunk);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_build("c", c, kChunk);  // overflow: drop-all then insert
  EXPECT_EQ(cache.size(), 1u);
}

// A tree served from the cache is the tree a direct MerkleTree build over
// the same bytes produces: same root, same proof for every chunk.
TEST(MerkleCacheTest, CachedTreeMatchesDirectBuild) {
  MerkleCache cache;
  const Payload data(test_bytes(5 * kChunk + kChunk / 2));
  (void)cache.get_or_build("obj", data, kChunk);
  const auto cached = cache.get_or_build("obj", data, kChunk);
  ASSERT_EQ(cache.hits(), 1u);
  const crypto::MerkleTree direct(data, kChunk);
  EXPECT_EQ(cached->root(), direct.root());
  ASSERT_EQ(cached->leaf_count(), direct.leaf_count());
  for (std::size_t i = 0; i < direct.leaf_count(); ++i) {
    EXPECT_EQ(cached->prove(i).siblings, direct.prove(i).siblings) << i;
  }
}

}  // namespace
}  // namespace tpnr::storage
