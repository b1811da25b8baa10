// Table-driven oracle for the chunk-op rule (ObjectMirror::check) and the
// mirror's appliers (stage / commit / apply): every op × index ∈
// {0, mid, last, count, count+1} × chunk size ∈ {0, short, full, over}, on
// objects whose tail is full and objects whose tail is short. The oracle judges an op by the
// layout it leaves behind — every chunk non-empty and at most one stride,
// only the last one short — rather than by restating the rule.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/hash.h"
#include "dyn/dyn_merkle.h"

namespace tpnr::dyn {
namespace {

constexpr std::size_t kStride = 16;
constexpr std::size_t kShort = 7;

enum class Tail { kFull, kShort };

struct Case {
  MutateOp op;
  std::uint64_t index;
  std::size_t chunk_size;
  Tail tail;
};

std::string case_name(const Case& c) {
  return mutate_op_name(c.op) + "_at" + std::to_string(c.index) + "_size" +
         std::to_string(c.chunk_size) +
         (c.tail == Tail::kFull ? "_fullTail" : "_shortTail");
}

/// Five chunks: all full, or four full and a short tail.
std::vector<Bytes> object_chunks(Tail tail) {
  std::vector<Bytes> chunks;
  for (std::uint8_t i = 0; i < 5; ++i) {
    chunks.emplace_back(tail == Tail::kShort && i == 4 ? kShort : kStride, i);
  }
  return chunks;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const MutateOp op : {MutateOp::kStore, MutateOp::kUpdate,
                            MutateOp::kInsert, MutateOp::kAppend,
                            MutateOp::kErase}) {
    for (const std::uint64_t index : {0, 2, 4, 5, 6}) {  // 0 mid last n n+1
      for (const std::size_t size : {std::size_t{0}, kShort, kStride,
                                     kStride + 1}) {
        for (const Tail tail : {Tail::kFull, Tail::kShort}) {
          cases.push_back({op, index, size, tail});
        }
      }
    }
  }
  return cases;
}

/// A mirror of `chunks` at kStride with PoR tags 10, 11, ...
ObjectMirror mirror_of(const std::vector<Bytes>& chunks) {
  ObjectMirror mirror;
  mirror.chunk_size = kStride;
  mirror.chunks = chunks;
  mirror.tree = DynMerkleTree::build(chunk_views(chunks));
  for (std::size_t i = 0; i < chunks.size(); ++i) mirror.tags.push_back(10 + i);
  return mirror;
}

/// The layout invariant the store's fixed-stride slicing needs.
bool layout_ok(const std::vector<Bytes>& chunks) {
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::size_t n = chunks[i].size();
    if (n == 0 || n > kStride) return false;
    if (i + 1 < chunks.size() && n != kStride) return false;
  }
  return true;
}

/// The oracle: which index an op may address, then the layout it leaves.
ChunkOpFault expected_fault(const Case& c, const std::vector<Bytes>& before,
                            const Bytes& chunk,
                            std::vector<Bytes>* after) {
  const std::uint64_t n = before.size();
  bool index_ok = false;
  switch (c.op) {
    case MutateOp::kStore:
      return ChunkOpFault::kStoreOp;
    case MutateOp::kUpdate:
    case MutateOp::kErase:
      index_ok = c.index < n;
      break;
    case MutateOp::kInsert:
      index_ok = c.index <= n;
      break;
    case MutateOp::kAppend:
      index_ok = c.index == n;
      break;
  }
  if (!index_ok) return ChunkOpFault::kIndexOutOfRange;
  *after = before;
  const auto at = static_cast<std::ptrdiff_t>(c.index);
  if (c.op == MutateOp::kErase) {
    if (!chunk.empty()) return ChunkOpFault::kEraseCarriesBytes;
    after->erase(after->begin() + at);
    EXPECT_TRUE(layout_ok(*after));  // erasing never breaks the layout
    return ChunkOpFault::kNone;
  }
  if (chunk.empty()) return ChunkOpFault::kNoChunkBytes;
  if (chunk.size() > kStride) return ChunkOpFault::kOversizeChunk;
  if (c.op == MutateOp::kUpdate) {
    (*after)[c.index] = chunk;
  } else {
    after->insert(after->begin() + at, chunk);
  }
  if (layout_ok(*after)) return ChunkOpFault::kNone;
  // The layout broke: either the written chunk is a short interior one, or
  // it landed after a short tail.
  const bool written_is_last = c.index + 1 == after->size();
  return chunk.size() != kStride && !written_is_last
             ? ChunkOpFault::kShortInteriorChunk
             : ChunkOpFault::kAppendAfterShortTail;
}

void check_verdict_and_apply(const Case& c) {
  const std::vector<Bytes> chunks_before = object_chunks(c.tail);
  const Bytes chunk(c.chunk_size, 0xee);
  std::vector<Bytes> expected_chunks;
  const ChunkOpFault expected =
      expected_fault(c, chunks_before, chunk, &expected_chunks);
  ObjectMirror mirror = mirror_of(chunks_before);
  const ChunkOpFault verdict = mirror.check(c.op, c.index, chunk);
  ASSERT_EQ(verdict, expected) << chunk_op_fault_reason(verdict) << " vs "
                               << chunk_op_fault_reason(expected);

  const std::vector<Bytes>& chunks = mirror.chunks;
  const std::vector<std::uint64_t>& tags = mirror.tags;
  const DynMerkleTree& tree = mirror.tree;
  const std::vector<std::uint64_t> tags_before = tags;
  const Bytes root_before = tree.root();
  // Staging refuses exactly what the rule refuses, and either way leaves
  // the mirror: only commit() moves it.
  std::optional<ObjectMirror::Staged> staged =
      mirror.stage("obj", c.op, c.index, chunk, 99);
  ASSERT_EQ(staged.has_value(), verdict == ChunkOpFault::kNone);
  EXPECT_EQ(chunks, chunks_before);
  EXPECT_EQ(tags, tags_before);
  EXPECT_EQ(tree.root(), root_before);
  EXPECT_EQ(tree.recompute_root_reference(), root_before);
  if (!staged) return;

  const VersionRecord record = staged->record;
  mirror.commit(std::move(staged->change));
  EXPECT_EQ(chunks, expected_chunks);
  ASSERT_EQ(tags.size(), chunks.size());
  if (c.op != MutateOp::kErase) {
    EXPECT_EQ(tags[c.index], 99u);
  }
  ASSERT_EQ(tree.leaf_count(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(tree.leaf_hash(i), DynMerkleTree::hash_chunk(chunks[i]));
  }
  EXPECT_EQ(tree.root(), tree.recompute_root_reference());
  if (c.op == MutateOp::kUpdate) {
    // Update-only histories keep the canonical build shape.
    EXPECT_EQ(tree.root(), DynMerkleTree::build(chunk_views(chunks)).root());
  }
  EXPECT_EQ(split_chunks(join_chunks(chunks), kStride), chunks);
  // The staged record commits to the post-op mirror.
  EXPECT_EQ(record.op, c.op);
  EXPECT_EQ(record.chunk_index, c.index);
  EXPECT_EQ(record.chunk_count, tree.leaf_count());
  EXPECT_EQ(record.new_root, tree.root());
  EXPECT_EQ(record.chunk_tag, 99u);
}

void check_record_form(const Case& c) {
  const std::vector<Bytes> chunks_before = object_chunks(c.tail);
  const Bytes chunk(c.chunk_size, 0xee);
  ObjectMirror mirror = mirror_of(chunks_before);
  const std::vector<Bytes>& chunks = mirror.chunks;
  const std::vector<std::uint64_t> tags_before = mirror.tags;
  const DynMerkleTree& tree = mirror.tree;
  const Bytes root_before = tree.root();
  const ChunkOpFault verdict = mirror.check(c.op, c.index, chunk);
  if (verdict != ChunkOpFault::kNone) {
    // Refused by the rule: apply refuses it the same way, untouched.
    VersionRecord refused;
    refused.version = 2;
    refused.op = c.op;
    refused.chunk_index = c.index;
    EXPECT_EQ(mirror.apply(refused, chunk), verdict);
    EXPECT_EQ(tree.root(), root_before);
    EXPECT_EQ(chunks, chunks_before);
    EXPECT_EQ(mirror.tags, tags_before);
    return;
  }

  // The honest record: count and root of the computed op.
  const std::optional<ObjectMirror::Staged> probe =
      mirror.stage("obj", c.op, c.index, chunk, 99);
  ASSERT_TRUE(probe.has_value());
  VersionRecord rec;
  rec.version = 2;
  rec.op = c.op;
  rec.chunk_index = c.index;
  rec.chunk_count = probe->change.tree.leaf_count();
  rec.new_root = probe->change.tree.root();
  rec.chunk_tag = 99;
  EXPECT_EQ(tree.root(), root_before);

  VersionRecord wrong_count = rec;
  ++wrong_count.chunk_count;
  EXPECT_EQ(mirror.apply(wrong_count, chunk), ChunkOpFault::kChunkCount);
  EXPECT_EQ(tree.root(), root_before);
  EXPECT_EQ(chunks, chunks_before);
  EXPECT_EQ(mirror.tags, tags_before);

  VersionRecord wrong_root = rec;
  wrong_root.new_root = crypto::sha256(Bytes{1});
  EXPECT_EQ(mirror.apply(wrong_root, chunk), ChunkOpFault::kNewRoot);
  EXPECT_EQ(tree.root(), root_before);
  EXPECT_EQ(chunks, chunks_before);
  EXPECT_EQ(mirror.tags, tags_before);

  EXPECT_EQ(mirror.apply(rec, chunk), ChunkOpFault::kNone);
  EXPECT_EQ(tree.root(), rec.new_root);
  EXPECT_EQ(tree.leaf_count(), rec.chunk_count);
  // The tags follow the record: the written chunk carries its chunk_tag.
  ASSERT_EQ(mirror.tags.size(), chunks.size());
  if (c.op != MutateOp::kErase) {
    EXPECT_EQ(mirror.tags[c.index], 99u);
  }
}

TEST(ChunkOpOracleTest, VerdictAndAppliedMirrorMatchTheOracle) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(case_name(c));
    check_verdict_and_apply(c);
  }
}

TEST(ChunkOpOracleTest, RecordFormChecksCountAndRoot) {
  std::size_t accepted = 0;
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(case_name(c));
    check_record_form(c);
    accepted += mirror_of(object_chunks(c.tail))
                    .check(c.op, c.index, Bytes(c.chunk_size, 0xee)) ==
                ChunkOpFault::kNone;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(ApplyRecordTest, StoreBuildsTheMirrorOrLeavesIt) {
  const std::vector<Bytes> object = object_chunks(Tail::kShort);
  const Bytes bytes = join_chunks(object);
  const DynMerkleTree built = DynMerkleTree::build(chunk_views(object));
  VersionRecord store;
  store.version = 1;
  store.op = MutateOp::kStore;
  store.chunk_count = built.leaf_count();
  store.new_root = built.root();

  ObjectMirror mirror;
  const auto refuses = [&](const VersionRecord& rec, std::size_t chunk_size,
                           BytesView data, ChunkOpFault fault) {
    mirror.chunk_size = chunk_size;
    EXPECT_EQ(mirror.apply(rec, data), fault);
    EXPECT_TRUE(mirror.chunks.empty());
    EXPECT_TRUE(mirror.tags.empty());
    EXPECT_EQ(mirror.tree.leaf_count(), 0u);
  };
  refuses(store, 0, bytes, ChunkOpFault::kOversizeChunk);
  refuses(store, kStride, Bytes{}, ChunkOpFault::kNoChunkBytes);
  VersionRecord wrong = store;
  ++wrong.chunk_count;
  refuses(wrong, kStride, bytes, ChunkOpFault::kChunkCount);
  wrong = store;
  wrong.new_root = crypto::sha256(Bytes{1});
  refuses(wrong, kStride, bytes, ChunkOpFault::kNewRoot);
  // A store is exactly version 1, and version 1 exactly a store.
  wrong = store;
  wrong.version = 2;
  refuses(wrong, kStride, bytes, ChunkOpFault::kStoreOp);
  wrong = store;
  wrong.op = MutateOp::kAppend;
  refuses(wrong, kStride, Bytes(kStride, 1), ChunkOpFault::kStoreOp);

  mirror.chunk_size = kStride;
  EXPECT_EQ(mirror.apply(store, bytes), ChunkOpFault::kNone);
  EXPECT_EQ(mirror.chunks, object);
  EXPECT_EQ(mirror.tree.root(), built.root());
  EXPECT_EQ(mirror.tags, std::vector<std::uint64_t>(object.size(), 0));
  // Only an empty mirror takes a store.
  EXPECT_EQ(mirror.apply(store, bytes), ChunkOpFault::kStoreOp);
  EXPECT_EQ(mirror.chunks, object);

  // No rule binds a store's chunk_index (it arrives in a signed record):
  // the store is still the whole object.
  ObjectMirror other;
  other.chunk_size = kStride;
  wrong = store;
  wrong.chunk_index = 7;
  EXPECT_EQ(other.apply(wrong, bytes), ChunkOpFault::kNone);
  EXPECT_EQ(other.chunks, object);
  EXPECT_EQ(other.tags, mirror.tags);
}

TEST(ApplyRecordTest, StagedStoreIsTheRecordApplyAccepts) {
  const Bytes bytes = join_chunks(object_chunks(Tail::kShort));
  ObjectMirror client;
  client.chunk_size = kStride;
  std::optional<ObjectMirror::Staged> staged =
      client.stage("obj", MutateOp::kStore, 0, bytes);
  ASSERT_TRUE(staged.has_value());
  const ObjectMirror::Change& change = staged->change;
  EXPECT_EQ(staged->record.version, 1u);
  EXPECT_EQ(staged->record.chunk_count, change.chunks.size());
  EXPECT_EQ(staged->record.new_root, change.tree.root());
  EXPECT_EQ(change.tags, std::vector<std::uint64_t>(change.chunks.size(), 0));
  // Staging the store leaves the client's mirror empty.
  EXPECT_TRUE(client.chunks.empty());
  EXPECT_TRUE(client.tags.empty());
  EXPECT_EQ(client.tree.root(), DynMerkleTree::empty_root());
  EXPECT_FALSE(client.stage("obj", MutateOp::kStore, 0, Bytes{}).has_value());

  ObjectMirror provider;
  provider.chunk_size = kStride;
  EXPECT_EQ(provider.apply(staged->record, bytes), ChunkOpFault::kNone);
  client.commit(std::move(staged->change));
  EXPECT_EQ(provider.chunks, client.chunks);
  EXPECT_EQ(provider.tags, client.tags);
  EXPECT_EQ(provider.tree.root(), client.tree.root());
}

TEST(ChunkOpRuleTest, EveryFaultHasAReason) {
  for (const ChunkOpFault fault :
       {ChunkOpFault::kStoreOp, ChunkOpFault::kIndexOutOfRange,
        ChunkOpFault::kEraseCarriesBytes, ChunkOpFault::kNoChunkBytes,
        ChunkOpFault::kOversizeChunk, ChunkOpFault::kShortInteriorChunk,
        ChunkOpFault::kAppendAfterShortTail, ChunkOpFault::kChunkCount,
        ChunkOpFault::kNewRoot}) {
    EXPECT_NE(std::string(chunk_op_fault_reason(fault)), "ok");
  }
  EXPECT_EQ(std::string(chunk_op_fault_reason(ChunkOpFault::kNewRoot)),
            "claimed new_root does not match the applied op");
}

}  // namespace
}  // namespace tpnr::dyn
