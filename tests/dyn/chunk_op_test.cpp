// Table-driven oracle for the chunk-op rule (check_chunk_op) and its applier
// (apply_chunk_op / undo_chunk_op): every op × index ∈ {0, mid, last, count,
// count+1} × chunk size ∈ {0, short, full, over}, on objects whose tail is
// full and objects whose tail is short. The oracle judges an op by the
// layout it leaves behind — every chunk non-empty and at most one stride,
// only the last one short — rather than by restating the rule.
#include <cstdint>
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
  std::vector<Bytes> chunks = object_chunks(c.tail);
  const Bytes chunk(c.chunk_size, 0xee);
  std::vector<Bytes> expected_chunks;
  const ChunkOpFault expected =
      expected_fault(c, chunks, chunk, &expected_chunks);
  const ChunkOpFault verdict =
      check_chunk_op(c.op, c.index, chunk, chunks, kStride);
  ASSERT_EQ(verdict, expected) << chunk_op_fault_reason(verdict) << " vs "
                               << chunk_op_fault_reason(expected);
  if (verdict != ChunkOpFault::kNone) return;

  DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  std::vector<std::uint64_t> tags = {10, 11, 12, 13, 14};
  const std::vector<Bytes> chunks_before = chunks;
  const std::vector<std::uint64_t> tags_before = tags;
  const Bytes root_before = tree.root();
  const ChunkMirror mirror{.tree = tree, .chunks = chunks, .tags = &tags};
  ChunkOpUndo undo = apply_chunk_op(mirror, c.op, c.index, chunk, 99);

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

  undo_chunk_op(mirror, std::move(undo));
  EXPECT_EQ(chunks, chunks_before);
  EXPECT_EQ(tags, tags_before);
  EXPECT_EQ(tree.root(), root_before);
}

void check_record_form(const Case& c) {
  std::vector<Bytes> chunks = object_chunks(c.tail);
  const Bytes chunk(c.chunk_size, 0xee);
  DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
  const Bytes root_before = tree.root();
  const std::vector<Bytes> chunks_before = chunks;
  const ChunkMirror mirror{.tree = tree, .chunks = chunks};
  const ChunkOpFault verdict =
      check_chunk_op(c.op, c.index, chunk, chunks, kStride);
  if (verdict != ChunkOpFault::kNone) {
    // Refused by the rule: apply_record refuses it the same way, untouched.
    VersionRecord refused;
    refused.version = 2;
    refused.op = c.op;
    refused.chunk_index = c.index;
    EXPECT_EQ(apply_record(mirror, kStride, refused, chunk), verdict);
    EXPECT_EQ(tree.root(), root_before);
    EXPECT_EQ(chunks, chunks_before);
    return;
  }

  // The honest record: count and root of the applied op.
  ChunkOpUndo probe = apply_chunk_op(mirror, c.op, c.index, chunk);
  VersionRecord rec;
  rec.version = 2;
  rec.op = c.op;
  rec.chunk_index = c.index;
  rec.chunk_count = tree.leaf_count();
  rec.new_root = tree.root();
  undo_chunk_op(mirror, std::move(probe));

  VersionRecord wrong_count = rec;
  ++wrong_count.chunk_count;
  EXPECT_EQ(apply_record(mirror, kStride, wrong_count, chunk),
            ChunkOpFault::kChunkCount);
  EXPECT_EQ(tree.root(), root_before);
  EXPECT_EQ(chunks, chunks_before);

  VersionRecord wrong_root = rec;
  wrong_root.new_root = crypto::sha256(Bytes{1});
  EXPECT_EQ(apply_record(mirror, kStride, wrong_root, chunk),
            ChunkOpFault::kNewRoot);
  EXPECT_EQ(tree.root(), root_before);
  EXPECT_EQ(chunks, chunks_before);

  EXPECT_EQ(apply_record(mirror, kStride, rec, chunk), ChunkOpFault::kNone);
  EXPECT_EQ(tree.root(), rec.new_root);
  EXPECT_EQ(tree.leaf_count(), rec.chunk_count);
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
    accepted += check_chunk_op(c.op, c.index, Bytes(c.chunk_size, 0xee),
                               object_chunks(c.tail), kStride) ==
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

  DynMerkleTree tree;
  std::vector<Bytes> chunks;
  const ChunkMirror mirror{.tree = tree, .chunks = chunks};
  const auto refuses = [&](const VersionRecord& rec, std::size_t chunk_size,
                           BytesView data, ChunkOpFault fault) {
    EXPECT_EQ(apply_record(mirror, chunk_size, rec, data), fault);
    EXPECT_TRUE(chunks.empty());
    EXPECT_EQ(tree.leaf_count(), 0u);
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

  EXPECT_EQ(apply_record(mirror, kStride, store, bytes), ChunkOpFault::kNone);
  EXPECT_EQ(chunks, object);
  EXPECT_EQ(tree.root(), built.root());
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
