#include "dyn/dyn_merkle.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/sha256.h"
#include "crypto/sha256_mb.h"

namespace tpnr::dyn {

namespace {

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kInteriorTag = 0x01;
constexpr std::uint8_t kEmptyTag = 0x02;

// Pruned-tree node kinds in the DynBatchProof encoding.
constexpr std::uint8_t kNodePruned = 0;      // (hash, rank) summary
constexpr std::uint8_t kNodeChallenged = 1;  // challenged leaf: leaf hash
constexpr std::uint8_t kNodeInterior = 2;    // expanded: left then right

// Anything deeper is not a tree an AVL-balanced instance can produce, and
// caps adversarial recursion in verify_batch.
constexpr int kMaxProofDepth = 96;

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

Bytes interior_preimage(std::uint64_t left_rank, std::uint64_t right_rank,
                        BytesView left_hash, BytesView right_hash) {
  Bytes preimage;
  preimage.reserve(1 + 16 + left_hash.size() + right_hash.size());
  preimage.push_back(kInteriorTag);
  put_u64(preimage, left_rank);
  put_u64(preimage, right_rank);
  preimage.insert(preimage.end(), left_hash.begin(), left_hash.end());
  preimage.insert(preimage.end(), right_hash.begin(), right_hash.end());
  return preimage;
}

Bytes interior_hash(std::uint64_t left_rank, std::uint64_t right_rank,
                    BytesView left_hash, BytesView right_hash) {
  return crypto::sha256(
      interior_preimage(left_rank, right_rank, left_hash, right_hash));
}

}  // namespace

Bytes DynMerkleTree::hash_chunk(BytesView chunk) {
  Bytes preimage;
  preimage.reserve(1 + chunk.size());
  preimage.push_back(kLeafTag);
  preimage.insert(preimage.end(), chunk.begin(), chunk.end());
  return crypto::sha256(preimage);
}

std::vector<Bytes> DynMerkleTree::hash_chunks(
    std::span<const BytesView> chunks) {
  return crypto::sha256_many_tagged(kLeafTag, chunks);
}

const Bytes& DynMerkleTree::empty_root() {
  static const Bytes root = crypto::sha256(Bytes{kEmptyTag});
  return root;
}

const Bytes& DynMerkleTree::root() const {
  return root_ ? root_->hash : empty_root();
}

// ---------------------------------------------------------------------------
// Construction

DynMerkleTree DynMerkleTree::build(std::span<const BytesView> chunks) {
  std::vector<Bytes> leaves = hash_chunks(chunks);
  DynMerkleTree tree;
  tree.hash_computations_ += leaves.size();
  tree.root_ = tree.build_range(leaves);
  return tree;
}

DynMerkleTree::NodePtr DynMerkleTree::build_range(
    std::span<const Bytes> leaf_hashes) {
  if (leaf_hashes.empty()) return nullptr;
  if (leaf_hashes.size() == 1) {
    auto leaf = std::make_unique<Node>();
    leaf->hash = leaf_hashes.front();
    return leaf;
  }
  const std::size_t mid = (leaf_hashes.size() + 1) / 2;  // left gets ceil
  auto node = std::make_unique<Node>();
  node->left = build_range(leaf_hashes.first(mid));
  node->right = build_range(leaf_hashes.subspan(mid));
  refresh(node.get());
  return node;
}

void DynMerkleTree::refresh(Node* node) {
  node->rank = node->left->rank + node->right->rank;
  node->height = 1 + std::max(node->left->height, node->right->height);
  node->hash = interior_hash(node->left->rank, node->right->rank,
                             node->left->hash, node->right->hash);
  ++hash_computations_;
}

// ---------------------------------------------------------------------------
// Balancing (AVL by leaf rank; interior nodes always have two children)

DynMerkleTree::NodePtr DynMerkleTree::rotate_left(NodePtr node) {
  NodePtr pivot = std::move(node->right);
  node->right = std::move(pivot->left);
  refresh(node.get());
  pivot->left = std::move(node);
  refresh(pivot.get());
  return pivot;
}

DynMerkleTree::NodePtr DynMerkleTree::rotate_right(NodePtr node) {
  NodePtr pivot = std::move(node->left);
  node->left = std::move(pivot->right);
  refresh(node.get());
  pivot->right = std::move(node);
  refresh(pivot.get());
  return pivot;
}

DynMerkleTree::NodePtr DynMerkleTree::rebalance(NodePtr node) {
  const int balance = height_of(node->left.get()) -
                      height_of(node->right.get());
  if (balance > 1) {
    if (height_of(node->left->left.get()) <
        height_of(node->left->right.get())) {
      node->left = rotate_left(std::move(node->left));
    }
    return rotate_right(std::move(node));
  }
  if (balance < -1) {
    if (height_of(node->right->right.get()) <
        height_of(node->right->left.get())) {
      node->right = rotate_right(std::move(node->right));
    }
    return rotate_left(std::move(node));
  }
  return node;
}

// ---------------------------------------------------------------------------
// Mutations

void DynMerkleTree::update(std::uint64_t index, BytesView chunk) {
  Bytes leaf = hash_chunk(chunk);
  ++hash_computations_;
  update_leaf(index, std::move(leaf));
}

void DynMerkleTree::update_leaf(std::uint64_t index, Bytes leaf_hash) {
  if (index >= leaf_count()) {
    throw std::out_of_range("DynMerkleTree::update_leaf: index");
  }
  update_at(root_.get(), index, std::move(leaf_hash));
}

void DynMerkleTree::update_at(Node* node, std::uint64_t index,
                              Bytes&& leaf_hash) {
  if (node->is_leaf()) {
    node->hash = std::move(leaf_hash);
    return;
  }
  if (index < node->left->rank) {
    update_at(node->left.get(), index, std::move(leaf_hash));
  } else {
    update_at(node->right.get(), index - node->left->rank,
              std::move(leaf_hash));
  }
  // Shape is unchanged: only the path hashes are recomputed.
  node->hash = interior_hash(node->left->rank, node->right->rank,
                             node->left->hash, node->right->hash);
  ++hash_computations_;
}

void DynMerkleTree::insert(std::uint64_t index, BytesView chunk) {
  Bytes leaf = hash_chunk(chunk);
  ++hash_computations_;
  insert_leaf(index, std::move(leaf));
}

void DynMerkleTree::insert_leaf(std::uint64_t index, Bytes leaf_hash) {
  if (index > leaf_count()) {
    throw std::out_of_range("DynMerkleTree::insert_leaf: index");
  }
  root_ = insert_at(std::move(root_), index, std::move(leaf_hash));
}

DynMerkleTree::NodePtr DynMerkleTree::insert_at(NodePtr node,
                                                std::uint64_t index,
                                                Bytes&& leaf_hash) {
  if (node == nullptr || node->is_leaf()) {
    auto fresh = std::make_unique<Node>();
    fresh->hash = std::move(leaf_hash);
    if (node == nullptr) return fresh;
    auto parent = std::make_unique<Node>();
    if (index == 0) {
      parent->left = std::move(fresh);
      parent->right = std::move(node);
    } else {
      parent->left = std::move(node);
      parent->right = std::move(fresh);
    }
    refresh(parent.get());
    return parent;
  }
  // Route boundary inserts toward the shorter side so repeated appends keep
  // the tree shallow without extra rotations.
  const std::uint64_t left_rank = node->left->rank;
  const bool go_left =
      index < left_rank ||
      (index == left_rank && node->left->height < node->right->height);
  if (go_left) {
    node->left = insert_at(std::move(node->left), index, std::move(leaf_hash));
  } else {
    node->right = insert_at(std::move(node->right), index - left_rank,
                            std::move(leaf_hash));
  }
  refresh(node.get());
  return rebalance(std::move(node));
}

void DynMerkleTree::erase(std::uint64_t index) {
  if (index >= leaf_count()) {
    throw std::out_of_range("DynMerkleTree::erase: index");
  }
  root_ = erase_at(std::move(root_), index);
}

DynMerkleTree::NodePtr DynMerkleTree::erase_at(NodePtr node,
                                               std::uint64_t index) {
  if (node->is_leaf()) return nullptr;  // the parent collapses to the sibling
  if (index < node->left->rank) {
    node->left = erase_at(std::move(node->left), index);
    if (node->left == nullptr) return std::move(node->right);
  } else {
    node->right = erase_at(std::move(node->right), index - node->left->rank);
    if (node->right == nullptr) return std::move(node->left);
  }
  refresh(node.get());
  return rebalance(std::move(node));
}

// ---------------------------------------------------------------------------
// Reads

const Bytes& DynMerkleTree::leaf_hash(std::uint64_t index) const {
  if (index >= leaf_count()) {
    throw std::out_of_range("DynMerkleTree::leaf_hash: index");
  }
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    if (index < node->left->rank) {
      node = node->left.get();
    } else {
      index -= node->left->rank;
      node = node->right.get();
    }
  }
  return node->hash;
}

std::vector<Bytes> DynMerkleTree::leaf_hashes() const {
  std::vector<Bytes> out;
  out.reserve(leaf_count());
  // Explicit stack: leaves in index order, right child pushed first.
  std::vector<const Node*> stack;
  if (root_) stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      out.push_back(node->hash);
      continue;
    }
    stack.push_back(node->right.get());
    stack.push_back(node->left.get());
  }
  return out;
}

Bytes DynMerkleTree::recompute_root_reference() const {
  if (root_ == nullptr) return empty_root();
  return reference_hash(root_.get());
}

Bytes DynMerkleTree::reference_hash(const Node* node) {
  if (node->is_leaf()) return node->hash;  // leaf hashes are the inputs
  const Bytes left = reference_hash(node->left.get());
  const Bytes right = reference_hash(node->right.get());
  return interior_hash(node->left->rank, node->right->rank, left, right);
}

// ---------------------------------------------------------------------------
// Proofs

DynProof DynMerkleTree::prove(std::uint64_t index) const {
  if (index >= leaf_count()) {
    throw std::out_of_range("DynMerkleTree::prove: index");
  }
  DynProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaf_count();
  const Node* node = root_.get();
  std::uint64_t offset = index;
  while (!node->is_leaf()) {
    DynProofStep step;
    if (offset < node->left->rank) {
      step.sibling_on_left = false;
      step.sibling_rank = node->right->rank;
      step.sibling_hash = node->right->hash;
      node = node->left.get();
    } else {
      step.sibling_on_left = true;
      step.sibling_rank = node->left->rank;
      step.sibling_hash = node->left->hash;
      offset -= node->left->rank;
      node = node->right.get();
    }
    proof.steps.push_back(std::move(step));
  }
  std::reverse(proof.steps.begin(), proof.steps.end());
  return proof;
}

bool DynMerkleTree::verify(BytesView chunk, const DynProof& proof,
                           BytesView root) {
  return verify_leaf(hash_chunk(chunk), proof, root);
}

bool DynMerkleTree::verify_leaf(BytesView leaf_hash, const DynProof& proof,
                                BytesView root) {
  if (proof.steps.size() > static_cast<std::size_t>(kMaxProofDepth)) {
    return false;
  }
  Bytes hash(leaf_hash.begin(), leaf_hash.end());
  std::uint64_t rank = 1;
  std::uint64_t index = 0;
  for (const DynProofStep& step : proof.steps) {
    if (step.sibling_rank == 0) return false;
    if (step.sibling_on_left) {
      index += step.sibling_rank;  // everything left of us precedes us
      hash = interior_hash(step.sibling_rank, rank, step.sibling_hash, hash);
    } else {
      hash = interior_hash(rank, step.sibling_rank, hash, step.sibling_hash);
    }
    rank += step.sibling_rank;
  }
  return rank == proof.leaf_count && index == proof.leaf_index &&
         common::constant_time_equal(hash, root);
}

Bytes DynProof::encode() const {
  common::BinaryWriter w;
  w.u64(leaf_index);
  w.u64(leaf_count);
  w.u32(static_cast<std::uint32_t>(steps.size()));
  for (const DynProofStep& step : steps) {
    w.boolean(step.sibling_on_left);
    w.u64(step.sibling_rank);
    w.bytes(step.sibling_hash);
  }
  return w.take();
}

DynProof DynProof::decode(BytesView data) {
  common::BinaryReader r(data);
  DynProof proof;
  proof.leaf_index = r.u64();
  proof.leaf_count = r.u64();
  const std::uint32_t count = r.u32();
  if (count > static_cast<std::uint32_t>(kMaxProofDepth)) {
    throw common::SerialError("DynProof: implausible depth");
  }
  proof.steps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DynProofStep step;
    step.sibling_on_left = r.boolean();
    step.sibling_rank = r.u64();
    step.sibling_hash = r.bytes();
    proof.steps.push_back(std::move(step));
  }
  r.expect_done();
  return proof;
}

std::size_t DynProof::encoded_size() const { return encode().size(); }

// ---------------------------------------------------------------------------
// Batch proofs

namespace {

// Recursive pruned-tree writer. `indices` is the (sorted) slice of
// challenged leaf indices that fall inside this subtree, already shifted to
// subtree-local offsets.
template <typename Node>
void write_pruned(common::BinaryWriter& w, const Node* node,
                  std::span<const std::uint64_t> local) {
  if (local.empty()) {
    w.u8(kNodePruned);
    w.bytes(node->hash);
    w.u64(node->rank);
    return;
  }
  if (node->left == nullptr) {
    w.u8(kNodeChallenged);
    w.bytes(node->hash);
    return;
  }
  w.u8(kNodeInterior);
  const std::uint64_t left_rank = node->left->rank;
  const auto split = std::lower_bound(local.begin(), local.end(), left_rank);
  const std::size_t left_n = static_cast<std::size_t>(split - local.begin());
  write_pruned(w, node->left.get(), local.first(left_n));
  // Shift the right-side indices to right-subtree-local offsets.
  std::vector<std::uint64_t> shifted(local.begin() + left_n, local.end());
  for (std::uint64_t& v : shifted) v -= left_rank;
  write_pruned(w, node->right.get(), shifted);
}

struct DecodedSubtree {
  Bytes hash;
  std::uint64_t rank = 0;
};

// Recursive pruned-tree reader: recomputes (hash, rank) bottom-up and
// collects challenged leaves at `base + local offset`. Throws SerialError on
// malformed input; rank lies surface as a final root/leaf_count mismatch.
DecodedSubtree read_pruned(common::BinaryReader& r, std::uint64_t base,
                           int depth, std::vector<VerifiedLeaf>& out) {
  if (depth > kMaxProofDepth) {
    throw common::SerialError("DynBatchProof: implausible depth");
  }
  const std::uint8_t kind = r.u8();
  DecodedSubtree subtree;
  switch (kind) {
    case kNodePruned:
      subtree.hash = r.bytes();
      subtree.rank = r.u64();
      if (subtree.rank == 0) {
        throw common::SerialError("DynBatchProof: zero-rank subtree");
      }
      return subtree;
    case kNodeChallenged:
      subtree.hash = r.bytes();
      subtree.rank = 1;
      out.push_back({base, subtree.hash});
      return subtree;
    case kNodeInterior: {
      const DecodedSubtree left = read_pruned(r, base, depth + 1, out);
      const DecodedSubtree right =
          read_pruned(r, base + left.rank, depth + 1, out);
      subtree.rank = left.rank + right.rank;
      subtree.hash = interior_hash(left.rank, right.rank, left.hash,
                                   right.hash);
      return subtree;
    }
    default:
      throw common::SerialError("DynBatchProof: unknown node kind");
  }
}

}  // namespace

DynBatchProof DynMerkleTree::prove_batch(
    std::span<const std::uint64_t> indices) const {
  if (!std::is_sorted(indices.begin(), indices.end()) ||
      std::adjacent_find(indices.begin(), indices.end()) != indices.end()) {
    throw std::invalid_argument("prove_batch: indices must be sorted+unique");
  }
  if (!indices.empty() && indices.back() >= leaf_count()) {
    throw std::out_of_range("prove_batch: index");
  }
  DynBatchProof proof;
  proof.leaf_count = leaf_count();
  if (root_ == nullptr || indices.empty()) return proof;
  common::BinaryWriter w;
  write_pruned(w, root_.get(), indices);
  proof.nodes = w.take();
  return proof;
}

bool DynMerkleTree::verify_batch(const DynBatchProof& proof, BytesView root,
                                 std::vector<VerifiedLeaf>& out) {
  out.clear();
  if (proof.nodes.empty()) {
    // An empty batch proves nothing beyond the (externally known) count.
    return proof.leaf_count == 0
               ? common::constant_time_equal(empty_root(), root)
               : true;
  }
  try {
    common::BinaryReader r(proof.nodes);
    const DecodedSubtree decoded = read_pruned(r, 0, 0, out);
    r.expect_done();
    if (decoded.rank != proof.leaf_count) return false;
    return common::constant_time_equal(decoded.hash, root);
  } catch (const common::SerialError&) {
    out.clear();
    return false;
  }
}

Bytes DynBatchProof::encode() const {
  common::BinaryWriter w;
  w.u64(leaf_count);
  w.bytes(nodes);
  return w.take();
}

DynBatchProof DynBatchProof::decode(BytesView data) {
  common::BinaryReader r(data);
  DynBatchProof proof;
  proof.leaf_count = r.u64();
  proof.nodes = r.bytes();
  r.expect_done();
  return proof;
}

std::size_t DynBatchProof::encoded_size() const {
  return 8 + 4 + nodes.size();
}

DynMerkleTree DynMerkleTree::clone() const {
  DynMerkleTree copy;
  if (root_ != nullptr) copy.root_ = clone_node(root_.get());
  return copy;
}

DynMerkleTree::NodePtr DynMerkleTree::clone_node(const Node* node) {
  auto out = std::make_unique<Node>();
  out->hash = node->hash;
  out->rank = node->rank;
  out->height = node->height;
  if (!node->is_leaf()) {
    out->left = clone_node(node->left.get());
    out->right = clone_node(node->right.get());
  }
  return out;
}

std::vector<Bytes> split_chunks(BytesView data, std::size_t chunk_size) {
  if (chunk_size == 0) throw common::Error("split_chunks: zero chunk size");
  std::vector<Bytes> chunks;
  chunks.reserve((data.size() + chunk_size - 1) / chunk_size);
  for (std::size_t offset = 0; offset < data.size(); offset += chunk_size) {
    const std::size_t len = std::min(chunk_size, data.size() - offset);
    chunks.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(offset),
                        data.begin() + static_cast<std::ptrdiff_t>(offset + len));
  }
  return chunks;
}

Bytes join_chunks(std::span<const Bytes> chunks) {
  std::size_t total = 0;
  for (const Bytes& chunk : chunks) total += chunk.size();
  Bytes out;
  out.reserve(total);
  for (const Bytes& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<BytesView> chunk_views(std::span<const Bytes> chunks) {
  std::vector<BytesView> views;
  views.reserve(chunks.size());
  for (const Bytes& chunk : chunks) views.emplace_back(chunk);
  return views;
}

const char* chunk_op_fault_reason(ChunkOpFault fault) {
  static constexpr const char* kReasons[] = {
      "ok",
      "store op on an existing object",
      "chunk index out of range",
      "erase carries chunk bytes",
      "mutation carries no chunk bytes",
      "chunk exceeds the object's chunk size",
      "interior chunk must be full stride",
      "append after a short tail breaks the stride",
      "chunk_count does not match the op",
      "claimed new_root does not match the applied op",
  };
  static_assert(std::size(kReasons) ==
                static_cast<std::size_t>(ChunkOpFault::kNewRoot) + 1);
  return kReasons[static_cast<std::size_t>(fault)];
}

ChunkOpFault check_chunk_op(MutateOp op, std::uint64_t index, BytesView chunk,
                            std::span<const Bytes> chunks,
                            std::size_t chunk_size) {
  if (op == MutateOp::kStore) return ChunkOpFault::kStoreOp;
  const std::uint64_t count = chunks.size();
  const bool inserting = op == MutateOp::kInsert || op == MutateOp::kAppend;
  if ((inserting ? index > count : index >= count) ||
      (op == MutateOp::kAppend && index != count)) {
    return ChunkOpFault::kIndexOutOfRange;
  }
  if (op == MutateOp::kErase) {
    return chunk.empty() ? ChunkOpFault::kNone
                         : ChunkOpFault::kEraseCarriesBytes;
  }
  if (chunk.empty()) return ChunkOpFault::kNoChunkBytes;
  if (chunk.size() > chunk_size) return ChunkOpFault::kOversizeChunk;
  const bool at_tail = inserting ? index == count : index + 1 == count;
  if (!at_tail && chunk.size() != chunk_size) {
    return ChunkOpFault::kShortInteriorChunk;
  }
  if (inserting && at_tail && count > 0 &&
      chunks[count - 1].size() != chunk_size) {
    return ChunkOpFault::kAppendAfterShortTail;
  }
  return ChunkOpFault::kNone;
}

ChunkOpUndo apply_chunk_op(ChunkMirror mirror, MutateOp op,
                           std::uint64_t index, BytesView chunk,
                           std::uint64_t tag, Bytes leaf_hash) {
  if (op == MutateOp::kStore) {
    throw common::Error("apply_chunk_op: kStore is not a chunk op");
  }
  ChunkOpUndo undo;
  undo.op = op;
  undo.index = index;
  undo.tree = mirror.tree.clone();
  std::vector<std::uint64_t>* tags = mirror.tags;
  const auto at = static_cast<std::ptrdiff_t>(index);
  if (op == MutateOp::kErase) {
    mirror.tree.erase(index);
    undo.chunk = std::move(mirror.chunks[index]);
    mirror.chunks.erase(mirror.chunks.begin() + at);
    if (tags != nullptr) {
      undo.tag = (*tags)[index];
      tags->erase(tags->begin() + at);
    }
    return undo;
  }
  if (leaf_hash.empty()) leaf_hash = DynMerkleTree::hash_chunk(chunk);
  if (op == MutateOp::kUpdate) {
    mirror.tree.update_leaf(index, std::move(leaf_hash));
    undo.chunk = std::exchange(mirror.chunks[index],
                               Bytes(chunk.begin(), chunk.end()));
    if (tags != nullptr) undo.tag = std::exchange((*tags)[index], tag);
  } else {
    mirror.tree.insert_leaf(index, std::move(leaf_hash));
    mirror.chunks.insert(mirror.chunks.begin() + at,
                         Bytes(chunk.begin(), chunk.end()));
    if (tags != nullptr) tags->insert(tags->begin() + at, tag);
  }
  return undo;
}

void undo_chunk_op(ChunkMirror mirror, ChunkOpUndo undo) {
  std::vector<std::uint64_t>* tags = mirror.tags;
  const auto at = static_cast<std::ptrdiff_t>(undo.index);
  switch (undo.op) {
    case MutateOp::kUpdate:
      mirror.chunks[undo.index] = std::move(undo.chunk);
      if (tags != nullptr) (*tags)[undo.index] = undo.tag;
      break;
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      mirror.chunks.erase(mirror.chunks.begin() + at);
      if (tags != nullptr) tags->erase(tags->begin() + at);
      break;
    case MutateOp::kErase:
      mirror.chunks.insert(mirror.chunks.begin() + at, std::move(undo.chunk));
      if (tags != nullptr) tags->insert(tags->begin() + at, undo.tag);
      break;
    case MutateOp::kStore:
      break;
  }
  mirror.tree = std::move(undo.tree);
}

ChunkOpFault apply_record(ChunkMirror mirror, std::size_t chunk_size,
                          const VersionRecord& rec, BytesView bytes) {
  if ((rec.op == MutateOp::kStore) != (rec.version == 1)) {
    return ChunkOpFault::kStoreOp;
  }
  if (rec.op == MutateOp::kStore) {
    if (bytes.empty()) return ChunkOpFault::kNoChunkBytes;
    if (chunk_size == 0) return ChunkOpFault::kOversizeChunk;
    std::vector<Bytes> chunks = split_chunks(bytes, chunk_size);
    DynMerkleTree tree = DynMerkleTree::build(chunk_views(chunks));
    if (tree.leaf_count() != rec.chunk_count) return ChunkOpFault::kChunkCount;
    if (!common::constant_time_equal(tree.root(), rec.new_root)) {
      return ChunkOpFault::kNewRoot;
    }
    mirror.chunks = std::move(chunks);
    mirror.tree = std::move(tree);
    return ChunkOpFault::kNone;
  }
  if (const ChunkOpFault fault = check_chunk_op(
          rec.op, rec.chunk_index, bytes, mirror.chunks, chunk_size);
      fault != ChunkOpFault::kNone) {
    return fault;
  }
  ChunkOpUndo undo =
      apply_chunk_op(mirror, rec.op, rec.chunk_index, bytes, rec.chunk_tag);
  ChunkOpFault fault = ChunkOpFault::kNone;
  if (mirror.tree.leaf_count() != rec.chunk_count) {
    fault = ChunkOpFault::kChunkCount;
  } else if (!common::constant_time_equal(mirror.tree.root(), rec.new_root)) {
    fault = ChunkOpFault::kNewRoot;
  }
  if (fault != ChunkOpFault::kNone) undo_chunk_op(mirror, std::move(undo));
  return fault;
}

}  // namespace tpnr::dyn
