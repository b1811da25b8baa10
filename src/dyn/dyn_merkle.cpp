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
  if (leaf_hashes.size() == 1) return leaf(leaf_hashes.front());
  const std::size_t mid = (leaf_hashes.size() + 1) / 2;  // left gets ceil
  NodePtr left = build_range(leaf_hashes.first(mid));
  NodePtr right = build_range(leaf_hashes.subspan(mid));
  return interior(std::move(left), std::move(right));
}

DynMerkleTree::NodePtr DynMerkleTree::leaf(Bytes leaf_hash) {
  auto node = std::make_shared<Node>();
  node->hash = std::move(leaf_hash);
  return node;
}

DynMerkleTree::NodePtr DynMerkleTree::interior(NodePtr left, NodePtr right) {
  auto node = std::make_shared<Node>();
  node->rank = left->rank + right->rank;
  node->height = 1 + std::max(left->height, right->height);
  node->hash = interior_hash(left->rank, right->rank, left->hash, right->hash);
  node->left = std::move(left);
  node->right = std::move(right);
  ++hash_computations_;
  return node;
}

// ---------------------------------------------------------------------------
// Balancing (AVL by leaf rank; interior nodes always have two children).
// No node is modified once built: each step makes new nodes over the old
// subtrees, so every copy of the tree keeps its own shape.

DynMerkleTree::NodePtr DynMerkleTree::rotate_left(const NodePtr& left,
                                                  const Node& right) {
  NodePtr lowered = interior(left, right.left);
  return interior(std::move(lowered), right.right);
}

DynMerkleTree::NodePtr DynMerkleTree::rotate_right(const Node& left,
                                                   const NodePtr& right) {
  NodePtr lowered = interior(left.right, right);
  return interior(left.left, std::move(lowered));
}

DynMerkleTree::NodePtr DynMerkleTree::rebalance(NodePtr node) {
  const Node& left = *node->left;
  const Node& right = *node->right;
  const int balance = left.height - right.height;
  if (balance > 1) {
    if (height_of(left.left.get()) < height_of(left.right.get())) {
      return rotate_right(*rotate_left(left.left, *left.right), node->right);
    }
    return rotate_right(left, node->right);
  }
  if (balance < -1) {
    if (height_of(right.right.get()) < height_of(right.left.get())) {
      return rotate_left(node->left, *rotate_right(*right.left, right.right));
    }
    return rotate_left(node->left, right);
  }
  return node;
}

// ---------------------------------------------------------------------------
// Mutations (path copying: the nodes above the touched leaf and the
// rotation nodes are new, every other subtree is shared)

void DynMerkleTree::update_leaf(std::uint64_t index, Bytes leaf_hash) {
  if (index >= leaf_count()) {
    throw std::out_of_range("DynMerkleTree::update_leaf: index");
  }
  root_ = update_at(*root_, index, std::move(leaf_hash));
}

DynMerkleTree::NodePtr DynMerkleTree::update_at(const Node& node,
                                                std::uint64_t index,
                                                Bytes&& leaf_hash) {
  if (node.is_leaf()) return leaf(std::move(leaf_hash));
  // Shape is unchanged: only the path hashes are recomputed.
  if (index < node.left->rank) {
    return interior(update_at(*node.left, index, std::move(leaf_hash)),
                    node.right);
  }
  return interior(node.left, update_at(*node.right, index - node.left->rank,
                                       std::move(leaf_hash)));
}

void DynMerkleTree::insert_leaf(std::uint64_t index, Bytes leaf_hash) {
  if (index > leaf_count()) {
    throw std::out_of_range("DynMerkleTree::insert_leaf: index");
  }
  root_ = insert_at(root_, index, std::move(leaf_hash));
}

DynMerkleTree::NodePtr DynMerkleTree::insert_at(const NodePtr& node,
                                                std::uint64_t index,
                                                Bytes&& leaf_hash) {
  if (node == nullptr || node->is_leaf()) {
    NodePtr fresh = leaf(std::move(leaf_hash));
    if (node == nullptr) return fresh;
    return index == 0 ? interior(std::move(fresh), node)
                      : interior(node, std::move(fresh));
  }
  // Route boundary inserts toward the shorter side so repeated appends keep
  // the tree shallow without extra rotations.
  const std::uint64_t left_rank = node->left->rank;
  const bool go_left =
      index < left_rank ||
      (index == left_rank && node->left->height < node->right->height);
  if (go_left) {
    return rebalance(interior(
        insert_at(node->left, index, std::move(leaf_hash)), node->right));
  }
  return rebalance(interior(
      node->left,
      insert_at(node->right, index - left_rank, std::move(leaf_hash))));
}

void DynMerkleTree::erase(std::uint64_t index) {
  if (index >= leaf_count()) {
    throw std::out_of_range("DynMerkleTree::erase: index");
  }
  root_ = erase_at(*root_, index);
}

DynMerkleTree::NodePtr DynMerkleTree::erase_at(const Node& node,
                                               std::uint64_t index) {
  if (node.is_leaf()) return nullptr;  // the parent collapses to the sibling
  if (index < node.left->rank) {
    NodePtr left = erase_at(*node.left, index);
    if (left == nullptr) return node.right;
    return rebalance(interior(std::move(left), node.right));
  }
  NodePtr right = erase_at(*node.right, index - node.left->rank);
  if (right == nullptr) return node.left;
  return rebalance(interior(node.left, std::move(right)));
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

ChunkOpFault ObjectMirror::check(MutateOp op, std::uint64_t index,
                                 BytesView bytes) const {
  const std::uint64_t count = chunks.size();
  if (op == MutateOp::kStore) {
    if (count > 0) return ChunkOpFault::kStoreOp;
    if (bytes.empty()) return ChunkOpFault::kNoChunkBytes;
    return chunk_size == 0 ? ChunkOpFault::kOversizeChunk
                           : ChunkOpFault::kNone;
  }
  const bool inserting = op == MutateOp::kInsert || op == MutateOp::kAppend;
  if ((inserting ? index > count : index >= count) ||
      (op == MutateOp::kAppend && index != count)) {
    return ChunkOpFault::kIndexOutOfRange;
  }
  if (op == MutateOp::kErase) {
    return bytes.empty() ? ChunkOpFault::kNone
                         : ChunkOpFault::kEraseCarriesBytes;
  }
  if (bytes.empty()) return ChunkOpFault::kNoChunkBytes;
  if (bytes.size() > chunk_size) return ChunkOpFault::kOversizeChunk;
  const bool at_tail = inserting ? index == count : index + 1 == count;
  if (!at_tail && bytes.size() != chunk_size) {
    return ChunkOpFault::kShortInteriorChunk;
  }
  if (inserting && at_tail && count > 0 &&
      chunks[count - 1].size() != chunk_size) {
    return ChunkOpFault::kAppendAfterShortTail;
  }
  return ChunkOpFault::kNone;
}

ObjectMirror::Change ObjectMirror::compute(MutateOp op, std::uint64_t index,
                                           BytesView bytes, std::uint64_t tag,
                                           Bytes leaf_hash) const {
  Change change{op, index, tree, {}, {}};
  if (op == MutateOp::kStore) {
    change.chunks = split_chunks(bytes, chunk_size);
    change.tree = DynMerkleTree::build(chunk_views(change.chunks));
    change.tags.assign(change.chunks.size(), 0);
    return change;
  }
  if (op == MutateOp::kErase) {
    change.tree.erase(index);
    return change;
  }
  if (leaf_hash.empty()) leaf_hash = DynMerkleTree::hash_chunk(bytes);
  if (op == MutateOp::kUpdate) {
    change.tree.update_leaf(index, std::move(leaf_hash));
  } else {
    change.tree.insert_leaf(index, std::move(leaf_hash));
  }
  change.chunks.emplace_back(bytes.begin(), bytes.end());
  change.tags.push_back(tag);
  return change;
}

void ObjectMirror::commit(Change change) {
  const auto at = static_cast<std::ptrdiff_t>(change.index);
  switch (change.op) {
    case MutateOp::kStore:  // the whole object; no rule binds its index
      chunks = std::move(change.chunks);
      tags = std::move(change.tags);
      break;
    case MutateOp::kUpdate:
      chunks[change.index] = std::move(change.chunks.front());
      tags[change.index] = change.tags.front();
      break;
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      chunks.insert(chunks.begin() + at, std::move(change.chunks.front()));
      tags.insert(tags.begin() + at, change.tags.front());
      break;
    case MutateOp::kErase:
      chunks.erase(chunks.begin() + at);
      tags.erase(tags.begin() + at);
      break;
  }
  tree = std::move(change.tree);
}

std::optional<ObjectMirror::Staged> ObjectMirror::stage(
    const std::string& object_key, MutateOp op, std::uint64_t index,
    BytesView chunk, std::uint64_t tag, Bytes leaf_hash) const {
  if (check(op, index, chunk) != ChunkOpFault::kNone) return std::nullopt;
  Change change = compute(op, index, chunk, tag, std::move(leaf_hash));
  VersionRecord record =
      chain.next_record(object_key, op, index, change.tree.leaf_count(),
                        change.tree.root(), tag);
  return Staged{.record = std::move(record), .change = std::move(change)};
}

ChunkOpFault ObjectMirror::apply(const VersionRecord& rec, BytesView bytes) {
  if ((rec.op == MutateOp::kStore) != (rec.version == 1)) {
    return ChunkOpFault::kStoreOp;
  }
  if (const ChunkOpFault fault = check(rec.op, rec.chunk_index, bytes);
      fault != ChunkOpFault::kNone) {
    return fault;
  }
  Change change = compute(rec.op, rec.chunk_index, bytes, rec.chunk_tag, {});
  if (change.tree.leaf_count() != rec.chunk_count) {
    return ChunkOpFault::kChunkCount;
  }
  if (!common::constant_time_equal(change.tree.root(), rec.new_root)) {
    return ChunkOpFault::kNewRoot;
  }
  commit(std::move(change));
  return ChunkOpFault::kNone;
}

}  // namespace tpnr::dyn
