// Rank-annotated dynamic Merkle tree (the authenticated data structure of
// the dynamic-data extension; after Wang et al.'s MHT-with-ranks and the
// DPDP rank trees the ROADMAP cites).
//
// Unlike crypto::MerkleTree — which is rebuilt from the full byte buffer on
// every change — DynMerkleTree supports update / insert / erase of single
// leaves with O(log n) node re-hashes: the tree is height-balanced
// (AVL by leaf rank), so a mutation touches one root-to-leaf path plus a
// constant number of rotation nodes. Every interior hash commits to the
// LEAF RANKS of its children, so an inclusion proof simultaneously proves
// the chunk's position: a proof for leaf i cannot be replayed as a proof
// for leaf j, even under an identical chunk.
//
//   leaf     = H(0x00 ‖ chunk)                        (same tag as MerkleTree)
//   interior = H(0x01 ‖ u64le(rank_L) ‖ u64le(rank_R) ‖ h_L ‖ h_R)
//   empty    = H(0x02)
//
// The tree stores hashes only — chunk bytes stay with their owner — so a
// client can mirror the provider's tree at 32 bytes per chunk. Nodes are
// immutable and shared: a mutation copies only its root-to-leaf path, so
// copying a tree is O(1) and a copy never sees the original's later
// mutations (nor the original the copy's).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "dyn/version_chain.h"

namespace tpnr::dyn {

using common::Bytes;
using common::BytesView;

/// Batched inclusion proof for a SET of leaves: the pruned tree containing
/// the challenged leaves, with every unchallenged maximal subtree collapsed
/// to its (hash, rank) summary. Shared path prefixes are shipped once, so a
/// batch over c of n leaves costs ~c·log(n/c) sibling summaries instead of
/// c·log(n) independent paths.
struct DynBatchProof {
  std::uint64_t leaf_count = 0;
  Bytes nodes;  ///< recursive pruned-tree encoding (see dyn_merkle.cpp)

  [[nodiscard]] Bytes encode() const;
  static DynBatchProof decode(BytesView data);
  [[nodiscard]] std::size_t encoded_size() const;
};

/// One challenged leaf recovered from a verified batch proof.
struct VerifiedLeaf {
  std::uint64_t index = 0;
  Bytes leaf_hash;
};

class DynMerkleTree {
 public:
  /// Empty tree (leaf_count() == 0, root() == empty_root()).
  DynMerkleTree() = default;

  /// Canonical balanced build over `chunks` (leaf hashes run through the
  /// multi-lane SHA-256 engine). A tree mutated by update_leaf() only keeps
  /// the build shape, so update-only histories stay byte-identical to a
  /// fresh build over the final chunk vector.
  static DynMerkleTree build(std::span<const BytesView> chunks);

  [[nodiscard]] std::uint64_t leaf_count() const noexcept {
    return root_ ? rank_of(root_.get()) : 0;
  }
  /// Root hash; empty_root() for an empty tree.
  [[nodiscard]] const Bytes& root() const;
  [[nodiscard]] static const Bytes& empty_root();

  /// Leaf hash of chunk `index`. Throws std::out_of_range.
  [[nodiscard]] const Bytes& leaf_hash(std::uint64_t index) const;

  // Mutations. Each re-hashes and allocates O(log n) nodes (the path it
  // copies) — hash_computations() meters exactly how many hashes. All throw
  // std::out_of_range on a bad index.
  void update_leaf(std::uint64_t index, Bytes leaf_hash);
  /// Inserts BEFORE `index` (index == leaf_count() appends).
  void insert_leaf(std::uint64_t index, Bytes leaf_hash);
  void erase(std::uint64_t index);

  /// Batched proof for sorted, deduplicated `indices`. Throws
  /// std::out_of_range on any bad index, std::invalid_argument if unsorted.
  [[nodiscard]] DynBatchProof prove_batch(
      std::span<const std::uint64_t> indices) const;

  /// Verifies a batch proof against `root`; on success fills `out` with the
  /// challenged leaves in ascending index order. Each index is RECOMPUTED
  /// from the rank annotations, never taken from the prover, so a proof
  /// binds every leaf to its position. Returns false on any hash,
  /// rank or structure mismatch (malformed encodings also return false).
  static bool verify_batch(const DynBatchProof& proof, BytesView root,
                           std::vector<VerifiedLeaf>& out);

  /// Node hashes computed since construction or reset (a copy carries the
  /// original's count) — the O(log n) counter the mutation tests assert
  /// on. The canonical build counts its leaf hashes too (2n−1); a mutation
  /// takes its leaf hash ready-made and counts interior nodes only.
  [[nodiscard]] std::uint64_t hash_computations() const noexcept {
    return hash_computations_;
  }
  void reset_hash_computations() noexcept { hash_computations_ = 0; }

  /// Recomputes EVERY node hash of the current structure from scratch and
  /// returns the root — the reference the incremental-maintenance tests
  /// diff against (a stale cached hash anywhere makes them differ).
  [[nodiscard]] Bytes recompute_root_reference() const;

  /// Leaf hashes in index order (the client tags chunks over these).
  [[nodiscard]] std::vector<Bytes> leaf_hashes() const;

  /// H(0x00 ‖ chunk) — shared with crypto::MerkleTree's leaf convention.
  static Bytes hash_chunk(BytesView chunk);
  /// Batch form through the multi-lane engine.
  static std::vector<Bytes> hash_chunks(std::span<const BytesView> chunks);

 private:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  struct Node {
    NodePtr left;
    NodePtr right;
    Bytes hash;
    std::uint64_t rank = 1;  ///< leaves in this subtree
    int height = 0;          ///< 0 for a leaf

    [[nodiscard]] bool is_leaf() const noexcept { return left == nullptr; }
  };

  static std::uint64_t rank_of(const Node* node) noexcept {
    return node ? node->rank : 0;
  }
  static int height_of(const Node* node) noexcept {
    return node ? node->height : -1;
  }

  static NodePtr leaf(Bytes leaf_hash);
  /// A new interior node over `left` and `right`: rank, height and hash.
  NodePtr interior(NodePtr left, NodePtr right);
  /// The rotations of an interior node over `left` and `right`.
  NodePtr rotate_left(const NodePtr& left, const Node& right);
  NodePtr rotate_right(const Node& left, const NodePtr& right);
  NodePtr rebalance(NodePtr node);
  NodePtr build_range(std::span<const Bytes> leaf_hashes);
  NodePtr update_at(const Node& node, std::uint64_t index, Bytes&& leaf_hash);
  NodePtr insert_at(const NodePtr& node, std::uint64_t index,
                    Bytes&& leaf_hash);
  NodePtr erase_at(const Node& node, std::uint64_t index);
  static Bytes reference_hash(const Node* node);

  NodePtr root_;
  std::uint64_t hash_computations_ = 0;
};

/// Splits `data` into `chunk_size`-byte chunks (last one short). Throws
/// common::Error on chunk_size == 0; empty data yields no chunks.
std::vector<Bytes> split_chunks(BytesView data, std::size_t chunk_size);

/// The inverse of split_chunks: the object bytes the chunks slice.
Bytes join_chunks(std::span<const Bytes> chunks);

/// Non-owning views over an owned chunk vector (for span-taking APIs).
std::vector<BytesView> chunk_views(std::span<const Bytes> chunks);

// ---- The object mirror ---------------------------------------------------
//
// A dynamic or shared object is one byte string that the store re-slices at
// a fixed chunk_size stride, so every chunk op must keep "only the last
// chunk may be short": ObjectMirror::check is that data-layout policy.

/// Why a chunk op was refused (kNone: it was not).
enum class ChunkOpFault : std::uint8_t {
  kNone = 0,
  kStoreOp,               ///< kStore is exactly version 1's op
  kIndexOutOfRange,       ///< past the end, or an append not at the end
  kEraseCarriesBytes,
  kNoChunkBytes,
  kOversizeChunk,
  kShortInteriorChunk,    ///< only the last chunk may be short
  kAppendAfterShortTail,
  kChunkCount,            ///< record's chunk_count is not the post-op count
  kNewRoot,               ///< record's new_root is not the post-op root
};
/// The reason a rejection of `fault` carries.
const char* chunk_op_fault_reason(ChunkOpFault fault);

/// One versioned object as an actor mirrors it, the one owner of its state
/// that the dyn and consistency actors' per-object states derive from: the
/// chunks its stride slices it into, their rank tree, a PoR tag per chunk
/// (kept in step with the chunks; all 0 on a shared object, whose records
/// carry chunk_tag 0) and the chain of records that commit to them.
///
/// An op is computed, then committed: stage() and apply() compute the next
/// state without touching this one (the tree copy is O(1) and the op copies
/// only its O(log n) path), and commit() installs it. A refused or faulty
/// op leaves nothing to restore.
struct ObjectMirror {
  /// A computed op, not yet installed: the post-op tree and the chunk and
  /// tag edit at `index`.
  struct Change {
    MutateOp op = MutateOp::kUpdate;
    std::uint64_t index = 0;
    DynMerkleTree tree;
    /// Written at `index`: one chunk, none for an erase, every chunk for a
    /// kStore.
    std::vector<Bytes> chunks;
    std::vector<std::uint64_t> tags;  ///< one per written chunk
  };
  /// A client op computed against the mirror: the record to sign and the
  /// change it commits to.
  struct Staged {
    VersionRecord record;
    Change change;
  };

  std::size_t chunk_size = 0;
  std::vector<Bytes> chunks;
  DynMerkleTree tree;
  std::vector<std::uint64_t> tags;
  VersionChain chain;  ///< countersigned records; apply() never extends it

  /// The stride rule: may `op` at `index`, carrying `bytes`, apply? Checks
  /// the index range per op (append only at the end), that an erase
  /// carries no bytes, that a written chunk is non-empty and at most one
  /// stride, that only the tail may be short, and that nothing is appended
  /// after a short tail. A kStore (`bytes` the whole object) needs an
  /// empty mirror, some bytes and a stride.
  [[nodiscard]] ChunkOpFault check(MutateOp op, std::uint64_t index,
                                   BytesView bytes) const;

  /// Computes a client op: refuses (nullopt) what check() refuses, else
  /// returns the record of `object_key`'s next version and the change it
  /// commits to, `tag` being the written chunk's tag and `leaf_hash` its
  /// precomputed leaf hash (empty: hashed here, once). A kStore builds
  /// from `chunk`, the whole object, every tag 0.
  [[nodiscard]] std::optional<Staged> stage(const std::string& object_key,
                                            MutateOp op, std::uint64_t index,
                                            BytesView chunk,
                                            std::uint64_t tag = 0,
                                            Bytes leaf_hash = {}) const;

  /// Installs a change computed against this mirror's current state.
  void commit(Change change);

  /// Applies `rec`, its chunk in `bytes` (the whole object for a kStore,
  /// which is only ever version 1) and its tag in rec.chunk_tag: checks
  /// the op, computes it, checks its chunk_count and new_root against the
  /// result, and only then commits. On any fault the mirror is unchanged.
  ChunkOpFault apply(const VersionRecord& rec, BytesView bytes);

 private:
  [[nodiscard]] Change compute(MutateOp op, std::uint64_t index,
                               BytesView bytes, std::uint64_t tag,
                               Bytes leaf_hash) const;
};

}  // namespace tpnr::dyn
