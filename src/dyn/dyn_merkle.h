// Rank-annotated dynamic Merkle tree (the authenticated data structure of
// the dynamic-data extension; after Wang et al.'s MHT-with-ranks and the
// DPDP rank trees the ROADMAP cites).
//
// Unlike crypto::MerkleTree — which is rebuilt from the full byte buffer on
// every change — DynMerkleTree supports update / insert / append / erase of
// single chunks with O(log n) node re-hashes: the tree is height-balanced
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
// client can mirror the provider's tree at 32 bytes per chunk.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "dyn/version_chain.h"

namespace tpnr::dyn {

using common::Bytes;
using common::BytesView;

/// One step of an inclusion proof, leaf to root. `sibling_rank` feeds both
/// the interior-hash recomputation and the position check.
struct DynProofStep {
  bool sibling_on_left = false;
  std::uint64_t sibling_rank = 0;
  Bytes sibling_hash;
};

/// Inclusion-plus-position proof for one chunk.
struct DynProof {
  std::uint64_t leaf_index = 0;
  std::uint64_t leaf_count = 0;
  std::vector<DynProofStep> steps;

  [[nodiscard]] Bytes encode() const;
  /// Throws common::SerialError on malformed input.
  static DynProof decode(BytesView data);
  /// Wire size of the encoded proof (for bandwidth accounting).
  [[nodiscard]] std::size_t encoded_size() const;
};

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

  DynMerkleTree(DynMerkleTree&&) noexcept = default;
  DynMerkleTree& operator=(DynMerkleTree&&) noexcept = default;
  DynMerkleTree(const DynMerkleTree&) = delete;
  DynMerkleTree& operator=(const DynMerkleTree&) = delete;

  /// Canonical balanced build over `chunks` (leaf hashes run through the
  /// multi-lane SHA-256 engine). A tree mutated by update() only keeps the
  /// build shape, so update-only histories stay byte-identical to a fresh
  /// build over the final chunk vector.
  static DynMerkleTree build(std::span<const BytesView> chunks);

  [[nodiscard]] std::uint64_t leaf_count() const noexcept {
    return root_ ? rank_of(root_.get()) : 0;
  }
  /// Root hash; empty_root() for an empty tree.
  [[nodiscard]] const Bytes& root() const;
  [[nodiscard]] static const Bytes& empty_root();

  /// Leaf hash of chunk `index`. Throws std::out_of_range.
  [[nodiscard]] const Bytes& leaf_hash(std::uint64_t index) const;

  // Mutations. Each re-hashes O(log n) nodes — hash_computations() meters
  // exactly how many. All throw std::out_of_range on a bad index.
  void update(std::uint64_t index, BytesView chunk);
  void update_leaf(std::uint64_t index, Bytes leaf_hash);
  /// Inserts BEFORE `index` (index == leaf_count() appends).
  void insert(std::uint64_t index, BytesView chunk);
  void insert_leaf(std::uint64_t index, Bytes leaf_hash);
  void append(BytesView chunk) { insert(leaf_count(), chunk); }
  void erase(std::uint64_t index);

  /// Inclusion-plus-position proof for leaf `index`.
  [[nodiscard]] DynProof prove(std::uint64_t index) const;
  /// Batched proof for sorted, deduplicated `indices`. Throws
  /// std::out_of_range on any bad index, std::invalid_argument if unsorted.
  [[nodiscard]] DynBatchProof prove_batch(
      std::span<const std::uint64_t> indices) const;

  /// Verifies `chunk` sits at `proof.leaf_index` of the tree rooted at
  /// `root` — the index is RECOMPUTED from the rank annotations and must
  /// match the claimed one.
  static bool verify(BytesView chunk, const DynProof& proof, BytesView root);
  static bool verify_leaf(BytesView leaf_hash, const DynProof& proof,
                          BytesView root);

  /// Verifies a batch proof against `root`; on success fills `out` with the
  /// challenged leaves in ascending index order. Returns false on any hash,
  /// rank or structure mismatch (malformed encodings also return false).
  static bool verify_batch(const DynBatchProof& proof, BytesView root,
                           std::vector<VerifiedLeaf>& out);

  /// Node hashes computed since construction or reset — the O(log n)
  /// counter the mutation tests assert on. Leaf and interior hashes both
  /// count; the canonical build counts 2n−1.
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

  /// Structural deep copy (no hashing — hash_computations() of the copy
  /// starts at 0). The optimistic-mutation path snapshots the tree with
  /// this so a provider rejection can restore the EXACT pre-op shape —
  /// shapes are history-dependent, so a canonical rebuild would not do.
  [[nodiscard]] DynMerkleTree clone() const;

 private:
  struct Node {
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
    Bytes hash;
    std::uint64_t rank = 1;  ///< leaves in this subtree
    int height = 0;          ///< 0 for a leaf

    [[nodiscard]] bool is_leaf() const noexcept { return left == nullptr; }
  };
  using NodePtr = std::unique_ptr<Node>;

  static std::uint64_t rank_of(const Node* node) noexcept {
    return node ? node->rank : 0;
  }
  static int height_of(const Node* node) noexcept {
    return node ? node->height : -1;
  }

  void refresh(Node* node);  ///< recompute rank/height/hash from children
  NodePtr rotate_left(NodePtr node);
  NodePtr rotate_right(NodePtr node);
  NodePtr rebalance(NodePtr node);
  NodePtr build_range(std::span<const Bytes> leaf_hashes);
  void update_at(Node* node, std::uint64_t index, Bytes&& leaf_hash);
  NodePtr insert_at(NodePtr node, std::uint64_t index, Bytes&& leaf_hash);
  NodePtr erase_at(NodePtr node, std::uint64_t index);
  static Bytes reference_hash(const Node* node);
  static NodePtr clone_node(const Node* node);

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

// ---- The chunk-op rule ---------------------------------------------------
//
// A dynamic or shared object is one byte string that the store re-slices at
// a fixed chunk_size stride, so every chunk op must keep "only the last
// chunk may be short". check_chunk_op is that data-layout policy and
// apply_chunk_op the one way an op reaches a mirror; the dyn and
// consistency clients and providers all go through them, the committing
// side by way of apply_record.

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

/// The stride rule: may `op` at `index`, carrying `chunk`, apply to an
/// object sliced into `chunks` at `chunk_size`? Checks the index range per
/// op (append only at the end), that an erase carries no bytes, that a
/// written chunk is non-empty and at most one stride, that only the tail
/// may be short, and that nothing is appended after a short tail.
ChunkOpFault check_chunk_op(MutateOp op, std::uint64_t index, BytesView chunk,
                            std::span<const Bytes> chunks,
                            std::size_t chunk_size);

/// An actor's mirror of one chunked object. PoR tags, where the actor keeps
/// them, ride along chunk for chunk.
struct ChunkMirror {
  DynMerkleTree& tree;
  std::vector<Bytes>& chunks;
  std::vector<std::uint64_t>* tags = nullptr;
};

/// What undo_chunk_op needs to restore a mirror to its exact pre-op state.
struct ChunkOpUndo {
  MutateOp op = MutateOp::kUpdate;
  std::uint64_t index = 0;
  /// The pre-op tree. Shapes are history-dependent (rotations need not
  /// invert), so it is restored, never re-derived by an inverse op.
  DynMerkleTree tree;
  Bytes chunk;  ///< the chunk an update replaced or an erase removed
  std::uint64_t tag = 0;
};

/// Applies a checked op to `mirror`: `tag` is the written chunk's tag, and
/// `leaf_hash` its precomputed leaf hash (empty: hashed here, once).
ChunkOpUndo apply_chunk_op(ChunkMirror mirror, MutateOp op,
                           std::uint64_t index, BytesView chunk,
                           std::uint64_t tag = 0, Bytes leaf_hash = {});
void undo_chunk_op(ChunkMirror mirror, ChunkOpUndo undo);

/// Applies `rec` to `mirror`, an object sliced at `chunk_size`, and checks
/// the record's chunk_count and new_root against the result. A kStore
/// record (only ever version 1) builds the mirror from the object `bytes`
/// (PoR tags are the caller's to set); any other op must keep the stride
/// rule (check_chunk_op), carries its chunk in `bytes` and its tag in
/// rec.chunk_tag. On any fault the mirror is left unchanged.
ChunkOpFault apply_record(ChunkMirror mirror, std::size_t chunk_size,
                          const VersionRecord& rec, BytesView bytes);

}  // namespace tpnr::dyn
