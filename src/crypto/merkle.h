// Merkle hash tree over fixed-size chunks with thread-parallel leaf hashing.
// Large uploads (the paper's >1 TB Import/Export jobs) are integrity-checked
// per chunk; the root stands in for the whole-object digest in evidence, and
// inclusion proofs let a reader verify a single chunk without the rest.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/hash.h"

namespace tpnr::crypto {

struct MerkleProof {
  std::size_t leaf_index = 0;
  std::size_t leaf_count = 0;
  /// Sibling hashes from leaf level to just below the root.
  std::vector<Bytes> siblings;
};

class MerkleTree {
 public:
  /// Builds the tree over `data` split into `chunk_size`-byte chunks,
  /// hashing leaves with `kind`. `threads` = 0 picks the hardware count.
  /// Leaf and interior nodes are domain-separated (0x00 / 0x01 prefixes) so
  /// an interior hash cannot be replayed as a leaf.
  MerkleTree(BytesView data, std::size_t chunk_size,
             HashKind kind = HashKind::kSha256, unsigned threads = 0);

  [[nodiscard]] const Bytes& root() const noexcept { return levels_.back()[0]; }
  [[nodiscard]] std::size_t leaf_count() const noexcept {
    return levels_.front().size();
  }
  [[nodiscard]] std::size_t chunk_size() const noexcept { return chunk_size_; }

  /// Inclusion proof for chunk `index`. Throws std::out_of_range.
  [[nodiscard]] MerkleProof prove(std::size_t index) const;

  /// Verifies that `chunk` is chunk `proof.leaf_index` of the object whose
  /// Merkle root is `root`.
  static bool verify(BytesView chunk, const MerkleProof& proof,
                     BytesView root, HashKind kind = HashKind::kSha256);

  /// verify() with the leaf hash already computed — for callers that batch
  /// the leaf hash with other digests of the same pass (the auditor fuses a
  /// chunk's evidence digest and its leaf hash into one lane dispatch).
  static bool verify_from_leaf(BytesView leaf_digest, const MerkleProof& proof,
                               BytesView root,
                               HashKind kind = HashKind::kSha256);

 private:
  static Bytes leaf_hash(HashKind kind, BytesView chunk);
  static Bytes node_hash(HashKind kind, BytesView left, BytesView right);

  std::size_t chunk_size_;
  HashKind kind_;
  /// levels_[0] = leaves, levels_.back() = {root}.
  std::vector<std::vector<Bytes>> levels_;
};

}  // namespace tpnr::crypto
