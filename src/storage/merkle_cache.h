// MerkleCache: build each object's Merkle tree once and serve every later
// proof from the cached tree. Entries are validated by BUFFER IDENTITY, not
// by key or version: an entry holds a Payload share of the exact bytes the
// tree was built over, and a lookup hits only when the caller's payload
// aliases that same buffer (common::Payload::aliases).
//
// That makes stale service structurally impossible. Every mutation path in
// the store — administrator tamper, fault injection, backend corruption —
// goes through Payload's copy-on-write detach, so changed bytes always live
// in a NEW buffer; the lookup misses and the tree is rebuilt over what the
// caller actually holds. A cached tree can therefore never mask a tamper:
// the cache returns a tree for precisely the bytes passed in, never for the
// bytes the object used to have.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "common/payload.h"
#include "crypto/merkle.h"

namespace tpnr::storage {

class MerkleCache {
 public:
  /// `capacity`: max cached entries; on overflow the cache drops everything
  /// (objects under audit recur immediately, so a cold restart is cheap).
  explicit MerkleCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// The tree over `data` with `chunk_size` chunking. Hit: `data` aliases
  /// the cached entry's buffer, the chunking matches AND the object version
  /// matches — entries are keyed on (object, version), so a tree primed
  /// before a mutation can never serve a post-mutation proof even if a
  /// buffer is recycled. Miss: builds, caches under `key` (replacing any
  /// previous entry), returns.
  std::shared_ptr<const crypto::MerkleTree> get_or_build(
      const std::string& key, const common::Payload& data,
      std::size_t chunk_size, std::uint64_t version = 0);

  /// Drops `key`'s entry (explicit invalidation on tamper/abort; alias
  /// validation already protects correctness, this frees the pinned buffer).
  void invalidate(const std::string& key);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  struct Entry {
    common::Payload source;  ///< pins the buffer the tree was built over
    std::size_t chunk_size = 0;
    std::uint64_t version = 0;  ///< object version the tree was built at
    std::shared_ptr<const crypto::MerkleTree> tree;
  };

  std::map<std::string, Entry> entries_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tpnr::storage
