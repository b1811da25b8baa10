#include "storage/merkle_cache.h"

#include "crypto/counters.h"

namespace tpnr::storage {

std::shared_ptr<const crypto::MerkleTree> MerkleCache::get_or_build(
    const std::string& key, const common::Payload& data,
    std::size_t chunk_size, std::uint64_t version) {
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.chunk_size == chunk_size &&
      it->second.version == version && it->second.source.aliases(data)) {
    ++hits_;
    crypto::counters().tree_rebuilds_avoided.fetch_add(
        1, std::memory_order_relaxed);
    return it->second.tree;
  }
  ++misses_;
  crypto::counters().tree_builds.fetch_add(1, std::memory_order_relaxed);
  auto tree = std::make_shared<const crypto::MerkleTree>(data, chunk_size);
  if (it == entries_.end() && entries_.size() >= capacity_) {
    entries_.clear();
  }
  entries_[key] = Entry{data, chunk_size, version, tree};
  return tree;
}

void MerkleCache::invalidate(const std::string& key) { entries_.erase(key); }

}  // namespace tpnr::storage
