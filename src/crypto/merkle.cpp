#include "crypto/merkle.h"

#include <stdexcept>
#include <thread>

#include "common/error.h"
#include "crypto/sha256_mb.h"

namespace tpnr::crypto {

namespace {

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kNodeTag = 0x01;

/// True when this kind's hashing should go through the multi-lane SHA-256
/// engine (same digests, lanes-at-a-time throughput).
bool use_lanes(HashKind kind) {
  return kind == HashKind::kSha256 && sha256_mb_lanes() > 1;
}

}  // namespace

Bytes MerkleTree::leaf_hash(HashKind kind, BytesView chunk) {
  auto h = make_hash(kind);
  h->update(BytesView(&kLeafTag, 1));
  h->update(chunk);
  return h->finish();
}

Bytes MerkleTree::node_hash(HashKind kind, BytesView left, BytesView right) {
  auto h = make_hash(kind);
  h->update(BytesView(&kNodeTag, 1));
  h->update(left);
  h->update(right);
  return h->finish();
}

MerkleTree::MerkleTree(BytesView data, std::size_t chunk_size, HashKind kind,
                       unsigned threads)
    : chunk_size_(chunk_size), kind_(kind) {
  if (chunk_size == 0) {
    throw common::CryptoError("MerkleTree: chunk_size must be > 0");
  }
  const std::size_t leaf_count =
      data.empty() ? 1 : (data.size() + chunk_size - 1) / chunk_size;

  std::vector<Bytes> leaves(leaf_count);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, leaf_count));

  const bool lanes = use_lanes(kind);
  auto hash_range = [&](std::size_t begin, std::size_t end) {
    auto chunk_at = [&](std::size_t i) {
      const std::size_t offset = i * chunk_size;
      const std::size_t len =
          data.empty() ? 0 : std::min(chunk_size, data.size() - offset);
      return data.subspan(offset, len);
    };
    if (lanes) {
      // Each worker feeds its whole range to the lane engine in one call;
      // SIMD breadth multiplies with thread breadth.
      std::vector<BytesView> views;
      views.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) views.push_back(chunk_at(i));
      auto digests = sha256_many_tagged(kLeafTag, views);
      for (std::size_t i = begin; i < end; ++i) {
        leaves[i] = std::move(digests[i - begin]);
      }
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      leaves[i] = leaf_hash(kind, chunk_at(i));
    }
  };

  if (threads <= 1) {
    hash_range(0, leaf_count);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    const std::size_t per = (leaf_count + threads - 1) / threads;
    for (unsigned t = 0; t < threads; ++t) {
      const std::size_t begin = t * per;
      const std::size_t end = std::min(leaf_count, begin + per);
      if (begin >= end) break;
      pool.emplace_back(hash_range, begin, end);
    }
    for (auto& th : pool) th.join();
  }

  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& below = levels_.back();
    std::vector<Bytes> level((below.size() + 1) / 2);
    if (use_lanes(kind_) && level.size() > 1) {
      // Interior level in one lane dispatch: concatenate each left||right
      // pair into a scratch row and batch-hash the rows.
      const std::size_t digest_len = below[0].size();
      std::vector<std::uint8_t> scratch(level.size() * 2 * digest_len);
      std::vector<BytesView> rows(level.size());
      for (std::size_t i = 0; i < level.size(); ++i) {
        const Bytes& left = below[2 * i];
        // Odd node is paired with itself (Bitcoin-style duplication).
        const Bytes& right =
            (2 * i + 1 < below.size()) ? below[2 * i + 1] : below[2 * i];
        std::uint8_t* row = scratch.data() + i * 2 * digest_len;
        std::copy(left.begin(), left.end(), row);
        std::copy(right.begin(), right.end(), row + digest_len);
        rows[i] = BytesView(row, 2 * digest_len);
      }
      level = sha256_many_tagged(kNodeTag, rows);
    } else {
      for (std::size_t i = 0; i < level.size(); ++i) {
        const Bytes& left = below[2 * i];
        // Odd node is paired with itself (Bitcoin-style duplication).
        const Bytes& right =
            (2 * i + 1 < below.size()) ? below[2 * i + 1] : below[2 * i];
        level[i] = node_hash(kind_, left, right);
      }
    }
    levels_.push_back(std::move(level));
  }
}

MerkleProof MerkleTree::prove(std::size_t index) const {
  if (index >= leaf_count()) {
    throw std::out_of_range("MerkleTree::prove: leaf index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaf_count();
  std::size_t i = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    const std::size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    proof.siblings.push_back(sibling < nodes.size() ? nodes[sibling]
                                                    : nodes[i]);
    i /= 2;
  }
  return proof;
}

bool MerkleTree::verify(BytesView chunk, const MerkleProof& proof,
                        BytesView root, HashKind kind) {
  return verify_from_leaf(leaf_hash(kind, chunk), proof, root, kind);
}

bool MerkleTree::verify_from_leaf(BytesView leaf_digest,
                                  const MerkleProof& proof, BytesView root,
                                  HashKind kind) {
  Bytes acc(leaf_digest.begin(), leaf_digest.end());
  std::size_t i = proof.leaf_index;
  std::size_t width = proof.leaf_count;
  for (const Bytes& sibling : proof.siblings) {
    if (i % 2 == 0) {
      acc = node_hash(kind, acc, sibling);
    } else {
      acc = node_hash(kind, sibling, acc);
    }
    i /= 2;
    width = (width + 1) / 2;
  }
  if (width != 1) return false;
  return common::constant_time_equal(acc, root);
}

}  // namespace tpnr::crypto
