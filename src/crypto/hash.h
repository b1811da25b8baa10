// Incremental hash interface shared by MD5/SHA-1/SHA-2, plus one-shot
// helpers. HMAC and Merkle are generic over this interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"

namespace tpnr::crypto {

using common::Bytes;
using common::BytesView;

enum class HashKind {
  kMd5,
  kSha1,
  kSha224,
  kSha256,
  kSha384,
  kSha512,
};

/// Returns the canonical lowercase name ("md5", "sha256", ...).
std::string hash_name(HashKind kind);

/// Streaming hash. Not thread-safe per instance; instances are cheap.
class Hash {
 public:
  virtual ~Hash() = default;

  /// Absorbs more input.
  virtual void update(BytesView data) = 0;
  /// Finalizes and returns the digest; the instance must be reset() before
  /// reuse.
  virtual Bytes finish() = 0;
  /// Returns to the initial state.
  virtual void reset() = 0;

  /// Digest size in bytes (16 for MD5, 32 for SHA-256, ...).
  [[nodiscard]] virtual std::size_t digest_size() const noexcept = 0;
  /// Internal block size in bytes (64 for MD5/SHA-1/SHA-256, 128 for
  /// SHA-384/512); HMAC keys are padded to this.
  [[nodiscard]] virtual std::size_t block_size() const noexcept = 0;
  [[nodiscard]] virtual HashKind kind() const noexcept = 0;

  /// Fresh instance of the same algorithm in its initial state.
  [[nodiscard]] virtual std::unique_ptr<Hash> fresh() const = 0;
};

/// Factory for any supported algorithm.
std::unique_ptr<Hash> make_hash(HashKind kind);

/// One-shot convenience: digest(kind, data).
Bytes digest(HashKind kind, BytesView data);

/// One-shot MD5 — the checksum used throughout the paper's platforms.
Bytes md5(BytesView data);

/// One-shot SHA-256 — used by evidence hashes and SharedKey signatures.
/// Adds its padded block count to counters().scalar_blocks.
Bytes sha256(BytesView data);

}  // namespace tpnr::crypto
