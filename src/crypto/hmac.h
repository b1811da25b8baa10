// HMAC (RFC 2104) over any Hash. Azure's SharedKey authorization (Table 1)
// is HMAC-SHA256; the secure channel's record MAC uses it too.
#pragma once

#include <memory>

#include "crypto/hash.h"
#include "crypto/sha256.h"

namespace tpnr::crypto {

/// Streaming HMAC. Keys longer than the block size are hashed first, per the
/// RFC. For the SHA-256 family the keyed ipad/opad blocks are compressed
/// once at construction and every subsequent MAC resumes from the captured
/// midstates, skipping two compressions per tag.
class Hmac {
 public:
  Hmac(HashKind kind, BytesView key);

  void update(BytesView data);
  /// Finalizes the tag and re-keys the instance for reuse.
  Bytes finish();

  [[nodiscard]] std::size_t tag_size() const noexcept {
    return inner_->digest_size();
  }

 private:
  void start();

  std::unique_ptr<Hash> inner_;
  std::unique_ptr<Hash> outer_;
  Bytes ipad_;
  Bytes opad_;
  bool use_midstate_ = false;
  Sha256Midstate inner_mid_;
  Sha256Midstate outer_mid_;
};

/// Precomputed HMAC key state for the SHA-256 family: the keyed ipad and
/// opad blocks are compressed exactly once, here, and every mac() resumes
/// from the stored midstates. Immutable after construction and safe to share
/// across threads; mac() allocates nothing but the result.
///
/// Whoever owns a recurring key owns its state (the secure channel's record
/// MAC, a PoR TagKey), so the two pad compressions amortize to zero across
/// its messages.
class HmacKeyState {
 public:
  /// `kind` must be kSha224 or kSha256; throws CryptoError otherwise.
  HmacKeyState(HashKind kind, BytesView key);

  /// HMAC(key, data), resumed from the cached midstates.
  [[nodiscard]] Bytes mac(BytesView data) const;

  [[nodiscard]] HashKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t tag_size() const noexcept {
    return kind_ == HashKind::kSha224 ? 28 : 32;
  }

 private:
  HashKind kind_;
  Sha256Midstate inner_mid_;
  Sha256Midstate outer_mid_;
};

/// One-shot convenience.
Bytes hmac(HashKind kind, BytesView key, BytesView data);

/// One-shot HMAC-SHA256, the variant used by SharedKey and the NR channel.
Bytes hmac_sha256(BytesView key, BytesView data);

}  // namespace tpnr::crypto
