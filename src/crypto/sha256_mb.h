// Multi-buffer SHA-256: hashes batches of independent messages 4 or 8 at a
// time by interleaving them across SIMD lanes (GNU vector extensions, with
// an AVX2-targeted 8-lane build selected by runtime CPU dispatch and a
// scalar fallback everywhere else). Digests are bit-identical to the scalar
// core for every engine — acceleration may never change a digest.
//
// This is the engine under the protocol's hash-dominated hot paths: Merkle
// leaf/interior hashing, batch audit-proof verification, and evidence-hash
// checks all feed independent messages and are throughput-, not latency-,
// bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/hash.h"

namespace tpnr::crypto {

/// The implementations a batch call can run on.
enum class Sha256MbEngine {
  kScalar,  ///< one message at a time through the portable scalar core
  kX4,      ///< 4 lanes, baseline vector ISA (SSE2 on x86-64)
  kX8Avx2,  ///< 8 lanes, AVX2 (only where compiled in and CPU-supported)
};

/// True if `engine` can run in this process (kScalar and kX4 always can on
/// GCC/Clang builds; kX8Avx2 needs the AVX2 TU plus CPU support).
[[nodiscard]] bool sha256_mb_available(Sha256MbEngine engine) noexcept;

/// The widest engine this process supports; every batch call runs on it.
[[nodiscard]] Sha256MbEngine sha256_mb_best_engine() noexcept;

/// Lane count of the best engine (1, 4 or 8).
[[nodiscard]] unsigned sha256_mb_lanes() noexcept;

/// out[i] = SHA-256(messages[i]). Batch of any size, any lengths.
std::vector<Bytes> sha256_many(std::span<const BytesView> messages);

/// out[i] = SHA-256(tag || messages[i]) — the domain-separated form Merkle
/// leaf (0x00) and interior (0x01) hashing use.
std::vector<Bytes> sha256_many_tagged(std::uint8_t tag,
                                      std::span<const BytesView> messages);

/// One message of a mixed batch: an optional single-byte domain tag plus the
/// body. tag < 0 means no prefix.
struct TaggedMessage {
  BytesView msg;
  int tag = -1;
};

/// Batch with a per-message tag — lets a caller fuse differently-tagged
/// hashes of the same pass (e.g. a chunk's evidence digest and its Merkle
/// leaf hash) into one lane dispatch.
std::vector<Bytes> sha256_many_mixed(std::span<const TaggedMessage> messages);

/// Same, pinned to a specific engine (for equivalence tests and the lane
/// ablation). `tag` is nullptr for untagged hashing. Throws CryptoError if
/// the engine is not available.
std::vector<Bytes> sha256_many_engine(Sha256MbEngine engine,
                                      const std::uint8_t* tag,
                                      std::span<const BytesView> messages);

}  // namespace tpnr::crypto
