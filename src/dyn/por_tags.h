// Homomorphic-style chunk tags and aggregated audit proofs (the compact
// challenge mode of the dynamic-data extension; after Shacham–Waters
// private-verification PoR as surveyed by Sengupta–Ruj).
//
// Each chunk is split into 7-byte sectors interpreted as elements of the
// prime field F_p with p = 2^61 − 1, and tagged
//
//   tag_i = PRF_k(leaf_hash_i) + Σ_j α_j · m_{i,j}   (mod p)
//
// where the PRF key k and the sector coefficients α_j are secrets shared by
// the client and the auditor (the provider stores tags it cannot forge).
// Keying the PRF on the chunk's LEAF HASH — not its index — is what makes
// the tags dynamic-friendly: insert/erase shifts indices but never
// invalidates an untouched chunk's tag, so a mutation re-tags exactly one
// chunk. Positional binding comes from the rank-annotated Merkle proof that
// accompanies every response.
//
// A challenge samples c chunks with per-chunk weights ν_i from a seeded
// Drbg; the response aggregates
//
//   σ = Σ_i ν_i · tag_i        μ_j = Σ_i ν_i · m_{i,j}   (mod p)
//
// plus ONE batched Merkle proof for the sampled leaf hashes — so proof
// bytes are O(sectors + c·log(n/c) hashes) regardless of chunk size,
// instead of c full chunks. The verifier recomputes
//
//   σ' = Σ_i ν_i · PRF_k(leaf_hash_i) + Σ_j α_j · μ_j   (mod p)
//
// over the PROVEN leaf hashes and accepts iff σ' == σ.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "dyn/dyn_merkle.h"

namespace tpnr::dyn {

using common::Bytes;
using common::BytesView;

/// Arithmetic in F_p, p = 2^61 − 1 (a Mersenne prime, so reduction is two
/// shifts: 2^61 ≡ 1 (mod p)).
namespace fp {

inline constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;

/// Reduces an arbitrary 64-bit value into [0, p).
[[nodiscard]] std::uint64_t reduce(std::uint64_t x) noexcept;
/// (a + b) mod p for a, b < p.
[[nodiscard]] std::uint64_t add(std::uint64_t a, std::uint64_t b) noexcept;
/// (a · b) mod p for a, b < p.
[[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace fp

/// Bytes per sector: 7-byte little-endian values are < 2^56 < p, so every
/// sector is already a canonical field element.
inline constexpr std::size_t kSectorBytes = 7;

/// Sectors per chunk for a given chunk size (the last sector may be
/// zero-padded; short final chunks are padded the same way).
[[nodiscard]] std::size_t sectors_per_chunk(std::size_t chunk_size);

/// Unpacks `chunk` into exactly `sector_count` field elements (bytes past
/// the end of the chunk read as zero).
std::vector<std::uint64_t> chunk_sectors(BytesView chunk,
                                         std::size_t sector_count);

/// The client/auditor tagging secret. The provider never sees it — it only
/// stores the resulting tags. It holds the HMAC key states of its two keys,
/// keyed once when it is built, so a PRF call costs one keyed HMAC.
class TagKey {
 public:
  /// The empty-keyed placeholder a target holds until it is assigned a
  /// derived key.
  TagKey() : TagKey({}, {}) {}

  /// Deterministic per-object key from a master secret (domain-separated by
  /// the object key, so objects cannot cross-satisfy challenges).
  static TagKey derive(BytesView master, std::string_view object_key);

  /// PRF_k(leaf_hash) as a field element.
  [[nodiscard]] std::uint64_t prf(BytesView leaf_hash) const;

  /// α_0 .. α_{sector_count−1}.
  [[nodiscard]] std::vector<std::uint64_t> alphas(
      std::size_t sector_count) const;

 private:
  TagKey(BytesView prf_key, BytesView alpha_key);

  crypto::HmacKeyState prf_;    ///< keys PRF_k(leaf_hash)
  crypto::HmacKeyState alpha_;  ///< derives the sector coefficients α_j
};

/// One object's α vector for one chunk size. It is derived once
/// (TagKey::alphas) when the object is stored, and the client and the
/// auditor share it; nothing on the tag or verify path re-derives it.
using SharedAlphas = std::shared_ptr<const std::vector<std::uint64_t>>;

/// Tag for one chunk given its precomputed leaf hash and the α vector.
[[nodiscard]] std::uint64_t make_tag(const TagKey& key, BytesView chunk,
                                     BytesView leaf_hash,
                                     std::span<const std::uint64_t> alphas);

/// Tags every chunk of an object, `leaf_hashes` being the chunks' leaf
/// hashes in the same order (a tree build has them already). The α
/// vector's length fixes the sector count, so short chunks are padded to
/// the object's stride.
std::vector<std::uint64_t> make_tags(const TagKey& key,
                                     std::span<const BytesView> chunks,
                                     std::span<const Bytes> leaf_hashes,
                                     std::span<const std::uint64_t> alphas);

/// A compact-audit challenge: (seed, count) is all that travels on the wire;
/// both sides expand it identically.
struct AggChallenge {
  std::uint64_t seed = 0;
  std::uint64_t count = 0;  ///< sampled chunks (clamped to leaf_count)

  struct Item {
    std::uint64_t index = 0;  ///< challenged chunk
    std::uint64_t nu = 0;     ///< its weight ν, in [1, p)
  };

  /// Expands to distinct challenged indices in ascending order with their
  /// weights. Deterministic in (seed, count, leaf_count).
  [[nodiscard]] std::vector<Item> derive(std::uint64_t leaf_count) const;
};

/// The aggregated response: constant-size algebra plus one batched Merkle
/// proof, independent of chunk size.
struct AggResponse {
  std::uint64_t version = 0;  ///< provider's version-chain head at answer time
  Bytes root;                 ///< the root the proof verifies against
  std::uint64_t sigma = 0;    ///< Σ ν_i · tag_i
  std::vector<std::uint64_t> mu;  ///< μ_j = Σ ν_i · m_{i,j}, one per sector
  DynBatchProof proof;            ///< batched proof for the sampled leaves

  [[nodiscard]] Bytes encode() const;
  /// Throws common::SerialError on malformed input.
  static AggResponse decode(BytesView data);
  /// Wire size (for bandwidth accounting).
  [[nodiscard]] std::size_t encoded_size() const;
};

/// Prover side: aggregates tags and sectors over the challenged chunks and
/// attaches the batched proof from `tree`. `chunks` and `tags` are the full
/// per-chunk vectors; `version` is the provider's version-chain head.
AggResponse make_agg_response(const AggChallenge& challenge,
                              const DynMerkleTree& tree,
                              std::span<const BytesView> chunks,
                              std::span<const std::uint64_t> tags,
                              std::size_t chunk_size, std::uint64_t version);

/// Verifier side: checks the batched proof against `root`, that the proven
/// leaf set equals the challenged set, and the σ/μ algebra under `key` and
/// the object's `alphas` (rejected unless it holds one α per sector of
/// `chunk_size`). Does NOT compare `root`/`version` to the chain head — the
/// caller decides what stale or rolled-back heads mean (see
/// audit::AuditorActor).
[[nodiscard]] bool verify_agg_response(const AggChallenge& challenge,
                                       const AggResponse& response,
                                       const TagKey& key,
                                       std::span<const std::uint64_t> alphas,
                                       std::uint64_t leaf_count,
                                       std::size_t chunk_size, BytesView root);

}  // namespace tpnr::dyn
