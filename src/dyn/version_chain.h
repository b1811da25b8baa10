// Versioned non-repudiation records for dynamic objects.
//
// Every mutation produces a VersionRecord signing
//
//   (object, version, op, old_root, new_root, prev_record_hash, ...)
//
// The client signs the record (it cannot later repudiate the update) and
// the provider countersigns client-record‖client-sig (it cannot later deny
// having committed it) — the dynamic-data analogue of the paper's NRO/NRR
// pair. prev_record_hash makes the records a hash-linked chain: the TTP
// walks it during disputes, and any attempt to re-order, drop or fork
// history breaks a link. The chain head (version, new_root) is what the
// continuous auditor pins aggregated responses against, which is how stale
// serves and rollbacks become detectable (see dyn/dispute.h for the §2.4
// decision-table extension).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/rsa.h"

namespace tpnr::pki {
class Identity;
}  // namespace tpnr::pki

namespace tpnr::dyn {

using common::Bytes;
using common::BytesView;

/// The mutation kinds a version record can commit.
enum class MutateOp : std::uint8_t {
  kStore = 1,   ///< initial store (creates version 1)
  kUpdate = 2,  ///< replace chunk `chunk_index`
  kInsert = 3,  ///< insert before `chunk_index`
  kAppend = 4,  ///< insert at the end
  kErase = 5,   ///< remove chunk `chunk_index`
};
std::string mutate_op_name(MutateOp op);

/// One link of the version chain. `version` is the object version AFTER the
/// op; the first record (kStore) creates version 1 with an all-zero
/// prev_record_hash.
struct VersionRecord {
  std::string object_key;
  std::uint64_t version = 0;
  MutateOp op = MutateOp::kStore;
  std::uint64_t chunk_index = 0;  ///< target chunk (0 for kStore)
  std::uint64_t chunk_count = 0;  ///< leaf count AFTER the op
  Bytes old_root;                 ///< tree root before (empty root for kStore)
  Bytes new_root;                 ///< tree root after
  std::uint64_t chunk_tag = 0;    ///< PoR tag of the touched chunk (0: kErase)
  Bytes prev_record_hash;         ///< SHA-256 link; 32 zero bytes for v1

  [[nodiscard]] Bytes encode() const;
  /// Throws common::SerialError on malformed input.
  static VersionRecord decode(BytesView data);
  /// SHA-256 over encode() — what the next record links to.
  [[nodiscard]] Bytes hash() const;

  /// The 32-zero-byte link the first record carries.
  static const Bytes& genesis_link();
};

/// A version record with both parties' signatures.
struct SignedVersionRecord {
  VersionRecord record;
  Bytes client_sig;    ///< Sign_client(record.encode())
  Bytes provider_sig;  ///< Sign_provider(record.encode() ‖ client_sig)

  [[nodiscard]] Bytes encode() const;
  static SignedVersionRecord decode(BytesView data);

  /// record.encode() ‖ client_sig: what the provider countersigns.
  [[nodiscard]] Bytes countersigned() const;
  /// Sets provider_sig: `provider` signs countersigned().
  void countersign(const pki::Identity& provider);

  [[nodiscard]] bool verify_client(const crypto::RsaPublicKey& client) const;
  [[nodiscard]] bool verify_provider(
      const crypto::RsaPublicKey& provider) const;
  /// Both signatures.
  [[nodiscard]] bool verify(const crypto::RsaPublicKey& client,
                            const crypto::RsaPublicKey& provider) const;
};

/// How a client-signed record stands against a chain: the commit rule every
/// party that commits or mirrors a record applies first.
enum class Admission : std::uint8_t {
  kNext,      ///< version head + 1, linked to the head: may be committed
  kRetry,     ///< exactly this record, under this client signature, is
              ///< committed at its version: re-issue, never re-apply (§5.5)
  kConflict,  ///< a different record is committed at its version
  kGap,       ///< version 0, or past head + 1
  kUnlinked,  ///< version head + 1, but old_root or prev_record_hash is not
              ///< the head's
};

/// An append-only, structurally validated record sequence. Signature checks
/// are the walker's job (walk_chain) — the chain itself enforces version,
/// root and hash-link continuity so a locally maintained mirror can never
/// drift silently.
class VersionChain {
 public:
  /// Appends if the record extends the head consistently (admit() is kNext,
  /// and its op and chunk_count follow from the head); otherwise returns
  /// false and (if non-null) explains in `why`. A record for this object
  /// that admit() calls kNext and ObjectMirror::apply() accepted on this
  /// chain's mirror always appends.
  bool append(SignedVersionRecord rec, std::string* why = nullptr);

  /// The version and link rule plus retry idempotency: where `rec` stands
  /// against the head. Only a kNext record may be committed.
  [[nodiscard]] Admission admit(const SignedVersionRecord& rec) const;

  [[nodiscard]] const std::vector<SignedVersionRecord>& records()
      const noexcept {
    return records_;
  }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// 0 for an empty chain.
  [[nodiscard]] std::uint64_t head_version() const noexcept;
  /// DynMerkleTree::empty_root() for an empty chain.
  [[nodiscard]] const Bytes& head_root() const;
  [[nodiscard]] std::uint64_t head_chunk_count() const noexcept;
  /// genesis_link() for an empty chain.
  [[nodiscard]] Bytes head_hash() const;

  /// The record committing `op` at `chunk_index` on top of the head, which
  /// leaves `chunk_count` chunks under `new_root`. On an empty chain that is
  /// the version-1 kStore record.
  [[nodiscard]] VersionRecord next_record(std::string object_key, MutateOp op,
                                          std::uint64_t chunk_index,
                                          std::uint64_t chunk_count,
                                          Bytes new_root,
                                          std::uint64_t chunk_tag) const;

  /// The version whose new_root equals `root`, if any — the rollback check:
  /// a served root matching an OLDER committed version is a revert, not
  /// random corruption.
  [[nodiscard]] std::optional<std::uint64_t> version_of_root(
      BytesView root) const;

 private:
  std::vector<SignedVersionRecord> records_;
};

/// What a full chain walk concluded.
enum class ChainStatus : std::uint8_t {
  kValid = 1,
  kEmpty = 2,
  kBrokenLink = 3,      ///< version/root/hash-link discontinuity
  kBadClientSig = 4,    ///< some record's client signature fails
  kBadProviderSig = 5,  ///< some record's provider countersignature fails
};

struct ChainWalkResult {
  ChainStatus status = ChainStatus::kEmpty;
  std::uint64_t at_version = 0;  ///< first offending version (0: none)
  std::string detail;
};

/// The TTP's full validation: structural continuity plus both signatures on
/// every record. Deterministic; same chain, same result.
ChainWalkResult walk_chain(std::span<const SignedVersionRecord> records,
                           const crypto::RsaPublicKey& client_key,
                           const crypto::RsaPublicKey& provider_key);

}  // namespace tpnr::dyn
