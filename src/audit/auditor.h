// The Auditor — a third TPNR actor that continuously spot-checks what the
// provider actually holds, closing the storage-phase gap of Fig. 5 without
// waiting for the client to re-fetch.
//
// For each registered target (a chunked TPNR transaction whose SIGNED
// Merkle root came out of the NRO/NRR), the auditor issues kChunkRequest
// challenges on the "nr.audit" topic, verifies the returned chunk + proof
// against that root, retries unresponsive providers, and records every
// conclusion — verified, mismatch, bad evidence, malformed, no-response —
// in the append-only AuditLedger. Challenge scheduling lives in
// AuditScheduler; this class owns correctness and timeout handling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "audit/ledger.h"
#include "consistency/view_history.h"
#include "dyn/por_tags.h"
#include "dyn/version_chain.h"
#include "nr/actor.h"
#include "nr/client.h"

namespace tpnr::dyn {
class DynClientActor;
}

namespace tpnr::audit {

/// One provider-held object under continuous audit.
struct AuditTarget {
  std::string txn_id;
  std::string provider;
  std::string object_key;
  Bytes root;  ///< the Merkle root both parties signed (NRO/NRR data_hash)
  std::size_t chunk_size = 0;
  std::size_t chunk_count = 0;
  SimTime registered_at = 0;
};

/// A DYNAMIC object under continuous audit: instead of a fixed signed root,
/// freshness is pinned to the client's live version chain, and challenges
/// are the compact aggregated kind (one (σ, μ) pair + one batched Merkle
/// proof per challenge, independent of chunk size).
struct DynAuditTarget {
  std::string txn_id;
  std::string provider;
  std::string object_key;
  std::size_t chunk_size = 0;
  dyn::TagKey tag_key;  ///< the client/auditor PoR secret for this object
  /// α for `chunk_size`, shared with the client (watch_dyn); derived from
  /// `tag_key` at registration when null.
  dyn::SharedAlphas alphas;
  /// The client's chain of countersigned version records — the freshness
  /// reference. Non-owning; must outlive the auditor's interest.
  const dyn::VersionChain* chain = nullptr;
  SimTime registered_at = 0;
};

/// The pending-map chunk index reserved for aggregated challenges (one per
/// transaction may be in flight; it is not a real chunk index).
inline constexpr std::uint64_t kAggregateIndex =
    ~static_cast<std::uint64_t>(0);

/// Response wait per challenge attempt: one re-challenge, then no-response.
inline constexpr nr::RetryPolicy kChallengeWait{15 * common::kSecond, 0, 1};

class AuditorActor final : public nr::NrActor {
 public:
  /// Running totals, cheaper to poll than scanning the ledger.
  struct Counters {
    std::uint64_t challenges = 0;  ///< fresh challenges (retries excluded)
    std::uint64_t retries = 0;
    std::uint64_t verified = 0;
    std::uint64_t flagged = 0;  ///< mismatch + bad evidence + malformed
    std::uint64_t no_responses = 0;
    std::uint64_t forks_detected = 0;       ///< valid equivocation proofs
    std::uint64_t fork_reports_rejected = 0;  ///< proofs that did not verify
  };

  AuditorActor(std::string id, net::Network& network, pki::Identity& identity,
               crypto::Drbg& rng, AuditLedger& ledger);

  /// Registers the object behind a completed chunked transaction. The root
  /// is taken from the client's signed agreement; when the client holds the
  /// NRR its signatures are re-verified against the provider's key first.
  /// Returns false (and registers nothing) for unknown/flat transactions,
  /// an untrusted provider, or an NRR that fails verification.
  bool watch(const nr::ClientActor& client, const std::string& txn_id);

  /// Lower-level registration when the caller already holds the signed
  /// root. Returns false on a malformed target (no chunks, empty ids).
  bool register_target(AuditTarget target);

  [[nodiscard]] const std::map<std::string, AuditTarget>& targets() const {
    return targets_;
  }

  /// Challenges one chunk now. Returns false if the target is unknown, the
  /// index is out of range, or the same (txn, chunk) is already in flight.
  bool challenge(const std::string& txn_id, std::size_t chunk_index);

  /// Registers a dynamic object from the client's live state (the chain
  /// stays with the client; the α vector is shared with it). Returns false
  /// if the client does not know the object or its chain is still empty.
  bool watch_dyn(const dyn::DynClientActor& client,
                 const std::string& object_key);
  /// Lower-level registration for callers holding the pieces themselves.
  /// Derives `alphas` when it is null; returns false on a malformed target
  /// (empty ids, zero chunk size, no chain, an α vector of the wrong
  /// length) or an untrusted provider.
  bool register_dyn_target(DynAuditTarget target);
  [[nodiscard]] const std::map<std::string, DynAuditTarget>& dyn_targets()
      const {
    return dyn_targets_;
  }

  /// Issues one aggregated challenge over `count` sampled chunks. Returns
  /// false on an unknown target, an empty chain, or when an aggregate for
  /// the transaction is already in flight.
  bool challenge_aggregate(const std::string& txn_id, std::uint64_t count);

  /// Verifies a client-submitted EquivocationProof against `provider`'s
  /// trusted key and — when it holds — records a kForkDetected entry in
  /// the ledger. The proof is self-contained (two provider-signed
  /// commitments for one global position), so nothing about the reporting
  /// client needs to be believed. Returns true iff the proof convicts.
  /// Also the handler behind inbound kForkReport messages.
  bool report_fork(const std::string& provider, const std::string& txn_id,
                   const std::string& object_key,
                   const consistency::EquivocationProof& proof,
                   const std::string& reporter = "");

  /// Challenges in flight (issued, not yet concluded).
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return pending_.size();
  }

  [[nodiscard]] const Counters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const AuditLedger& ledger() const noexcept {
    return *ledger_;
  }

 protected:
  void on_message(const nr::NrMessage& message) override;

 private:
  struct Pending {
    SimTime challenged_at = 0;
    dyn::AggChallenge challenge;  ///< what every attempt repeats (aggregates)
  };
  using PendingKey = std::pair<std::string, std::uint64_t>;  // txn, chunk
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& key) const noexcept {
      return std::hash<std::string>{}(key.first) ^
             (key.second * 0x9e3779b97f4a7c15ull);
    }
  };

  /// Sends attempt `attempt` of the in-flight challenge `key` (the same
  /// challenge every time) and awaits the response.
  void transmit(const PendingKey& key, std::size_t attempt);
  /// Records the in-flight challenge `key`'s verdict and retires it.
  void conclude(const PendingKey& key, AuditVerdict verdict,
                std::string detail);
  void handle_chunk_response(const nr::NrMessage& message);
  void handle_agg_response(const nr::NrMessage& message);
  void handle_fork_report(const nr::NrMessage& message);

  AuditLedger* ledger_;
  std::map<std::string, AuditTarget> targets_;
  std::map<std::string, DynAuditTarget> dyn_targets_;
  nr::RequestTable<PendingKey, Pending, PendingKeyHash> pending_;
  Counters counters_;
};

}  // namespace tpnr::audit
