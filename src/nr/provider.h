// Bob — the cloud storage provider in the TPNR protocol. Handles the Normal
// store/fetch steps, the Abort sub-protocol, and Resolve queries from the
// TTP. Behaviour knobs model the malicious provider of the paper's threat
// analysis (withholding receipts, tampering with stored data, ignoring the
// TTP).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "nr/actor.h"
#include "storage/merkle_cache.h"
#include "storage/object_store.h"

namespace tpnr::nr {

/// How Bob (mis)behaves — the experiment dial.
struct ProviderBehavior {
  bool send_store_receipts = true;   ///< false: withholds NRR (unfair Bob)
  bool respond_to_resolve = true;    ///< false: ignores the TTP
  bool respond_to_abort = true;
  bool respond_to_fetch = true;      ///< false: dead/unresponsive replica
  /// If set, silently rewrites stored bytes after accepting them — the Eve
  /// of §2.4.
  bool tamper_after_store = false;
  Bytes tamper_replacement;
  /// Chunk-audit equivocation: serve Merkle proofs computed over the
  /// ORIGINAL object (cached at store time) so audits of untampered chunks
  /// still pass — the strongest audit adversary. Tampered chunks still fail
  /// (their bytes no longer match any proof), which is what makes random
  /// sampling meaningful.
  bool equivocate_chunk_proofs = false;
};

class ProviderActor final : public NrActor {
 public:
  ProviderActor(std::string id, net::Network& network, pki::Identity& identity,
                crypto::Drbg& rng);

  void set_behavior(ProviderBehavior behavior) {
    behavior_ = std::move(behavior);
  }
  [[nodiscard]] const ProviderBehavior& behavior() const noexcept {
    return behavior_;
  }

  /// Per-transaction record Bob keeps: the object, its agreed hash (flat
  /// SHA-256, or a Merkle root for chunked objects), and the NRO that
  /// proves Alice sent it.
  struct TxnRecord {
    enum class State { kStored, kAborted };
    State state = State::kStored;
    std::string object_key;
    Bytes data_hash;
    std::size_t chunk_size = 0;  ///< 0 = flat object; else Merkle chunking
    common::Payload original_data;  ///< chunked txns (equivocation); shared
    MessageHeader nro_header;
    OpenedEvidence nro;
    /// The receipt header Bob signed (basis for Bob-initiated Resolve).
    std::optional<MessageHeader> receipt_header;
    /// Set when Alice acknowledged the receipt through the TTP (§4.3:
    /// "Bob can initial a resolve procedure at the TTP").
    bool client_acknowledged = false;
    /// The client's signature over the receipt header (the acknowledgment).
    Bytes ack_signature;
    /// TTP statement when Alice failed to respond to Bob's resolve.
    Bytes ttp_statement;
    Bytes ttp_statement_signature;
  };

  [[nodiscard]] const TxnRecord* transaction(const std::string& txn_id) const;
  [[nodiscard]] storage::ObjectStore& store() noexcept { return store_; }
  [[nodiscard]] const storage::MerkleCache& merkle_cache() const noexcept {
    return merkle_cache_;
  }

  /// How many store receipts were re-issued for retried NROs without
  /// touching the store or the journal (idempotence accounting).
  [[nodiscard]] std::uint64_t receipts_resent() const noexcept {
    return receipts_resent_;
  }

  /// Administrator tamper: rewrite the object behind a transaction.
  bool tamper(const std::string& txn_id, BytesView new_data);

  /// Pre-sizes the transaction table for an expected fleet workload.
  void reserve_txns(std::size_t count) { txns_.reserve(count); }

  /// Evidence Bob would present to an arbitrator (his NRO for the txn).
  [[nodiscard]] std::optional<std::pair<MessageHeader, OpenedEvidence>>
  present_nro(const std::string& txn_id) const;

  /// The object bytes Bob can currently produce for the arbitrator.
  [[nodiscard]] std::optional<Bytes> produce_object(
      const std::string& txn_id);

  /// Bob-initiated Resolve (§4.3): asks the TTP to obtain the client's
  /// acknowledgment of the receipt Bob sent. Outcome lands in the
  /// transaction record (client_acknowledged or a signed TTP statement).
  void resolve(const std::string& txn_id, const std::string& ttp);

 protected:
  void on_message(const NrMessage& message) override;

 private:
  void handle_store(const NrMessage& message);
  void handle_fetch(const NrMessage& message);
  void handle_chunk_request(const NrMessage& message);
  void handle_abort(const NrMessage& message);
  void handle_resolve_query(const NrMessage& message);
  void handle_resolve_verdict(const NrMessage& message);

  ProviderBehavior behavior_;
  storage::ObjectStore store_;
  /// Each stored object's tree is built once (at store-time validation) and
  /// every chunk proof afterwards is served from the cached tree. Entries
  /// self-invalidate on any byte change via Payload buffer identity.
  storage::MerkleCache merkle_cache_;
  std::unordered_map<std::string, TxnRecord> txns_;
  std::uint64_t receipts_resent_ = 0;
};

}  // namespace tpnr::nr
