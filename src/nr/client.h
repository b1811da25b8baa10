// Alice — the client in the TPNR protocol. Drives the Normal, Abort and
// Resolve flows, keeps the NRR evidence she collects, and verifies fetched
// data against the hash the provider signed for.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id.h"
#include "nr/actor.h"
#include "nr/chunked.h"
#include "runtime/placement.h"

namespace tpnr::nr {

/// Client-side view of one transaction's life.
enum class TxnState {
  kStorePending,       ///< NRO sent, waiting for NRR
  kCompleted,          ///< NRR held
  kAbortPending,
  kAborted,            ///< abort accepted (NRR-of-abort held)
  kAbortRejected,
  kAbortErrored,       ///< provider asked for a regenerated request
  kResolvePending,     ///< TTP involved, waiting for verdict
  kResolveRetrying,    ///< verdict overdue (TTP down?), backing off to retry
  kResolvedCompleted,  ///< NRR arrived through the TTP
  kResolvedFailed,     ///< TTP attests the provider did not respond
  kTtpUnreachable,     ///< every resolve attempt went unanswered (degraded)
  kTimedOut,           ///< no receipt and resolve disabled
};

std::string txn_state_name(TxnState state);

/// True for states no further message or timer may advance.
[[nodiscard]] constexpr bool txn_state_terminal(TxnState state) noexcept {
  switch (state) {
    case TxnState::kCompleted:
    case TxnState::kAborted:
    case TxnState::kAbortRejected:
    case TxnState::kResolvedCompleted:
    case TxnState::kResolvedFailed:
    case TxnState::kTtpUnreachable:
      return true;
    default:
      return false;
  }
}

/// Receipt wait per store attempt, `retries` being
/// ClientOptions::store_retries; escalation follows the last attempt.
[[nodiscard]] constexpr RetryPolicy store_wait(std::size_t retries) {
  return {15 * common::kSecond, 5 * common::kSecond, retries};
}
/// Verdict wait per resolve attempt, `retries` being
/// ClientOptions::resolve_retries; ttp-unreachable follows the last attempt.
[[nodiscard]] constexpr RetryPolicy resolve_wait(std::size_t retries) {
  return {20 * common::kSecond, 10 * common::kSecond, retries};
}

struct ClientOptions {
  common::SimTime reply_window = kRequestWindow;  ///< header time limit
  bool auto_resolve = true;  ///< on timeout, escalate to the TTP
  /// §5.5 fault tolerance: re-send the store request (fresh header, same
  /// txn/data) this many times BEFORE escalating to the TTP. 0 keeps the
  /// paper's single-shot behaviour. Also spent on "restart" verdicts.
  std::size_t store_retries = 0;
  /// Re-send the resolve request this many times when no verdict arrives —
  /// this is what rides out a TTP down-window. 0 = wait forever (paper).
  std::size_t resolve_retries = 0;
};

class ClientActor final : public NrActor {
 public:
  struct Txn {
    TxnState state = TxnState::kStorePending;
    std::string provider;
    std::string ttp;
    std::string object_key;
    Bytes data_hash;
    MessageHeader store_header;       ///< the header the NRO covered
    common::Payload store_evidence;   ///< raw NRO (replayable toward Bob/TTP)
    std::optional<MessageHeader> nrr_header;
    std::optional<OpenedEvidence> nrr;
    std::optional<MessageHeader> abort_receipt_header;
    std::optional<OpenedEvidence> abort_receipt;
    // TTP attestation when the provider went silent.
    Bytes ttp_statement;
    Bytes ttp_statement_signature;
    // Fetch results.
    bool fetched = false;
    bool fetch_integrity_ok = false;
    common::Payload fetched_data;  ///< shares the response payload's buffer
    // Chunked-object bookkeeping (extension; see nr/chunked.h).
    std::size_t chunk_size = 0;   ///< 0 = flat object
    std::size_t chunk_count = 0;
    std::vector<ChunkAuditResult> audits;
    // Fault-tolerance bookkeeping.
    common::SimTime started_at = 0;
    common::SimTime finished_at = 0;  ///< set on entering a terminal state
    std::size_t store_attempts = 0;   ///< store transmissions incl. first
    std::size_t resolve_attempts = 0;
    common::Payload retry_data;  ///< object bytes, iff store_retries > 0
    /// Every state transition with its sim time, packed (at << 8) | state —
    /// 8 bytes per entry instead of 16 keeps a fleet's millions of
    /// histories compact. Decode with history_entry()/history_size().
    std::vector<std::int64_t> history;

    [[nodiscard]] std::size_t history_size() const noexcept {
      return history.size();
    }
    /// Entry `i` of the packed timeline (index 0 = kStorePending).
    [[nodiscard]] std::pair<common::SimTime, TxnState> history_entry(
        std::size_t i) const {
      return {history[i] >> 8,
              static_cast<TxnState>(history[i] & 0xff)};
    }
  };

  ClientActor(std::string id, net::Network& network, pki::Identity& identity,
              crypto::Drbg& rng, ClientOptions options = ClientOptions{});

  /// Normal-mode store: sends data + NRO, arms the receipt timer. Returns
  /// the transaction id.
  std::string store(const std::string& provider, const std::string& ttp,
                    const std::string& object_key, BytesView data);

  /// Chunked store: the evidence binds the Merkle root over
  /// `chunk_size`-byte chunks instead of the flat hash, enabling audit()
  /// without a full download. Throws ProtocolError on chunk_size == 0.
  std::string store_chunked(const std::string& provider,
                            const std::string& ttp,
                            const std::string& object_key, BytesView data,
                            std::size_t chunk_size);

  // --- Fleet routing (runtime/placement.h) -------------------------------

  /// Routes stores by object key over a shared consistent-hash ring instead
  /// of a caller-chosen provider. The ring is owned by the driver; it must
  /// outlive the actor.
  void set_placement(const runtime::Placement* placement) noexcept {
    placement_ = placement;
  }
  /// Directory endpoint consulted on lookup misses (owner unknown, or the
  /// owner's key not yet trusted). The directory must be a trusted peer.
  void set_directory(std::string directory) {
    directory_ = std::move(directory);
  }
  /// Shards this client's resolve traffic over a partitioned TTP fleet:
  /// store_* calls override their `ttp` argument with
  /// names[ttp_partition_of(txn_id, names.size())]. Empty list = single-TTP
  /// behaviour (the argument is used as-is).
  void set_ttp_partitions(std::vector<std::string> names) {
    ttp_partitions_ = std::move(names);
  }

  /// Placement-routed store: the provider is owner(object_key) on the ring
  /// (or the cached directory answer). Returns the txn id when the store
  /// was issued immediately; returns "" when the owner (or its key) is
  /// unknown and a kDirLookup round-trip was started — the deferred store
  /// is issued on the kDirReply and its txn id appended to routed_txns().
  std::string store_routed(const std::string& ttp,
                           const std::string& object_key, BytesView data);

  /// Txn ids minted by store_routed, in issue order (deferred stores appear
  /// when their directory reply lands).
  [[nodiscard]] const std::vector<std::string>& routed_txns() const noexcept {
    return routed_txns_;
  }

  /// Pre-sizes the transaction tables for an expected fleet workload so a
  /// million-txn run does not pay incremental rehashes.
  void reserve_txns(std::size_t count) { txns_.reserve(count); }

  /// Requests chunk `chunk_index` of a chunked transaction; the response is
  /// verified against the SIGNED root and recorded in Txn::audits.
  void audit(const std::string& txn_id, std::size_t chunk_index);

  /// Audits `count` uniformly random chunks (with replacement).
  void audit_sample(const std::string& txn_id, std::size_t count);

  /// Abort an in-flight transaction (§4.2; two-party, no TTP).
  void abort(const std::string& txn_id);

  /// Fetch the object back; on response the data hash is checked against
  /// the agreed hash from the store transaction.
  void fetch(const std::string& txn_id);

  /// Escalate to the TTP immediately (normally driven by the timer).
  void resolve(const std::string& txn_id, const std::string& report);

  [[nodiscard]] const Txn* transaction(const std::string& txn_id) const;

  /// Evidence Alice presents to an arbitrator (her NRR).
  [[nodiscard]] std::optional<std::pair<MessageHeader, OpenedEvidence>>
  present_nrr(const std::string& txn_id) const;

 protected:
  void on_message(const NrMessage& message) override;

 private:
  std::string store_impl(const std::string& provider, const std::string& ttp,
                         const std::string& object_key, BytesView data,
                         std::size_t chunk_size);
  /// Single point every state change goes through: ends the txn's reply
  /// wait (the store wait lives only in kStorePending, the verdict wait only
  /// in kResolvePending), appends to the history timeline and stamps
  /// finished_at on terminal states.
  void set_state(const std::string& txn_id, Txn& txn, TxnState state);
  /// (Re-)sends the store request with a fresh header over the same
  /// txn/data and awaits the receipt.
  void send_store(const std::string& txn_id);
  void transmit_store(const std::string& txn_id, BytesView data);
  void handle_store_receipt(const NrMessage& message);
  void handle_fetch_response(const NrMessage& message);
  void handle_chunk_response(const NrMessage& message);
  void handle_abort_reply(const NrMessage& message);
  void handle_resolve_verdict(const NrMessage& message);
  void handle_resolve_query(const NrMessage& message);
  void handle_dir_reply(const NrMessage& message);
  /// Sends a kDirLookup for `object_key` and parks the store until the
  /// reply names (and keys) the owner.
  void defer_store(const std::string& ttp, const std::string& object_key,
                   BytesView data);

  /// A store parked on a directory lookup.
  struct PendingStore {
    std::string ttp;
    std::string object_key;
    common::Payload data;
  };

  ClientOptions options_;
  RequestTable<std::string, Txn> txns_;
  common::IdGenerator txn_ids_;
  const runtime::Placement* placement_ = nullptr;
  std::string directory_;
  std::vector<std::string> ttp_partitions_;
  std::vector<PendingStore> pending_stores_;
  /// object_key -> owner, filled from directory replies (lookup-miss cache).
  std::unordered_map<std::string, std::string> owner_cache_;
  std::vector<std::string> routed_txns_;
};

}  // namespace tpnr::nr
