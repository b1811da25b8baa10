// The dynamic-data client — Alice extended with chunk-level mutations.
//
// Where nr::ClientActor treats every object as store-once, DynClientActor
// keeps a 32-bytes-per-chunk mirror (leaf hashes in a DynMerkleTree, plus
// the chunk bytes for inverse ops), tags every chunk with the PoR secret,
// and drives the versioned mutation flow:
//
//   kDynStoreRequest  -> chunks + tags + client-signed VersionRecord (v1)
//   kMutateRequest    -> one chunk op + its tag + client-signed record
//   kDynStoreReceipt / kMutateReceipt <- the provider's countersignature
//
// The version number is the idempotency key (the PR 3 pattern): a retry
// re-sends the SAME signed record under a fresh header, and the provider
// re-issues the receipt without re-applying. Mutations are optimistic — the
// mirror advances when the request is sent and is restored to its exact
// pre-op state if the provider rejects.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/id.h"
#include "dyn/dyn_merkle.h"
#include "dyn/por_tags.h"
#include "dyn/version_chain.h"
#include "nr/actor.h"

namespace tpnr::dyn {

/// Receipt wait per store/mutation attempt, `retries` being
/// DynClientOptions::mutate_retries; the op reverts after the last attempt.
[[nodiscard]] constexpr nr::RetryPolicy mutate_wait(std::size_t retries) {
  return {15 * common::kSecond, 5 * common::kSecond, retries};
}

struct DynClientOptions {
  /// Re-send an unacknowledged store/mutation this many times (same signed
  /// record, fresh header). 0 keeps single-shot behaviour.
  std::size_t mutate_retries = 0;
};

class DynClientActor final : public nr::NrActor {
 public:
  /// Client-side state of one dynamic object.
  struct DynObject {
    std::string provider;
    std::string ttp;
    std::string object_key;
    std::string txn_id;
    std::size_t chunk_size = 0;
    std::vector<Bytes> chunks;  ///< content mirror (inverse ops need bytes)
    DynMerkleTree tree;         ///< rank-annotated mirror, O(log n) per op
    std::vector<std::uint64_t> tags;
    TagKey tag_key;
    std::vector<std::uint64_t> alphas;  ///< cached α_j for this chunk size
    VersionChain chain;                 ///< countersigned records only

    /// The in-flight client-signed record (idempotency key: its version).
    struct PendingOp {
      VersionRecord record;
      Bytes client_sig;
      Bytes chunk;  ///< op payload bytes (empty for erase; data for store)
      ChunkOpUndo undo;  ///< restores the mirror if the op is rejected
      std::uint64_t wait = 0;  ///< token of the live receipt wait
    };
    std::optional<PendingOp> pending;

    // Outcome counters.
    std::uint64_t receipts = 0;
    std::uint64_t duplicate_receipts = 0;
    std::uint64_t rejected = 0;  ///< kMutateError received (op reverted)
    std::uint64_t timeouts = 0;  ///< retries exhausted, op reverted
  };

  /// `master_secret` seeds per-object TagKeys (shared with the auditor via
  /// tag_key()).
  DynClientActor(std::string id, net::Network& network,
                 pki::Identity& identity, crypto::Drbg& rng,
                 Bytes master_secret,
                 DynClientOptions options = DynClientOptions{});

  /// Stores `data` as a dynamic object (version 1). Returns the txn id.
  /// Throws ProtocolError on unknown provider key or zero chunk size.
  std::string store_dyn(const std::string& provider, const std::string& ttp,
                        const std::string& object_key, BytesView data,
                        std::size_t chunk_size);

  // One mutation may be in flight per object; these return false while one
  // is pending, on an unknown object, or on a bad index.
  bool update(const std::string& object_key, std::uint64_t index,
              BytesView chunk);
  bool insert(const std::string& object_key, std::uint64_t index,
              BytesView chunk);
  bool append_chunk(const std::string& object_key, BytesView chunk);
  bool erase(const std::string& object_key, std::uint64_t index);

  [[nodiscard]] const DynObject* object(const std::string& object_key) const;
  /// Stable pointer into this actor's state — what the auditor pins its
  /// freshness checks against (must not outlive the actor).
  [[nodiscard]] const VersionChain* chain(const std::string& object_key) const;
  [[nodiscard]] const TagKey* tag_key(const std::string& object_key) const;

 protected:
  void on_message(const nr::NrMessage& message) override;

 private:
  DynObject* mutable_object(const std::string& object_key);
  /// The object a provider reply is about: known txn, sent by its provider.
  DynObject* reply_target(const nr::MessageHeader& h);
  bool begin_mutation(DynObject& obj, MutateOp op, std::uint64_t index,
                      BytesView chunk);
  /// Sends attempt `attempt` of the pending record under a fresh header and
  /// awaits its receipt.
  void transmit_pending(const std::string& object_key, std::size_t attempt);
  /// Restores the pre-op mirror and drops the pending record.
  void revert_pending(DynObject& obj);
  void handle_receipt(const nr::NrMessage& message);
  void handle_mutate_error(const nr::NrMessage& message);

  Bytes master_secret_;
  DynClientOptions options_;
  std::map<std::string, DynObject> objects_;  ///< by object key
  std::map<std::string, std::string> txn_to_object_;
  common::IdGenerator txn_ids_;
};

}  // namespace tpnr::dyn
