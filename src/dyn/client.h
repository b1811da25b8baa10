// The dynamic-data client — Alice extended with chunk-level mutations.
//
// Where nr::ClientActor treats every object as store-once, DynClientActor
// keeps a 32-bytes-per-chunk mirror (leaf hashes in a DynMerkleTree, plus
// the chunk bytes), tags every chunk with the PoR secret, and drives the
// versioned mutation flow:
//
//   kDynStoreRequest  -> chunks + tags + client-signed VersionRecord (v1)
//   kMutateRequest    -> one chunk op + its tag + client-signed record
//   kDynStoreReceipt / kMutateReceipt <- the provider's countersignature
//
// The version number is the idempotency key, as for static stores: a retry
// re-sends the SAME signed record under a fresh header, and the provider
// re-issues the receipt without re-applying. An op is computed when it is
// sent and committed when its receipt arrives: the pending op carries the
// staged change, and the mirror only ever holds what the countersigned
// chain commits to. A rejected or timed-out op just drops its pending
// entry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/id.h"
#include "dyn/dyn_merkle.h"
#include "dyn/por_tags.h"
#include "dyn/version_chain.h"
#include "nr/actor.h"

namespace tpnr::dyn {

/// Receipt wait per store/mutation attempt, `retries` being
/// DynClientOptions::mutate_retries; the op is dropped after the last
/// attempt.
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
  /// Client-side state of one dynamic object: the mirror of its
  /// countersigned chain plus the PoR tag secrets.
  struct DynObject : ObjectMirror {
    std::string provider;
    std::string ttp;
    std::string object_key;
    std::string txn_id;
    TagKey tag_key;
    SharedAlphas alphas;  ///< α_j for this chunk size, shared with auditors

    // Outcome counters.
    std::uint64_t receipts = 0;
    std::uint64_t duplicate_receipts = 0;
    std::uint64_t rejected = 0;  ///< kMutateError received (op dropped)
    std::uint64_t timeouts = 0;  ///< retries exhausted, op dropped
  };

  /// An object's in-flight client-signed record (idempotency key: its
  /// version).
  struct PendingOp {
    VersionRecord record;
    Bytes client_sig;
    Bytes chunk;  ///< op payload bytes (empty for erase; data for store)
    ObjectMirror::Change change;  ///< what the receipt commits
  };

  /// `master_secret` seeds per-object TagKeys (shared with the auditor via
  /// DynObject::tag_key and DynObject::alphas).
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
              BytesView chunk) {
    return begin_mutation(object_key, MutateOp::kUpdate, index, chunk);
  }
  bool insert(const std::string& object_key, std::uint64_t index,
              BytesView chunk) {
    return begin_mutation(object_key, MutateOp::kInsert, index, chunk);
  }
  bool append_chunk(const std::string& object_key, BytesView chunk) {
    return begin_mutation(object_key, MutateOp::kAppend, 0, chunk);
  }
  bool erase(const std::string& object_key, std::uint64_t index) {
    return begin_mutation(object_key, MutateOp::kErase, index, {});
  }

  [[nodiscard]] const DynObject* object(const std::string& object_key) const;
  /// Stable pointer into this actor's state — what the auditor pins its
  /// freshness checks against (must not outlive the actor).
  [[nodiscard]] const VersionChain* chain(const std::string& object_key) const {
    const DynObject* obj = object(object_key);
    return obj == nullptr ? nullptr : &obj->chain;
  }
  /// The object's in-flight op, or nullptr when none is pending.
  [[nodiscard]] const PendingOp* pending(const std::string& object_key) const {
    return pending_.find(object_key);
  }

 protected:
  void on_message(const nr::NrMessage& message) override;

 private:
  DynObject* mutable_object(const std::string& object_key);
  /// The object a provider reply is about: known txn, sent by its provider.
  DynObject* reply_target(const nr::MessageHeader& h);
  /// Stages and sends `op`; a kAppend's index is the object's chunk count.
  bool begin_mutation(const std::string& object_key, MutateOp op,
                      std::uint64_t index, BytesView chunk);
  /// Signs `staged`'s record, opens it as the object's pending op carrying
  /// `bytes`, and sends its first attempt.
  void open_pending(DynObject& obj, ObjectMirror::Staged staged,
                    BytesView bytes);
  /// Sends attempt `attempt` of the pending record under a fresh header and
  /// awaits its receipt.
  void transmit_pending(const std::string& object_key, std::size_t attempt);
  /// Retires the pending op; a store's object never existed.
  void drop_pending(DynObject& obj);
  void handle_receipt(const nr::NrMessage& message);
  void handle_mutate_error(const nr::NrMessage& message);

  Bytes master_secret_;
  DynClientOptions options_;
  std::map<std::string, DynObject> objects_;  ///< by object key
  nr::RequestTable<std::string, PendingOp> pending_;  ///< by object key
  std::map<std::string, std::string> txn_to_object_;
  common::IdGenerator txn_ids_;
};

}  // namespace tpnr::dyn
