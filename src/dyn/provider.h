// The dynamic-data provider — Bob extended with chunk-level mutations and
// compact aggregated audits.
//
// For every dynamic object the provider keeps an ObjectMirror (chunk
// bytes, rank-annotated tree, PoR tags and its own copy of the version
// chain); the COMMIT path validates a mutation against that mirror in
// O(log n) (root check on the incrementally maintained tree) before
// countersigning.
//
// Aggregated audit challenges are answered FROM THE OBJECT STORE, not the
// mirror: the served bytes are re-sliced and re-hashed per challenge, so
// any divergence between what the provider acknowledged and what the store
// durably holds — a dropped (stale) mutation, a silent rollback — surfaces
// in the response's (version, root) and is classified by the auditor
// against the client's chain head.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dyn/dyn_merkle.h"
#include "dyn/por_tags.h"
#include "dyn/version_chain.h"
#include "nr/actor.h"
#include "storage/object_store.h"

namespace tpnr::dyn {

/// The envelope of a request that carries a client-signed record, checked
/// before any state is touched: the payload's loose fields restate the
/// record (`restated`), the header's data_hash is the record's new_root,
/// and the client signature verifies. A failure counts in `stats` as
/// rejected_bad_hash (the first two) or rejected_bad_evidence.
[[nodiscard]] bool check_envelope(const nr::MessageHeader& h, bool restated,
                                  const SignedVersionRecord& signed_record,
                                  const crypto::RsaPublicKey& client,
                                  nr::ActorStats& stats);

class DynProviderActor final : public nr::NrActor {
 public:
  /// Provider-side state of one dynamic object: the committed mirror the
  /// commit path checks against, chain included.
  struct DynObjectState : ObjectMirror {
    std::string txn_id;
    std::string client;  ///< who may mutate (the storing identity)
  };

  DynProviderActor(std::string id, net::Network& network,
                   pki::Identity& identity, crypto::Drbg& rng);

  [[nodiscard]] storage::ObjectStore& store() noexcept { return store_; }
  [[nodiscard]] const DynObjectState* object_state(
      const std::string& object_key) const;

  /// Receipts re-issued for retried requests without re-applying
  /// (idempotence accounting, mirrors ProviderActor::receipts_resent()).
  [[nodiscard]] std::uint64_t receipts_resent() const noexcept {
    return receipts_resent_;
  }
  /// Mutations rejected with kMutateError.
  [[nodiscard]] std::uint64_t mutations_rejected() const noexcept {
    return mutations_rejected_;
  }

 protected:
  void on_message(const nr::NrMessage& message) override;

 private:
  void handle_dyn_store(const nr::NrMessage& message);
  void handle_mutate(const nr::NrMessage& message);
  void handle_agg_challenge(const nr::NrMessage& message);

  /// Sends the receipt carrying the countersigned `rec` back to the sender
  /// of the request `h` heads.
  void send_receipt(const nr::MessageHeader& h, nr::MsgType flag,
                    const SignedVersionRecord& rec);
  /// Rejects the request `h` heads.
  void send_mutate_error(const nr::MessageHeader& h,
                         const std::string& object_key, std::uint64_t version,
                         const std::string& reason);
  /// Commits a checked record `state` has applied: countersigns it,
  /// extends the chain, writes the object through to the store, journals
  /// the NRO and sends the receipt.
  void commit(DynObjectState& state, const nr::MessageHeader& h,
              SignedVersionRecord signed_record,
              const nr::OpenedEvidence& nro);

  storage::ObjectStore store_;
  std::map<std::string, DynObjectState> objects_;  ///< by object key
  std::uint64_t receipts_resent_ = 0;
  std::uint64_t mutations_rejected_ = 0;
};

}  // namespace tpnr::dyn
