// The dynamic-data provider — Bob extended with chunk-level mutations and
// compact aggregated audits.
//
// For every dynamic object the provider keeps an in-memory mirror (chunk
// bytes, rank-annotated tree, PoR tags) plus its own copy of the version
// chain; the COMMIT path validates a mutation against that mirror in
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

/// Misbehaviour dials for the dynamic provider.
struct DynProviderBehavior {
  bool send_receipts = true;      ///< false: withholds receipts (unfair Bob)
};

class DynProviderActor final : public nr::NrActor {
 public:
  /// Provider-side state of one dynamic object.
  struct DynObjectState {
    std::string txn_id;
    std::string client;  ///< who may mutate (the storing identity)
    std::size_t chunk_size = 0;
    std::vector<Bytes> chunks;  ///< committed mirror (commit-path checks)
    DynMerkleTree tree;
    std::vector<std::uint64_t> tags;
    VersionChain chain;  ///< the provider's copy (countersigned records)
  };

  DynProviderActor(std::string id, net::Network& network,
                   pki::Identity& identity, crypto::Drbg& rng);

  void set_behavior(DynProviderBehavior behavior) { behavior_ = behavior; }
  [[nodiscard]] const DynProviderBehavior& behavior() const noexcept {
    return behavior_;
  }

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

  /// Countersigns `record`‖`client_sig` and sends the receipt carrying the
  /// full SignedVersionRecord back to `client`.
  void send_receipt(const std::string& client, const std::string& txn_id,
                    nr::MsgType flag, const SignedVersionRecord& rec);
  void send_mutate_error(const std::string& client, const std::string& txn_id,
                         const std::string& object_key, std::uint64_t version,
                         const std::string& reason);

  DynProviderBehavior behavior_;
  storage::ObjectStore store_;
  std::map<std::string, DynObjectState> objects_;  ///< by object key
  std::uint64_t receipts_resent_ = 0;
  std::uint64_t mutations_rejected_ = 0;
};

}  // namespace tpnr::dyn
