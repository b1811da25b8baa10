// The shared-object provider — one provider, N clients, ONE promised
// global operation order per object (until it decides to equivocate).
//
// Every committed operation is (a) countersigned as a SignedVersionRecord,
// exactly like the dynamic-data layer, and (b) bound into the object's
// ViewHistory by a provider-signed ViewCommitment naming the submitting
// client and the head it observed. Commits are broadcast to every client
// of the object, so each participant's mirror advances through the same
// totally ordered log.
//
// The equivocation attack is a first-class provider mode: fork_object()
// splits an object's state into per-victim-group branches that evolve
// independently — each branch keeps countersigning perfectly valid
// records and commitments, which is exactly what makes the attack
// invisible to any single client and provable the moment two clients
// compare notes. The per-client divergence is mirrored into the
// ObjectStore through arm_equivocation(), so the storage layer's fault
// log records the attack alongside every other at-rest fault.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "consistency/op_log.h"
#include "consistency/view_history.h"
#include "dyn/dyn_merkle.h"
#include "dyn/version_chain.h"
#include "nr/actor.h"
#include "storage/object_store.h"

namespace tpnr::consistency {

/// Misbehaviour dials for the shared-object provider.
struct ConsProviderBehavior {
  bool send_commits = true;          ///< false: commits are withheld
  bool respond_to_view_query = true; ///< false: joins/resyncs go unanswered
};

class ConsProviderActor final : public nr::NrActor {
 public:
  /// One branch of an object's history. Honest objects have exactly one;
  /// fork_object() clones more.
  struct Branch {
    dyn::VersionChain chain;
    ViewHistory views;
    std::vector<CommittedOp> log;
    std::vector<Bytes> chunks;  ///< committed mirror of this branch
    dyn::DynMerkleTree tree;
  };

  /// Provider-side state of one shared object.
  struct SharedObjectState {
    std::string txn_id;   ///< the creating store's txn (commit fan-out key)
    std::string creator;
    std::size_t chunk_size = 0;
    std::vector<std::string> participants;        ///< registration order
    std::map<std::string, std::size_t> branch_of; ///< client -> branch index
    std::vector<Branch> branches;                 ///< [0] is the main branch

    /// The branch `client` is served: 0 unless fork_object() assigned one.
    [[nodiscard]] std::size_t branch_index(const std::string& client) const {
      const auto it = branch_of.find(client);
      return it == branch_of.end() ? 0 : it->second;
    }
    /// Registers `client` as a participant; false if it already was one.
    bool join(const std::string& client) {
      if (std::find(participants.begin(), participants.end(), client) !=
          participants.end()) {
        return false;
      }
      participants.push_back(client);
      return true;
    }
  };

  ConsProviderActor(std::string id, net::Network& network,
                    pki::Identity& identity, crypto::Drbg& rng);

  void set_behavior(ConsProviderBehavior behavior) { behavior_ = behavior; }
  [[nodiscard]] const ConsProviderBehavior& behavior() const noexcept {
    return behavior_;
  }

  /// THE EQUIVOCATION ATTACK: split `object_key`'s state into
  /// `branch_count` identical branches and serve each client the branch
  /// `assignment` maps it to (unmapped clients stay on branch 0). From now
  /// on each branch's history evolves independently — same global
  /// positions, different provider-signed contents. Also arms the object
  /// store's per-client divergent serving. Returns false on an unknown
  /// object, branch_count < 2, or an out-of-range assignment.
  bool fork_object(const std::string& object_key,
                   const std::map<std::string, std::size_t>& assignment,
                   std::size_t branch_count = 2);
  [[nodiscard]] bool forked(const std::string& object_key) const;

  [[nodiscard]] storage::ObjectStore& store() noexcept { return store_; }
  [[nodiscard]] const SharedObjectState* object_state(
      const std::string& object_key) const;

  /// Receipts (commits) re-issued for retried requests without re-applying.
  [[nodiscard]] std::uint64_t receipts_resent() const noexcept {
    return receipts_resent_;
  }
  /// Operations rejected with kConsOpError (stale views included).
  [[nodiscard]] std::uint64_t ops_rejected() const noexcept {
    return ops_rejected_;
  }
  /// Commits fanned out (one per participant per committed op).
  [[nodiscard]] std::uint64_t commits_sent() const noexcept {
    return commits_sent_;
  }

 protected:
  void on_message(const nr::NrMessage& message) override;

 private:
  void handle_op_request(const nr::NrMessage& message);
  void handle_view_query(const nr::NrMessage& message);

  /// Countersigns and commits a validated op onto `branch`, updates the
  /// store (main branch: real write; forked: re-armed equivocation views),
  /// and fans the commit out to the branch's clients.
  void commit_op(const std::string& object_key, SharedObjectState& state,
                 std::size_t branch_index, const std::string& submitter,
                 dyn::SignedVersionRecord record, Bytes op_bytes);

  /// The log entries a client on `observed_head` is missing (the catch-up
  /// suffix a stale-view error carries).
  [[nodiscard]] std::span<const CommittedOp> suffix_from(
      const Branch& branch, const Bytes& observed_head) const;

  void send_commit(const std::string& client, const std::string& txn_id,
                   const std::string& object_key, std::size_t chunk_size,
                   const CommittedOp& op);
  void send_op_error(const std::string& client, const std::string& txn_id,
                     const std::string& object_key, std::uint64_t version,
                     const std::string& reason,
                     std::span<const CommittedOp> suffix);

  /// Pushes every branch's current (version, bytes) into the store's
  /// per-client equivocation views.
  void sync_store_views(const std::string& object_key,
                        const SharedObjectState& state);

  ConsProviderBehavior behavior_;
  storage::ObjectStore store_;
  std::map<std::string, SharedObjectState> objects_;  ///< by object key
  std::uint64_t receipts_resent_ = 0;
  std::uint64_t ops_rejected_ = 0;
  std::uint64_t commits_sent_ = 0;
};

}  // namespace tpnr::consistency
