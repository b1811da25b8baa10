// The shared-object client — a fork-checking participant in a multi-client
// object.
//
// Unlike the dynamic-data client, the mirror here is NOT optimistic: other
// clients' operations interleave with ours in the provider's global order,
// so the local mirror only advances when a provider-signed kConsCommit
// arrives (our own submissions included — the broadcast commit doubles as
// the receipt). Every commitment the client witnesses, from any source,
// funnels through its per-object ForkChecker:
//
//   * kConsCommit   — the provider's broadcast for each committed op;
//   * kViewUpdate   — the replayable log answering open_shared()/re-syncs;
//   * kConsOpError  — a stale submission bounced with the missing suffix
//                     (the client catches up, re-signs, re-submits);
//   * kGossipViews  — commitment tails exchanged client↔client on the
//                     "cons.gossip" topic, which is what makes a fork
//                     detectable even when the provider forever partitions
//                     the victim groups.
//
// The moment the checker latches an EquivocationProof the client reports
// it (kForkReport) to its configured arbiter and stops trusting the
// object. Gossip that merely LAGS never accuses: unlinked or gapped
// observations count as suspicions and trigger a re-sync, keeping the
// false-accusation rate at zero by construction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/id.h"
#include "consistency/fork_checker.h"
#include "consistency/op_log.h"
#include "dyn/dyn_merkle.h"
#include "dyn/version_chain.h"
#include "nr/actor.h"

namespace tpnr::consistency {

/// Commit wait per submission attempt: an unacknowledged submission is
/// re-sent (same signed record, fresh header) `retries` times, then dropped.
inline constexpr nr::RetryPolicy kOpWait{15 * common::kSecond,
                                         5 * common::kSecond, 2};
/// How many times a stale-view bounce may rebuild + re-submit an op
/// against the caught-up head before the op is dropped.
inline constexpr std::size_t kMaxResubmits = 4;

/// Out-of-band client↔client exchange of witnessed views.
struct GossipOptions {
  common::SimTime period = 2 * common::kSecond;
  /// Timer rounds to run (the deterministic network drains its event queue,
  /// so the gossip timer must be bounded; re-enable for more).
  std::size_t rounds = 8;
  /// Where to send kForkReport when a proof latches ("" keeps it local).
  std::string arbiter;
};

class ConsClientActor final : public nr::NrActor {
 public:
  /// Client-side state of one shared object.
  struct SharedObject {
    std::string provider;
    std::string ttp;
    std::string object_key;
    std::string txn_id;  ///< this client's request transaction
    std::size_t chunk_size = 0;
    std::vector<Bytes> chunks;  ///< committed mirror (commit-driven only)
    dyn::DynMerkleTree tree;
    dyn::VersionChain chain;
    std::optional<ForkChecker> checker;
    bool opened = false;  ///< view update (or own store commit) arrived

    /// The in-flight client-signed submission.
    struct PendingOp {
      dyn::MutateOp op = dyn::MutateOp::kUpdate;
      std::uint64_t index = 0;
      Bytes chunk;
      dyn::VersionRecord record;
      Bytes client_sig;
      std::uint64_t wait = 0;     ///< token of the live commit wait
      std::size_t resubmits = 0;  ///< stale-view rebuilds of the record
    };
    std::optional<PendingOp> pending;

    // Outcome counters.
    std::uint64_t commits_applied = 0;   ///< mirror advanced (any submitter)
    std::uint64_t receipts = 0;          ///< own submissions committed
    std::uint64_t duplicate_commits = 0;
    std::uint64_t rejected = 0;          ///< ops dropped (error/exhausted)
    std::uint64_t stale_resubmits = 0;   ///< caught up and re-signed
    std::uint64_t timeouts = 0;          ///< retries exhausted
    bool fork_reported = false;
  };

  ConsClientActor(std::string id, net::Network& network,
                  pki::Identity& identity, crypto::Drbg& rng);

  /// Creates the shared object (version 1, global position 1). Returns the
  /// txn id. Throws ProtocolError on unknown provider key, zero chunk
  /// size, empty data, or a key this client already tracks.
  std::string store_shared(const std::string& provider,
                           const std::string& ttp,
                           const std::string& object_key, BytesView data,
                           std::size_t chunk_size);

  /// Joins an object another client created: sends kViewQuery and replays
  /// the returned op log from genesis. Returns false on unknown provider
  /// key or a key this client already tracks.
  bool open_shared(const std::string& provider, const std::string& ttp,
                   const std::string& object_key);

  // One submission may be in flight per object; these return false while
  // one is pending, before the object is opened, or on a bad index.
  bool update(const std::string& object_key, std::uint64_t index,
              BytesView chunk);
  bool insert(const std::string& object_key, std::uint64_t index,
              BytesView chunk);
  bool append_chunk(const std::string& object_key, BytesView chunk);
  bool erase(const std::string& object_key, std::uint64_t index);

  /// Starts the periodic gossip timer. Peers are added with
  /// add_gossip_peer() (each must also be a trusted peer).
  void enable_gossip(GossipOptions options);
  /// One immediate gossip round, outside the timer cadence.
  void gossip_now();
  void add_gossip_peer(const std::string& peer_id);
  [[nodiscard]] const std::vector<std::string>& gossip_peers() const noexcept {
    return gossip_peers_;
  }

  [[nodiscard]] const SharedObject* object(
      const std::string& object_key) const;
  /// The first latched equivocation proof across all objects, if any.
  [[nodiscard]] const EquivocationProof* fork_proof(
      const std::string& object_key) const;
  [[nodiscard]] std::uint64_t forks_detected() const noexcept {
    return forks_detected_;
  }
  [[nodiscard]] std::uint64_t gossip_rounds() const noexcept {
    return gossip_rounds_;
  }

 protected:
  void on_message(const nr::NrMessage& message) override;

 private:
  SharedObject* mutable_object(const std::string& object_key);
  bool begin_op(SharedObject& obj, dyn::MutateOp op, std::uint64_t index,
                BytesView chunk);
  /// Builds (or rebuilds, after catch-up) pending's record against the
  /// current head. Returns false if the op no longer applies.
  bool build_pending_record(SharedObject& obj);
  /// Sends attempt `attempt` of the pending record under a fresh header and
  /// awaits its commit.
  void transmit_pending(const std::string& object_key, std::size_t attempt);
  /// Runs one committed op through the checker and (if it extends the
  /// mirror) applies it. Returns false only on a verification failure.
  bool absorb_committed_op(SharedObject& obj, const CommittedOp& op);
  /// Applies a verified next-version op to the mirror.
  bool advance_mirror(SharedObject& obj, const CommittedOp& op);
  void maybe_report_fork(SharedObject& obj);
  void request_view(SharedObject& obj);
  void gossip_tick();

  void handle_commit(const nr::NrMessage& message);
  void handle_view_update(const nr::NrMessage& message);
  void handle_op_error(const nr::NrMessage& message);
  void handle_gossip(const nr::NrMessage& message);

  std::optional<GossipOptions> gossip_;
  std::vector<std::string> gossip_peers_;
  bool gossip_timer_armed_ = false;
  std::map<std::string, SharedObject> objects_;  ///< by object key
  common::IdGenerator txn_ids_;
  std::uint64_t forks_detected_ = 0;
  std::uint64_t gossip_rounds_ = 0;
};

}  // namespace tpnr::consistency
