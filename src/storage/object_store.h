// ObjectStore: the provider-visible storage layer — versioned objects with
// per-upload checksums and one previous version each — plus the
// FaultInjector that models Fig. 5's threat: data silently changing INSIDE
// the store, between the (individually secure) upload and download sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/payload.h"
#include "crypto/drbg.h"
#include "persist/journal.h"

namespace tpnr::storage {

using common::Bytes;
using common::BytesView;
using common::SimTime;

/// Everything the provider records about one object. `data` is a COW
/// common::Payload: the index and the records handed to readers alias one
/// buffer until somebody (a fault injector) mutates it.
struct ObjectRecord {
  common::Payload data;
  Bytes stored_md5;        ///< MD5 recorded at upload time (Azure keeps this)
  std::uint64_t version = 0;
  SimTime stored_at = 0;
};

/// What can silently go wrong at rest.
enum class FaultKind {
  kNone,
  kBitFlip,        ///< one random byte XORed
  kTruncate,       ///< object loses its tail
  kOverwrite,      ///< a range replaced with attacker bytes
  kStaleVersion,   ///< reads serve a previous version (rollback)
  kLoss,           ///< object disappears
  kAdminTamper,    ///< explicit tamper() by "the administrator" (Eve)
  kRollbackAttack, ///< silent revert to an older committed version, version
                   ///< number left claiming currency (rollback_attack())
  // Persistence faults (src/persist/): logged via log_external_fault by the
  // crash/recovery harness so durability losses land in the same per-key
  // log the audit report reads.
  kCrash,          ///< object (or its latest version) lost to a crash
  kTornWrite,      ///< a torn device write damaged the object's durable state
};

std::string fault_kind_name(FaultKind kind);

/// One observed fault, recorded when it is injected. Detection latency for
/// an auditor is (time the audit flags the key) − (`at` of the injection).
struct FaultEvent {
  std::string key;
  FaultKind kind = FaultKind::kNone;
  std::uint64_t version = 0;  ///< version the fault was applied against
  SimTime at = 0;             ///< injection time (0 if no clock is bound)
};

/// Deterministic fault injection driven by a seeded Drbg. `probability`
/// applies independently per read.
struct FaultPolicy {
  FaultKind kind = FaultKind::kNone;
  double probability = 0.0;
};

/// Descriptor of one chunk-level mutation, journalled with the new version
/// (persist::MutationRecord). `op` carries the dyn::MutateOp value as a raw
/// byte so storage stays independent of tpnr_dyn.
struct MutationInfo {
  std::uint8_t op = 0;
  std::uint64_t chunk_index = 0;
  std::uint64_t chunk_count = 0;  ///< chunk count AFTER the mutation
  Bytes old_root;
  Bytes new_root;
};

class ObjectStore {
 public:
  explicit ObjectStore(std::uint64_t fault_seed = 7)
      : fault_rng_(fault_seed) {}

  /// Stores a new version; records the MD5 the client supplied (the Azure
  /// behaviour) and returns the assigned version. The replaced payload, if
  /// any, is kept as the previous version; older ones are dropped.
  std::uint64_t put(const std::string& key, common::Payload data,
                    BytesView client_md5, SimTime now);

  /// In-place mutation of an EXISTING object: keeps the replaced payload as
  /// the previous version, bumps the version and journals a
  /// persist::MutationRecord. Returns the acknowledged version, or 0 if the
  /// key does not exist.
  ///
  /// If arm_stale_mutations() is pending, the mutation is ACKNOWLEDGED (the
  /// returned version is the bump the caller expects) but never applied —
  /// the kStaleVersion-on-mutation fault: reads keep serving the old version
  /// under its old version number, which the version chain exposes.
  std::uint64_t mutate(const std::string& key, common::Payload data,
                       BytesView client_md5, SimTime now,
                       const MutationInfo& info);

  /// Current committed version of `key` (0 if absent).
  [[nodiscard]] std::uint64_t version_of(const std::string& key) const;

  /// The next `count` mutate() calls are acknowledged but silently dropped
  /// (kStaleVersion logged per drop).
  void arm_stale_mutations(std::uint64_t count = 1) noexcept {
    stale_mutations_armed_ += count;
  }

  /// The rollback attack: silently restores the previous version's payload
  /// as the current bytes while leaving the version number claiming
  /// currency. Returns false if the key has no previous version. Logs
  /// kRollbackAttack.
  bool rollback_attack(const std::string& key);

  /// Plain read (fault injection applies).
  [[nodiscard]] std::optional<ObjectRecord> get(const std::string& key);

  /// Direct tamper by "the administrator" (the paper's Eve): replaces the
  /// object bytes without touching stored_md5 or version — exactly the
  /// silent-modification the upload/download integrity checks miss.
  bool tamper(const std::string& key, BytesView new_data);

  bool remove(const std::string& key);
  [[nodiscard]] bool exists(const std::string& key) const;
  [[nodiscard]] std::vector<std::string> list() const;

  void set_fault_policy(FaultPolicy policy) { policy_ = policy; }
  /// Number of faults actually injected so far.
  [[nodiscard]] std::uint64_t faults_injected() const noexcept {
    return faults_injected_;
  }

  /// Binds the simulation time source so fault events carry injection
  /// times. Actors inside the runtime bind the executing event's time
  /// (Network::now()), which every shard/worker configuration agrees on.
  void bind_clock(std::function<SimTime()> now) { now_ = std::move(now); }
  /// Binds a plain clock, which the store does not own; nullptr unbinds.
  void bind_clock(const common::SimClock* clock) {
    now_ = clock == nullptr ? std::function<SimTime()>()
                            : [clock] { return clock->now(); };
  }

  /// Every fault injected so far (policy faults and tamper() calls), in
  /// injection order.
  [[nodiscard]] const std::vector<FaultEvent>& fault_log() const noexcept {
    return fault_log_;
  }
  /// The injections that hit `key`.
  [[nodiscard]] std::vector<FaultEvent> fault_log_for(
      const std::string& key) const;

  /// Records a fault observed OUTSIDE the read path — the crash/recovery
  /// harness logs kCrash/kTornWrite here so persistence losses show up in
  /// the same per-key log audit reports consume.
  void log_external_fault(const std::string& key, FaultKind kind,
                          std::uint64_t version = 0) {
    log_fault(key, kind, version);
  }

  /// Journals accepted object versions (persist::ObjectMeta per put) through
  /// the durability seam. nullptr (the default) keeps the store memory-only.
  void bind_journal(persist::Journal* journal) noexcept {
    journal_ = journal;
  }

 private:
  /// One stored object: the current record and the payload it superseded,
  /// which kStaleVersion reads and rollback_attack() serve.
  struct Entry {
    ObjectRecord current;
    std::optional<common::Payload> previous;
  };

  /// The commit step put() and mutate() share: the current payload becomes
  /// the previous version and `data` the next one. Returns the new record.
  const ObjectRecord& commit(Entry& entry, common::Payload data,
                             BytesView client_md5, SimTime now);
  void apply_fault(const std::string& key, const Entry& entry,
                   ObjectRecord& record);
  void log_fault(const std::string& key, FaultKind kind,
                 std::uint64_t version);

  std::map<std::string, Entry> index_;
  FaultPolicy policy_;
  crypto::Drbg fault_rng_;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t stale_mutations_armed_ = 0;
  std::function<SimTime()> now_;
  std::vector<FaultEvent> fault_log_;
  persist::Journal* journal_ = nullptr;
};

}  // namespace tpnr::storage
