#include "storage/object_store.h"

#include "common/serial.h"
#include "crypto/hash.h"
#include "persist/records.h"

namespace tpnr::storage {

std::string fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kBitFlip:
      return "bit-flip";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kOverwrite:
      return "overwrite";
    case FaultKind::kStaleVersion:
      return "stale-version";
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kAdminTamper:
      return "admin-tamper";
    case FaultKind::kRollbackAttack:
      return "rollback-attack";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kTornWrite:
      return "torn-write";
  }
  return "unknown";
}

const ObjectRecord& ObjectStore::commit(Entry& entry, common::Payload data,
                                        BytesView client_md5, SimTime now) {
  ObjectRecord& record = entry.current;
  if (record.version > 0) entry.previous = std::move(record.data);
  record.data = std::move(data);
  record.stored_md5 = Bytes(client_md5.begin(), client_md5.end());
  record.stored_at = now;
  ++record.version;
  return record;
}

std::uint64_t ObjectStore::put(const std::string& key, common::Payload data,
                               BytesView client_md5, SimTime now) {
  const ObjectRecord& record =
      commit(index_[key], std::move(data), client_md5, now);
  if (journal_ != nullptr) {
    persist::ObjectMeta meta;
    meta.key = key;
    meta.version = record.version;
    meta.stored_md5 = record.stored_md5;
    meta.stored_at = now;
    meta.size = record.data.size();
    meta.sha256 = crypto::sha256(record.data);
    journal_->record(persist::RecordType::kObjectPut, meta.encode());
  }
  return record.version;
}

std::uint64_t ObjectStore::mutate(const std::string& key, common::Payload data,
                                  BytesView client_md5, SimTime now,
                                  const MutationInfo& info) {
  const auto it = index_.find(key);
  if (it == index_.end()) return 0;
  if (stale_mutations_armed_ > 0) {
    // kStaleVersion-on-mutation: acknowledge the bump the caller will put
    // in its receipt, but commit nothing — reads keep serving the old
    // version under its old number.
    --stale_mutations_armed_;
    const std::uint64_t version = it->second.current.version;
    log_fault(key, FaultKind::kStaleVersion, version);
    return version + 1;
  }
  const ObjectRecord& record =
      commit(it->second, std::move(data), client_md5, now);
  if (journal_ != nullptr) {
    persist::MutationRecord mutation;
    mutation.key = key;
    mutation.version = record.version;
    mutation.op = info.op;
    mutation.chunk_index = info.chunk_index;
    mutation.chunk_count = info.chunk_count;
    mutation.old_root = info.old_root;
    mutation.new_root = info.new_root;
    mutation.stored_at = now;
    mutation.size = record.data.size();
    mutation.sha256 = crypto::sha256(record.data);
    journal_->record(persist::RecordType::kObjectMutate, mutation.encode());
  }
  return record.version;
}

std::uint64_t ObjectStore::version_of(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.current.version;
}

bool ObjectStore::rollback_attack(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end() || !it->second.previous) return false;
  // Version number deliberately untouched: the provider keeps CLAIMING the
  // current version while serving yesterday's bytes — the revert only the
  // version chain's root comparison can expose.
  ObjectRecord& record = it->second.current;
  record.data = *it->second.previous;
  log_fault(key, FaultKind::kRollbackAttack, record.version);
  return true;
}

std::optional<ObjectRecord> ObjectStore::get(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  ObjectRecord record = it->second.current;  // shares the stored buffer
  apply_fault(key, it->second, record);
  if (record.version == 0) return std::nullopt;  // kLoss marker
  return record;
}

std::vector<FaultEvent> ObjectStore::fault_log_for(
    const std::string& key) const {
  std::vector<FaultEvent> events;
  for (const FaultEvent& event : fault_log_) {
    if (event.key == key) events.push_back(event);
  }
  return events;
}

void ObjectStore::log_fault(const std::string& key, FaultKind kind,
                            std::uint64_t version) {
  ++faults_injected_;
  FaultEvent event;
  event.key = key;
  event.kind = kind;
  event.version = version;
  event.at = now_ ? now_() : 0;
  fault_log_.push_back(std::move(event));
}

void ObjectStore::apply_fault(const std::string& key, const Entry& entry,
                              ObjectRecord& record) {
  if (policy_.kind == FaultKind::kNone ||
      !fault_rng_.chance(policy_.probability)) {
    return;
  }
  log_fault(key, policy_.kind, record.version);
  switch (policy_.kind) {
    case FaultKind::kNone:
    case FaultKind::kAdminTamper:     // never produced by a policy
    case FaultKind::kRollbackAttack:  // explicit rollback_attack() only
    case FaultKind::kCrash:           // logged by the persistence harness
    case FaultKind::kTornWrite:
      break;
    case FaultKind::kBitFlip: {
      if (record.data.empty()) break;
      const std::size_t pos = static_cast<std::size_t>(
          fault_rng_.uniform(record.data.size()));
      const auto mask =
          static_cast<std::uint8_t>(1u << fault_rng_.uniform(8));
      // mutate() detaches the served record from the stored buffer first:
      // the fault corrupts what the reader sees, not the store's copy.
      record.data.mutate()[pos] ^= mask;
      break;
    }
    case FaultKind::kTruncate: {
      if (record.data.size() < 2) break;
      record.data.mutate().resize(record.data.size() / 2);
      break;
    }
    case FaultKind::kOverwrite: {
      if (record.data.empty()) break;
      const std::size_t start = static_cast<std::size_t>(
          fault_rng_.uniform(record.data.size()));
      const std::size_t len = std::min<std::size_t>(
          record.data.size() - start, 16);
      const Bytes junk = fault_rng_.bytes(len);
      Bytes& bytes = record.data.mutate();
      std::copy(junk.begin(), junk.end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(start));
      break;
    }
    case FaultKind::kStaleVersion: {
      if (entry.previous) record.data = *entry.previous;
      break;
    }
    case FaultKind::kLoss: {
      record.version = 0;  // sentinel consumed by get()
      break;
    }
  }
}

bool ObjectStore::tamper(const std::string& key, BytesView new_data) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  // Deliberately leave stored_md5 and version untouched: the administrator
  // rewrites bytes behind the bookkeeping's back. The fault log still
  // records it — the log belongs to the experiment harness, not to the
  // provider's (fooled) bookkeeping.
  ObjectRecord& record = it->second.current;
  record.data = common::Payload::copy_of(new_data);
  log_fault(key, FaultKind::kAdminTamper, record.version);
  return true;
}

bool ObjectStore::remove(const std::string& key) {
  if (index_.erase(key) == 0) return false;
  if (journal_ != nullptr) {
    common::BinaryWriter w;
    w.str(key);
    journal_->record(persist::RecordType::kObjectRemove, w.data());
  }
  return true;
}

bool ObjectStore::exists(const std::string& key) const {
  return index_.contains(key);
}

std::vector<std::string> ObjectStore::list() const {
  std::vector<std::string> keys;
  keys.reserve(index_.size());
  for (const auto& [key, entry] : index_) keys.push_back(key);
  return keys;
}

}  // namespace tpnr::storage
