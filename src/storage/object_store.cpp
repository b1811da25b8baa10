#include "storage/object_store.h"

#include "common/error.h"
#include "common/serial.h"
#include "consistency/view_identity.h"
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
    case FaultKind::kEquivocation:
      return "equivocation";
  }
  return "unknown";
}

ObjectStore::ObjectStore(std::unique_ptr<StorageBackend> backend,
                         std::uint64_t fault_seed)
    : backend_(std::move(backend)), fault_rng_(fault_seed) {
  if (!backend_) {
    throw common::StorageError("ObjectStore: null backend");
  }
}

std::uint64_t ObjectStore::put(const std::string& key, common::Payload data,
                               BytesView client_md5, SimTime now) {
  ObjectRecord& record = index_[key];
  if (record.version > 0) {
    history_[key].push_back(record.data);  // share, not a byte copy
  }
  record.data = std::move(data);
  record.stored_md5 = Bytes(client_md5.begin(), client_md5.end());
  record.stored_at = now;
  ++record.version;
  backend_->put(key, record.data);  // backend aliases the same buffer
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
  ObjectRecord& record = it->second;
  if (stale_mutations_armed_ > 0) {
    // kStaleVersion-on-mutation: acknowledge the bump the caller will put
    // in its receipt, but commit nothing — reads keep serving the old
    // version under its old number.
    --stale_mutations_armed_;
    log_fault(key, FaultKind::kStaleVersion, record.version);
    return record.version + 1;
  }
  history_[key].push_back(record.data);  // share, not a byte copy
  record.data = std::move(data);
  record.stored_md5 = Bytes(client_md5.begin(), client_md5.end());
  record.stored_at = now;
  ++record.version;
  backend_->put(key, record.data);
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
  return it == index_.end() ? 0 : it->second.version;
}

bool ObjectStore::rollback_attack(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  const auto hist = history_.find(key);
  if (hist == history_.end() || hist->second.empty()) return false;
  // Version number deliberately untouched: the provider keeps CLAIMING the
  // current version while serving yesterday's bytes — the revert only the
  // version chain's root comparison can expose.
  it->second.data = hist->second.back();
  backend_->put(key, it->second.data);
  log_fault(key, FaultKind::kRollbackAttack, it->second.version);
  return true;
}

std::optional<ObjectRecord> ObjectStore::get(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  // Serve from the backend so out-of-band backend corruption is visible.
  auto raw = backend_->get(key);
  if (!raw) return std::nullopt;
  // Build the served record field by field: the data comes from the backend
  // (so out-of-band backend corruption is visible) and is a share of the
  // stored buffer, not a copy.
  ObjectRecord record;
  record.stored_md5 = it->second.stored_md5;
  record.version = it->second.version;
  record.stored_at = it->second.stored_at;
  record.metadata = it->second.metadata;
  record.data = std::move(*raw);
  apply_fault(key, record);
  if (record.version == 0) return std::nullopt;  // kLoss marker
  return record;
}

bool ObjectStore::arm_equivocation(
    const std::string& key, const std::map<std::string, ClientView>& views) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  // Replace any previous arming wholesale: the fork's branches evolve and
  // each re-arm is the new per-client truth.
  disarm_equivocation(key);
  equivocating_keys_.insert(key);
  for (const auto& [client, view] : views) {
    equivocation_views_[consistency::view_key(key, client)] = view;
    // A view matching the real current state is not a divergence — only
    // clients actually lied to get a fault event.
    if (view.version != it->second.version ||
        !(it->second.data == view.data)) {
      log_fault(key, FaultKind::kEquivocation, view.version);
    }
  }
  return true;
}

void ObjectStore::disarm_equivocation(const std::string& key) {
  if (equivocating_keys_.erase(key) == 0) return;
  // view_key(key, client) == key + '#' + client: erase the contiguous range.
  const auto first = equivocation_views_.lower_bound(key + "#");
  auto last = first;
  while (last != equivocation_views_.end() &&
         last->first.compare(0, key.size() + 1, key + "#") == 0) {
    ++last;
  }
  equivocation_views_.erase(first, last);
}

bool ObjectStore::equivocation_armed(const std::string& key) const {
  return equivocating_keys_.contains(key);
}

std::optional<ObjectRecord> ObjectStore::get_as(const std::string& key,
                                                const std::string& client) {
  if (equivocation_armed(key)) {
    const auto it = equivocation_views_.find(consistency::view_key(key, client));
    if (it != equivocation_views_.end()) {
      ObjectRecord record;
      record.version = it->second.version;
      record.data = common::Payload::copy_of(it->second.data);
      record.stored_md5 = crypto::md5(it->second.data);
      const auto idx = index_.find(key);
      record.stored_at = idx != index_.end() ? idx->second.stored_at : 0;
      return record;
    }
  }
  return get(key);
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

void ObjectStore::apply_fault(const std::string& key, ObjectRecord& record) {
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
    case FaultKind::kEquivocation:    // arm_equivocation() only
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
      const auto hist = history_.find(key);
      if (hist != history_.end() && !hist->second.empty()) {
        record.data = hist->second.back();
      }
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
  // Deliberately leave stored_md5, version, metadata untouched: the
  // administrator rewrites bytes behind the bookkeeping's back. The fault
  // log still records it — the log belongs to the experiment harness, not
  // to the provider's (fooled) bookkeeping.
  it->second.data = common::Payload::copy_of(new_data);
  backend_->put(key, it->second.data);  // share the tampered buffer
  log_fault(key, FaultKind::kAdminTamper, it->second.version);
  return true;
}

bool ObjectStore::remove(const std::string& key) {
  history_.erase(key);
  const bool had_index = index_.erase(key) > 0;
  const bool had_bytes = backend_->remove(key);
  if (journal_ != nullptr && (had_index || had_bytes)) {
    common::BinaryWriter w;
    w.str(key);
    journal_->record(persist::RecordType::kObjectRemove, w.data());
  }
  return had_index || had_bytes;
}

bool ObjectStore::exists(const std::string& key) const {
  return index_.contains(key);
}

std::vector<std::string> ObjectStore::list() const {
  std::vector<std::string> keys;
  keys.reserve(index_.size());
  for (const auto& [key, record] : index_) keys.push_back(key);
  return keys;
}

}  // namespace tpnr::storage
