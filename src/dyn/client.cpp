#include "dyn/client.h"

#include <memory>
#include <utility>

#include "common/error.h"
#include "common/serial.h"
#include "nr/evidence.h"

namespace tpnr::dyn {

DynClientActor::DynClientActor(std::string id, net::Network& network,
                               pki::Identity& identity, crypto::Drbg& rng,
                               Bytes master_secret, DynClientOptions options)
    : NrActor(std::move(id), network, identity, rng),
      master_secret_(std::move(master_secret)),
      options_(options),
      txn_ids_(rng.next_u64()) {}

const DynClientActor::DynObject* DynClientActor::object(
    const std::string& object_key) const {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

DynClientActor::DynObject* DynClientActor::mutable_object(
    const std::string& object_key) {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

std::string DynClientActor::store_dyn(const std::string& provider,
                                      const std::string& ttp,
                                      const std::string& object_key,
                                      BytesView data, std::size_t chunk_size) {
  if (peer_key(provider) == nullptr) {
    throw common::ProtocolError(
        "DynClientActor::store_dyn: provider key unknown");
  }
  if (chunk_size == 0) {
    throw common::ProtocolError(
        "DynClientActor::store_dyn: chunk_size must be > 0");
  }
  if (data.empty()) {
    throw common::ProtocolError("DynClientActor::store_dyn: empty object");
  }
  if (objects_.count(object_key) != 0) {
    throw common::ProtocolError(
        "DynClientActor::store_dyn: object already stored");
  }

  DynObject obj;
  obj.provider = provider;
  obj.ttp = ttp;
  obj.object_key = object_key;
  obj.txn_id = txn_ids_.next_id("dyn");
  obj.chunk_size = chunk_size;
  std::optional<ObjectMirror::Staged> staged =
      obj.stage(object_key, MutateOp::kStore, 0, data);
  obj.tag_key = TagKey::derive(master_secret_, object_key);
  obj.alphas = std::make_shared<const std::vector<std::uint64_t>>(
      obj.tag_key.alphas(sectors_per_chunk(chunk_size)));
  // The staged build already hashed every chunk: tag over its leaves.
  ObjectMirror::Change& change = staged->change;
  change.tags = make_tags(obj.tag_key, chunk_views(change.chunks),
                          change.tree.leaf_hashes(), *obj.alphas);

  const std::string txn_id = obj.txn_id;
  txn_to_object_[txn_id] = object_key;
  open_pending(objects_.emplace(object_key, std::move(obj)).first->second,
               std::move(*staged), data);
  return txn_id;
}

bool DynClientActor::begin_mutation(const std::string& object_key,
                                    MutateOp op, std::uint64_t index,
                                    BytesView chunk) {
  DynObject* found = mutable_object(object_key);
  // One in-flight mutation per object.
  if (found == nullptr || pending_.find(object_key) != nullptr) return false;
  DynObject& obj = *found;
  if (op == MutateOp::kAppend) index = obj.chunks.size();

  // The leaf hash feeds both the tag and the tree: hash the chunk once.
  Bytes leaf_hash;
  std::uint64_t tag = 0;
  if (op != MutateOp::kErase) {
    leaf_hash = DynMerkleTree::hash_chunk(chunk);
    tag = make_tag(obj.tag_key, chunk, leaf_hash, *obj.alphas);
  }
  // The store serves aggregate challenges by slicing the object at a fixed
  // chunk_size stride — staging refuses here what the provider would
  // reject later.
  std::optional<ObjectMirror::Staged> staged =
      obj.stage(obj.object_key, op, index, chunk, tag, std::move(leaf_hash));
  if (!staged) return false;
  open_pending(obj, std::move(*staged), chunk);
  return true;
}

void DynClientActor::open_pending(DynObject& obj, ObjectMirror::Staged staged,
                                  BytesView bytes) {
  PendingOp pending;
  pending.record = std::move(staged.record);
  pending.change = std::move(staged.change);
  pending.client_sig = identity_->sign(pending.record.encode());
  pending.chunk = Bytes(bytes.begin(), bytes.end());
  pending_.open(obj.object_key, std::move(pending));
  transmit_pending(obj.object_key, 1);
}

void DynClientActor::transmit_pending(const std::string& object_key,
                                      std::size_t attempt) {
  DynObject* obj = mutable_object(object_key);
  const PendingOp* pending_op = pending_.find(object_key);
  if (obj == nullptr || pending_op == nullptr) return;
  if (peer_key(obj->provider) == nullptr) return;
  const PendingOp& pending = *pending_op;

  // Same idempotent-retry contract as the static client: every (re-)send
  // carries a fresh header (live nonce/seq/deadline) around the SAME signed
  // record; the version number is the idempotency key the provider
  // deduplicates on. data_hash binds the header to the post-op root.
  const bool is_store = pending.record.op == MutateOp::kStore;
  auto [header, evidence] = make_receipt(
      is_store ? nr::MsgType::kDynStoreRequest : nr::MsgType::kMutateRequest,
      obj->provider, obj->ttp, obj->txn_id, pending.record.new_root,
      network_->now() + nr::kRequestWindow);

  common::BinaryWriter payload;
  payload.str(obj->object_key);
  if (is_store) {
    payload.u32(static_cast<std::uint32_t>(obj->chunk_size));
    payload.bytes(pending.chunk);  // the full object
    const std::vector<std::uint64_t>& tags = pending.change.tags;
    payload.u32(static_cast<std::uint32_t>(tags.size()));
    for (const std::uint64_t tag : tags) payload.u64(tag);
  } else {
    payload.u8(static_cast<std::uint8_t>(pending.record.op));
    payload.u64(pending.record.chunk_index);
    payload.bytes(pending.chunk);  // empty for erase
    payload.u64(pending.record.chunk_tag);
  }
  payload.bytes(pending.record.encode());
  payload.bytes(pending.client_sig);
  send(std::move(header), payload.take(), std::move(evidence));
  await_reply(
      pending_, mutate_wait(options_.mutate_retries), attempt, object_key,
      [this](const std::string& key, std::size_t next) {
        transmit_pending(key, next);
      },
      [this](const std::string& key) {
        DynObject& stalled = *mutable_object(key);
        ++stalled.timeouts;
        drop_pending(stalled);
      });
}

void DynClientActor::drop_pending(DynObject& obj) {
  const std::string object_key = obj.object_key;
  if (pending_.find(object_key)->record.op == MutateOp::kStore) {
    // Version 1 never committed — the object does not exist.
    txn_to_object_.erase(obj.txn_id);
    objects_.erase(object_key);  // `obj` is dead past this line
  }
  pending_.retire(object_key);
}

void DynClientActor::on_message(const nr::NrMessage& message) {
  switch (message.header.flag) {
    case nr::MsgType::kDynStoreReceipt:
    case nr::MsgType::kMutateReceipt:
      handle_receipt(message);
      break;
    case nr::MsgType::kMutateError:
      handle_mutate_error(message);
      break;
    default:
      break;
  }
}

DynClientActor::DynObject* DynClientActor::reply_target(
    const nr::MessageHeader& h) {
  const auto txn_it = txn_to_object_.find(h.txn_id);
  if (txn_it == txn_to_object_.end()) return nullptr;
  DynObject* obj = mutable_object(txn_it->second);
  return obj != nullptr && h.sender == obj->provider ? obj : nullptr;
}

void DynClientActor::handle_receipt(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  DynObject* obj = reply_target(h);
  if (obj == nullptr) return;

  common::BinaryReader r(message.payload);
  if (r.str() != obj->object_key) return;
  SignedVersionRecord signed_record = SignedVersionRecord::decode(r.bytes());
  r.expect_done();
  if (!common::constant_time_equal(h.data_hash,
                                   signed_record.record.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  const crypto::RsaPublicKey* provider_key = peer_key(obj->provider);
  const auto nrr =
      nr::open_evidence(*identity_, *provider_key, h, message.evidence);
  if (!nrr) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  PendingOp* pending = pending_.find(obj->object_key);
  if (pending == nullptr ||
      pending->record.version != signed_record.record.version) {
    // A retry crossed with its receipt: the version is already committed
    // (or long settled) — account for it, nothing to apply.
    ++obj->duplicate_receipts;
    return;
  }
  // The countersigned record must be EXACTLY the one we signed, and the
  // provider's countersignature must cover record‖our-signature.
  if (!common::constant_time_equal(signed_record.record.encode(),
                                   pending->record.encode()) ||
      !common::constant_time_equal(signed_record.client_sig,
                                   pending->client_sig)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (!signed_record.verify_provider(*provider_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  std::string why;
  if (!obj->chain.append(std::move(signed_record), &why)) {
    // Can only happen on local state corruption — surface it loudly.
    throw common::ProtocolError("DynClientActor: receipt does not extend "
                                "the local chain: " +
                                why);
  }
  obj->commit(std::move(pending->change));
  ++obj->receipts;
  pending_.retire(obj->object_key);
  // The dynamic NRR: journal it the moment it verifies, like the static
  // client journals its store receipts.
  journal_evidence("dyn-nrr", h.txn_id, obj->provider, obj->object_key,
                   obj->chunk_size, h, *nrr);
}

void DynClientActor::handle_mutate_error(const nr::NrMessage& message) {
  DynObject* obj = reply_target(message.header);
  if (obj == nullptr) return;

  common::BinaryReader r(message.payload);
  if (r.str() != obj->object_key) return;
  const std::uint64_t version = r.u64();
  (void)r.str();  // human-readable reason; narration only
  r.expect_done();
  const PendingOp* pending = pending_.find(obj->object_key);
  if (pending == nullptr || pending->record.version != version) return;
  ++obj->rejected;
  drop_pending(*obj);
}

}  // namespace tpnr::dyn
