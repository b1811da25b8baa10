#include "dyn/provider.h"

#include <utility>

#include "common/serial.h"
#include "crypto/hash.h"
#include "nr/evidence.h"
#include "storage/backend.h"

namespace tpnr::dyn {

namespace {

constexpr common::SimTime kReplyWindow = 30 * common::kSecond;

Bytes concat_chunks(std::span<const Bytes> chunks) {
  std::size_t total = 0;
  for (const Bytes& chunk : chunks) total += chunk.size();
  Bytes out;
  out.reserve(total);
  for (const Bytes& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

}  // namespace

DynProviderActor::DynProviderActor(std::string id, net::Network& network,
                                   pki::Identity& identity,
                                   crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng),
      store_(std::make_unique<storage::MemoryBackend>()) {
  store_.bind_clock([&network] { return network.now(); });
}

const DynProviderActor::DynObjectState* DynProviderActor::object_state(
    const std::string& object_key) const {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

void DynProviderActor::on_message(const nr::NrMessage& message) {
  switch (message.header.flag) {
    case nr::MsgType::kDynStoreRequest:
      handle_dyn_store(message);
      break;
    case nr::MsgType::kMutateRequest:
      handle_mutate(message);
      break;
    case nr::MsgType::kAggChallenge:
      handle_agg_challenge(message);
      break;
    default:
      break;
  }
}

void DynProviderActor::send_receipt(const std::string& client,
                                    const std::string& txn_id,
                                    nr::MsgType flag,
                                    const SignedVersionRecord& rec) {
  if (!behavior_.send_receipts) return;
  const crypto::RsaPublicKey* client_key = peer_key(client);
  if (client_key == nullptr) return;
  nr::MessageHeader header =
      next_header(flag, client, /*ttp=*/"", txn_id, rec.record.new_root,
                  network_->now() + kReplyWindow);
  Bytes evidence = nr::make_evidence(*identity_, *client_key, header, *rng_);

  common::BinaryWriter payload;
  payload.str(rec.record.object_key);
  payload.bytes(rec.encode());

  nr::NrMessage reply;
  reply.header = std::move(header);
  reply.payload = payload.take();
  reply.evidence = std::move(evidence);
  send(client, std::move(reply));
}

void DynProviderActor::send_mutate_error(const std::string& client,
                                         const std::string& txn_id,
                                         const std::string& object_key,
                                         std::uint64_t version,
                                         const std::string& reason) {
  ++mutations_rejected_;
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u64(version);
  payload.str(reason);

  nr::NrMessage reply;
  reply.header = next_header(nr::MsgType::kMutateError, client, /*ttp=*/"",
                             txn_id, Bytes{}, network_->now() + kReplyWindow);
  reply.payload = payload.take();
  send(client, std::move(reply));
}

void DynProviderActor::handle_dyn_store(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  std::uint32_t chunk_size = 0;
  Bytes data;
  std::vector<std::uint64_t> tags;
  VersionRecord record;
  Bytes client_sig;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    chunk_size = r.u32();
    data = r.bytes();
    const std::uint32_t tag_count = r.u32();
    tags.reserve(tag_count);
    for (std::uint32_t i = 0; i < tag_count; ++i) tags.push_back(r.u64());
    record = VersionRecord::decode(r.bytes());
    client_sig = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (chunk_size == 0 || data.empty()) {
    ++stats_.rejected_bad_hash;
    return;
  }

  // The record IS the agreement: the header must bind to its new_root and
  // the client signature must cover it.
  if (!common::constant_time_equal(h.data_hash, record.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  SignedVersionRecord signed_record;
  signed_record.record = std::move(record);
  signed_record.client_sig = std::move(client_sig);
  if (!signed_record.verify_client(*sender_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  const VersionRecord& rec = signed_record.record;

  // Idempotent re-store: same version-1 record for a known object → only
  // the receipt is re-issued (the chain already holds the countersigned
  // copy). A different record under a known key is a conflict.
  const auto existing = objects_.find(object_key);
  if (existing != objects_.end()) {
    const SignedVersionRecord& committed = existing->second.chain.records()[0];
    if (common::constant_time_equal(committed.record.encode(), rec.encode()) &&
        common::constant_time_equal(committed.client_sig,
                                    signed_record.client_sig)) {
      ++receipts_resent_;
      send_receipt(h.sender, h.txn_id, nr::MsgType::kDynStoreReceipt,
                   committed);
    } else {
      send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                        "object exists under a different record");
    }
    return;
  }

  // Recompute the committed facts from the bytes the client actually sent.
  DynObjectState state;
  state.txn_id = h.txn_id;
  state.client = h.sender;
  state.chunk_size = chunk_size;
  state.chunks = split_chunks(data, chunk_size);
  state.tree = DynMerkleTree::build(chunk_views(state.chunks));
  state.tags = std::move(tags);
  if (rec.version != 1 || rec.op != MutateOp::kStore ||
      rec.object_key != object_key ||
      rec.chunk_count != state.tree.leaf_count() ||
      state.tags.size() != state.chunks.size() ||
      !common::constant_time_equal(rec.old_root,
                                   DynMerkleTree::empty_root()) ||
      !common::constant_time_equal(rec.prev_record_hash,
                                   VersionRecord::genesis_link()) ||
      !common::constant_time_equal(rec.new_root, state.tree.root())) {
    ++stats_.rejected_bad_hash;
    return;
  }

  const auto nro =
      nr::open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  signed_record.provider_sig = [&] {
    Bytes material = rec.encode();
    const Bytes& sig = signed_record.client_sig;
    material.insert(material.end(), sig.begin(), sig.end());
    return identity_->sign(material);
  }();
  std::string why;
  if (!state.chain.append(signed_record, &why)) {
    ++stats_.rejected_bad_hash;  // cannot happen for a validated v1 record
    return;
  }

  common::Payload stored(std::move(data));
  const Bytes data_md5 = crypto::md5(stored);
  store_.put(object_key, std::move(stored), data_md5, network_->now());
  journal_evidence("dyn-nro", h.txn_id, h.sender, object_key, chunk_size, h,
                   *nro);
  const auto [it, inserted] = objects_.emplace(object_key, std::move(state));
  send_receipt(h.sender, h.txn_id, nr::MsgType::kDynStoreReceipt,
               it->second.chain.records().back());
}

void DynProviderActor::handle_mutate(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  std::uint8_t op_byte = 0;
  std::uint64_t index = 0;
  Bytes chunk;
  std::uint64_t tag = 0;
  VersionRecord record;
  Bytes client_sig;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    op_byte = r.u8();
    index = r.u64();
    chunk = r.bytes();
    tag = r.u64();
    record = VersionRecord::decode(r.bytes());
    client_sig = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }

  const auto it = objects_.find(object_key);
  if (it == objects_.end()) {
    send_mutate_error(h.sender, h.txn_id, object_key, record.version,
                      "unknown object");
    return;
  }
  DynObjectState& state = it->second;
  if (h.sender != state.client) {
    ++stats_.rejected_bad_evidence;  // only the storing identity may mutate
    return;
  }

  // Envelope consistency: the loose payload fields must restate the signed
  // record, the header must bind to its new_root, and the client signature
  // must verify — all before any state is touched.
  if (record.object_key != object_key ||
      static_cast<std::uint8_t>(record.op) != op_byte ||
      record.chunk_index != index || record.chunk_tag != tag ||
      !common::constant_time_equal(h.data_hash, record.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  SignedVersionRecord signed_record;
  signed_record.record = std::move(record);
  signed_record.client_sig = std::move(client_sig);
  if (!signed_record.verify_client(*sender_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  const VersionRecord& rec = signed_record.record;

  // Version-number idempotency (the retry contract): an already-committed
  // version re-issues its receipt verbatim; nothing is re-applied. The
  // SAME record is required — a different record under a committed version
  // is a conflict, not a retry.
  const std::uint64_t head = state.chain.head_version();
  if (rec.version >= 1 && rec.version <= head) {
    const SignedVersionRecord& committed =
        state.chain.records()[rec.version - 1];
    if (common::constant_time_equal(committed.record.encode(), rec.encode()) &&
        common::constant_time_equal(committed.client_sig,
                                    signed_record.client_sig)) {
      ++receipts_resent_;
      send_receipt(h.sender, h.txn_id, nr::MsgType::kMutateReceipt,
                   committed);
    } else {
      send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                        "version already committed to a different record");
    }
    return;
  }
  if (rec.version != head + 1) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      "version gap");
    return;
  }
  if (!common::constant_time_equal(rec.old_root, state.chain.head_root()) ||
      !common::constant_time_equal(rec.prev_record_hash,
                                   state.chain.head_hash())) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      "old root does not match the committed head");
    return;
  }

  // Structural validation against the committed mirror — same stride rules
  // the client enforces (only the last chunk may be short).
  const std::uint64_t count = state.tree.leaf_count();
  const bool inserting =
      rec.op == MutateOp::kInsert || rec.op == MutateOp::kAppend;
  const bool erasing = rec.op == MutateOp::kErase;
  if (rec.op == MutateOp::kStore || (inserting ? index > count : index >= count) ||
      (rec.op == MutateOp::kAppend && index != count)) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      "index out of range");
    return;
  }
  if (!erasing) {
    const bool at_tail = inserting ? index == count : index + 1 == count;
    if (chunk.empty() || chunk.size() > state.chunk_size ||
        (!at_tail && chunk.size() != state.chunk_size) ||
        (inserting && index == count && count > 0 &&
         state.chunks[count - 1].size() != state.chunk_size)) {
      send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                        "chunk breaks the stride layout");
      return;
    }
  } else if (chunk.size() != 0 || tag != 0) {
    ++stats_.rejected_bad_hash;
    return;
  }

  const auto nro =
      nr::open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  // Apply to the tree first (O(log n)) and check the claimed post-op root
  // before committing anything — a mismatch reverts the snapshot and
  // rejects.
  DynMerkleTree backup = state.tree.clone();
  const auto at = static_cast<std::ptrdiff_t>(index);
  switch (rec.op) {
    case MutateOp::kUpdate:
      state.tree.update(index, chunk);
      break;
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      state.tree.insert(index, chunk);
      break;
    case MutateOp::kErase:
      state.tree.erase(index);
      break;
    case MutateOp::kStore:
      return;  // unreachable (rejected above)
  }
  if (state.tree.leaf_count() != rec.chunk_count ||
      !common::constant_time_equal(state.tree.root(), rec.new_root)) {
    state.tree = std::move(backup);
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      "claimed new root does not match the applied op");
    return;
  }
  switch (rec.op) {
    case MutateOp::kUpdate:
      state.chunks[index] = std::move(chunk);
      state.tags[index] = tag;
      break;
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      state.chunks.insert(state.chunks.begin() + at, std::move(chunk));
      state.tags.insert(state.tags.begin() + at, tag);
      break;
    case MutateOp::kErase:
      state.chunks.erase(state.chunks.begin() + at);
      state.tags.erase(state.tags.begin() + at);
      break;
    case MutateOp::kStore:
      break;
  }

  // Commit: countersign, extend the chain, and write the mutated object
  // through to the store (which journals a MutationRecord). A store that
  // ACKs but drops the write — arm_stale_mutations() — diverges here, and
  // the next audit answered from the store exposes it.
  signed_record.provider_sig = [&] {
    Bytes material = rec.encode();
    const Bytes& sig = signed_record.client_sig;
    material.insert(material.end(), sig.begin(), sig.end());
    return identity_->sign(material);
  }();
  std::string why;
  if (!state.chain.append(signed_record, &why)) {
    throw common::ProtocolError(
        "DynProviderActor: validated record does not extend the chain: " +
        why);
  }
  storage::MutationInfo info;
  info.op = static_cast<std::uint8_t>(rec.op);
  info.chunk_index = rec.chunk_index;
  info.chunk_count = rec.chunk_count;
  info.old_root = rec.old_root;
  info.new_root = rec.new_root;
  common::Payload stored(concat_chunks(state.chunks));
  const Bytes data_md5 = crypto::md5(stored);
  store_.mutate(object_key, std::move(stored), data_md5, network_->now(),
                info);
  journal_evidence("dyn-nro", h.txn_id, h.sender, object_key,
                   state.chunk_size, h, *nro);
  send_receipt(h.sender, h.txn_id, nr::MsgType::kMutateReceipt,
               state.chain.records().back());
}

void DynProviderActor::handle_agg_challenge(const nr::NrMessage& message) {
  if (!behavior_.respond_to_audit) return;
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  AggChallenge challenge;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    challenge.seed = r.u64();
    challenge.count = r.u64();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }
  const auto it = objects_.find(object_key);
  if (it == objects_.end()) return;  // silence → auditor times out
  const DynObjectState& state = it->second;

  // Answer from the STORE, not the mirror: re-slice whatever the store
  // serves right now, and report the store's version. When the served bytes
  // equal the committed mirror (the honest steady state), the proof is
  // built over the MIRROR tree — incremental AVL shapes are history-
  // dependent, so only that tree reproduces the countersigned head root
  // after inserts/erases. A diverged store — dropped mutation, rollback,
  // tamper — cannot use the mirror's shape honestly; it falls back to a
  // self-consistent canonical rebuild whose (version, root) pair the
  // auditor classifies against the client's chain head.
  const auto record = store_.get(object_key);
  if (!record) return;
  const std::vector<Bytes> served =
      split_chunks(record->data, state.chunk_size);
  const bool matches_mirror = served == state.chunks;
  DynMerkleTree rebuilt;
  if (!matches_mirror) rebuilt = DynMerkleTree::build(chunk_views(served));
  const DynMerkleTree& tree = matches_mirror ? state.tree : rebuilt;
  std::vector<std::uint64_t> tags = state.tags;
  tags.resize(served.size(), 0);  // length-match; a diverged store fails anyway

  const AggResponse response =
      make_agg_response(challenge, tree, chunk_views(served), tags,
                        state.chunk_size, record->version);
  const Bytes response_bytes = response.encode();

  nr::MessageHeader header = next_header(
      nr::MsgType::kAggResponse, h.sender, h.ttp, h.txn_id,
      crypto::sha256(response_bytes), network_->now() + kReplyWindow);
  Bytes evidence;
  if (sender_key != nullptr) {
    evidence = nr::make_evidence(*identity_, *sender_key, header, *rng_);
  }

  common::BinaryWriter payload;
  payload.str(object_key);
  payload.bytes(response_bytes);

  nr::NrMessage reply;
  reply.header = std::move(header);
  reply.payload = payload.take();
  reply.evidence = std::move(evidence);
  send(h.sender, std::move(reply));
}

}  // namespace tpnr::dyn
