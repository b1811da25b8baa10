#include "dyn/provider.h"

#include <utility>

#include "common/serial.h"
#include "crypto/hash.h"
#include "nr/evidence.h"

namespace tpnr::dyn {

namespace {

/// kMutateError keeps its coarse reasons: one per class of layout fault.
const char* mutate_error_reason(ChunkOpFault fault) {
  switch (fault) {
    case ChunkOpFault::kStoreOp:
    case ChunkOpFault::kIndexOutOfRange:
      return "index out of range";
    case ChunkOpFault::kChunkCount:
    case ChunkOpFault::kNewRoot:
      return "claimed new root does not match the applied op";
    default:
      return "chunk breaks the stride layout";
  }
}

/// Writes the object `chunks` slice through to `store` as `rec` commits it:
/// a put for the version-1 store, a journaled mutation after that. The
/// version carries no Content-MD5 (an empty `stored_md5`): no client sends
/// one, and the version chain and Merkle root are the integrity record.
void write_through(storage::ObjectStore& store, const VersionRecord& rec,
                   std::span<const Bytes> chunks, common::SimTime now) {
  common::Payload stored(join_chunks(chunks));
  if (rec.op == MutateOp::kStore) {
    store.put(rec.object_key, std::move(stored), {}, now);
    return;
  }
  storage::MutationInfo info;
  info.op = static_cast<std::uint8_t>(rec.op);
  info.chunk_index = rec.chunk_index;
  info.chunk_count = rec.chunk_count;
  info.old_root = rec.old_root;
  info.new_root = rec.new_root;
  store.mutate(rec.object_key, std::move(stored), {}, now, info);
}

}  // namespace

bool check_envelope(const nr::MessageHeader& h, bool restated,
                    const SignedVersionRecord& signed_record,
                    const crypto::RsaPublicKey& client,
                    nr::ActorStats& stats) {
  if (!restated || !common::constant_time_equal(
                       h.data_hash, signed_record.record.new_root)) {
    ++stats.rejected_bad_hash;
    return false;
  }
  if (!signed_record.verify_client(client)) {
    ++stats.rejected_bad_evidence;
    return false;
  }
  return true;
}

DynProviderActor::DynProviderActor(std::string id, net::Network& network,
                                   pki::Identity& identity,
                                   crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng) {
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

void DynProviderActor::send_receipt(const nr::MessageHeader& h,
                                    nr::MsgType flag,
                                    const SignedVersionRecord& rec) {
  if (peer_key(h.sender) == nullptr) return;
  auto [header, evidence] =
      make_receipt(flag, h.sender, /*ttp=*/"", h.txn_id, rec.record.new_root,
                   network_->now() + nr::kReplyWindow);
  common::BinaryWriter payload;
  payload.str(rec.record.object_key);
  payload.bytes(rec.encode());
  send(std::move(header), payload.take(), std::move(evidence));
}

void DynProviderActor::send_mutate_error(const nr::MessageHeader& h,
                                         const std::string& object_key,
                                         std::uint64_t version,
                                         const std::string& reason) {
  ++mutations_rejected_;
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u64(version);
  payload.str(reason);
  send(next_header(nr::MsgType::kMutateError, h.sender, /*ttp=*/"", h.txn_id,
                   Bytes{}, network_->now() + nr::kReplyWindow),
       payload.take());
}

void DynProviderActor::handle_dyn_store(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint32_t chunk_size = r.u32();
  const Bytes data = r.bytes();
  std::vector<std::uint64_t> tags(r.count(8));
  for (std::uint64_t& tag : tags) tag = r.u64();
  SignedVersionRecord signed_record;
  signed_record.record = VersionRecord::decode(r.bytes());
  signed_record.client_sig = r.bytes();
  r.expect_done();

  // The record IS the agreement: the header must bind to its new_root and
  // the client signature must cover it. The payload carries the object and
  // its stride; the record is checked against them below.
  const VersionRecord& rec = signed_record.record;
  if (!check_envelope(h, chunk_size != 0 && !data.empty(), signed_record,
                      *sender_key, stats_)) {
    return;
  }

  // Idempotent re-store: same version-1 record for a known object → only
  // the receipt is re-issued (the chain already holds the countersigned
  // copy). A different record under a known key is a conflict.
  const auto existing = objects_.find(object_key);
  if (existing != objects_.end()) {
    const VersionChain& chain = existing->second.chain;
    if (rec.op == MutateOp::kStore &&
        chain.admit(signed_record) == Admission::kRetry) {
      ++receipts_resent_;
      send_receipt(h, nr::MsgType::kDynStoreReceipt, chain.records().front());
    } else {
      send_mutate_error(h, object_key, rec.version,
                        "object exists under a different record");
    }
    return;
  }

  // Recompute the committed facts from the bytes the client actually sent:
  // the record must open a chain and describe exactly this data.
  DynObjectState state;
  state.txn_id = h.txn_id;
  state.client = h.sender;
  state.chunk_size = chunk_size;
  if (rec.op != MutateOp::kStore || rec.object_key != object_key ||
      state.chain.admit(signed_record) != Admission::kNext ||
      state.apply(rec, data) != ChunkOpFault::kNone ||
      tags.size() != state.chunks.size()) {
    ++stats_.rejected_bad_hash;
    return;
  }
  state.tags = std::move(tags);

  const auto nro =
      nr::open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  commit(objects_.emplace(object_key, std::move(state)).first->second, h,
         std::move(signed_record), *nro);
}

void DynProviderActor::handle_mutate(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint8_t op_byte = r.u8();
  const std::uint64_t index = r.u64();
  const Bytes chunk = r.bytes();
  const std::uint64_t tag = r.u64();
  SignedVersionRecord signed_record;
  signed_record.record = VersionRecord::decode(r.bytes());
  signed_record.client_sig = r.bytes();
  r.expect_done();

  const VersionRecord& rec = signed_record.record;
  const auto it = objects_.find(object_key);
  if (it == objects_.end()) {
    send_mutate_error(h, object_key, rec.version, "unknown object");
    return;
  }
  DynObjectState& state = it->second;
  if (h.sender != state.client) {
    ++stats_.rejected_bad_evidence;  // only the storing identity may mutate
    return;
  }

  // The envelope: the loose payload fields restate the signed record (an
  // erase carries neither bytes nor a tag).
  if (!check_envelope(
          h,
          rec.object_key == object_key &&
              static_cast<std::uint8_t>(rec.op) == op_byte &&
              rec.chunk_index == index && rec.chunk_tag == tag &&
              (rec.op != MutateOp::kErase || (tag == 0 && chunk.empty())),
          signed_record, *sender_key, stats_)) {
    return;
  }

  // The commit rule. A retry (the same record under the same signature at
  // a committed version) re-issues that version's receipt verbatim and
  // re-applies nothing; a different record there is a conflict.
  switch (state.chain.admit(signed_record)) {
    case Admission::kNext:
      break;
    case Admission::kRetry:
      ++receipts_resent_;
      send_receipt(h, nr::MsgType::kMutateReceipt,
                   state.chain.records()[rec.version - 1]);
      return;
    case Admission::kConflict:
      send_mutate_error(h, object_key, rec.version,
                        "version already committed to a different record");
      return;
    case Admission::kGap:
      send_mutate_error(h, object_key, rec.version, "version gap");
      return;
    case Admission::kUnlinked:
      send_mutate_error(h, object_key, rec.version,
                        "old root does not match the committed head");
      return;
  }

  const auto nro =
      nr::open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  // The stride rule against the committed mirror (the same check the client
  // made before sending), then the claimed post-op count and root: a fault
  // leaves the mirror as it was and rejects.
  if (const ChunkOpFault fault = state.apply(rec, chunk);
      fault != ChunkOpFault::kNone) {
    send_mutate_error(h, object_key, rec.version, mutate_error_reason(fault));
    return;
  }

  commit(state, h, std::move(signed_record), *nro);
}

void DynProviderActor::commit(DynObjectState& state,
                              const nr::MessageHeader& h,
                              SignedVersionRecord signed_record,
                              const nr::OpenedEvidence& nro) {
  // Countersign, extend the chain, and write the object through to the
  // store (which journals a MutationRecord after version 1). A store that
  // ACKs but drops the write — arm_stale_mutations() — diverges here, and
  // the next audit answered from the store exposes it.
  signed_record.countersign(*identity_);
  state.chain.append(std::move(signed_record));
  const SignedVersionRecord& committed = state.chain.records().back();
  const VersionRecord& rec = committed.record;
  write_through(store_, rec, state.chunks, network_->now());
  journal_evidence("dyn-nro", h.txn_id, h.sender, rec.object_key,
                   state.chunk_size, h, nro);
  send_receipt(h,
               rec.op == MutateOp::kStore ? nr::MsgType::kDynStoreReceipt
                                          : nr::MsgType::kMutateReceipt,
               committed);
}

void DynProviderActor::handle_agg_challenge(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  AggChallenge challenge;
  challenge.seed = r.u64();
  challenge.count = r.u64();
  r.expect_done();
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

  auto [header, evidence] =
      make_receipt(nr::MsgType::kAggResponse, h.sender, h.ttp, h.txn_id,
                   crypto::sha256(response_bytes),
                   network_->now() + nr::kReplyWindow);
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.bytes(response_bytes);
  send(std::move(header), payload.take(), std::move(evidence));
}

}  // namespace tpnr::dyn
