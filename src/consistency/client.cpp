#include "consistency/client.h"

#include <utility>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/hash.h"

namespace tpnr::consistency {

using dyn::MutateOp;
using dyn::VersionRecord;

ConsClientActor::ConsClientActor(std::string id, net::Network& network,
                                 pki::Identity& identity, crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng),
      txn_ids_(rng.next_u64()) {}

const ConsClientActor::SharedObject* ConsClientActor::object(
    const std::string& object_key) const {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

const EquivocationProof* ConsClientActor::fork_proof(
    const std::string& object_key) const {
  const SharedObject* obj = object(object_key);
  if (obj == nullptr || !obj->checker || !obj->checker->proof()) {
    return nullptr;
  }
  return &*obj->checker->proof();
}

ConsClientActor::SharedObject* ConsClientActor::mutable_object(
    const std::string& object_key) {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

std::string ConsClientActor::store_shared(const std::string& provider,
                                          const std::string& ttp,
                                          const std::string& object_key,
                                          BytesView data,
                                          std::size_t chunk_size) {
  const crypto::RsaPublicKey* provider_key = peer_key(provider);
  if (provider_key == nullptr) {
    throw common::ProtocolError(
        "ConsClientActor::store_shared: provider key unknown");
  }
  if (chunk_size == 0) {
    throw common::ProtocolError(
        "ConsClientActor::store_shared: chunk_size must be > 0");
  }
  if (data.empty()) {
    throw common::ProtocolError("ConsClientActor::store_shared: empty object");
  }
  if (objects_.count(object_key) != 0) {
    throw common::ProtocolError(
        "ConsClientActor::store_shared: object already tracked");
  }

  SharedObject obj;
  obj.provider = provider;
  obj.ttp = ttp;
  obj.object_key = object_key;
  obj.txn_id = txn_ids_.next_id("cons");
  obj.chunk_size = chunk_size;
  obj.checker.emplace(object_key, *provider_key);

  // The record commits to the post-store mirror, but the mirror itself
  // stays empty until the provider's commit comes back — the consistency
  // client is never optimistic.
  const std::vector<Bytes> chunks = dyn::split_chunks(data, chunk_size);
  const dyn::DynMerkleTree tree =
      dyn::DynMerkleTree::build(dyn::chunk_views(chunks));
  PendingOp pending;
  pending.op = MutateOp::kStore;
  pending.chunk = Bytes(data.begin(), data.end());
  pending.record = obj.chain.next_record(object_key, MutateOp::kStore, 0,
                                         tree.leaf_count(), tree.root(), 0);
  pending.client_sig = identity_->sign(pending.record.encode());
  pending_.open(object_key, std::move(pending));

  const std::string txn_id = obj.txn_id;
  objects_.emplace(object_key, std::move(obj));
  transmit_pending(object_key, 1);
  return txn_id;
}

bool ConsClientActor::open_shared(const std::string& provider,
                                  const std::string& ttp,
                                  const std::string& object_key) {
  const crypto::RsaPublicKey* provider_key = peer_key(provider);
  if (provider_key == nullptr || objects_.count(object_key) != 0) {
    return false;
  }
  SharedObject obj;
  obj.provider = provider;
  obj.ttp = ttp;
  obj.object_key = object_key;
  obj.txn_id = txn_ids_.next_id("cons");
  obj.checker.emplace(object_key, *provider_key);
  auto it = objects_.emplace(object_key, std::move(obj)).first;
  request_view(it->second);
  return true;
}

void ConsClientActor::request_view(SharedObject& obj) {
  if (peer_key(obj.provider) == nullptr) return;
  auto [header, evidence] =
      make_receipt(nr::MsgType::kViewQuery, obj.provider, obj.ttp, obj.txn_id,
                   Bytes{}, network_->now() + nr::kRequestWindow);
  common::BinaryWriter payload;
  payload.str(obj.object_key);
  send(std::move(header), payload.take(), std::move(evidence));
}

bool ConsClientActor::update(const std::string& object_key,
                             std::uint64_t index, BytesView chunk) {
  SharedObject* obj = mutable_object(object_key);
  return obj != nullptr && begin_op(*obj, MutateOp::kUpdate, index, chunk);
}

bool ConsClientActor::insert(const std::string& object_key,
                             std::uint64_t index, BytesView chunk) {
  SharedObject* obj = mutable_object(object_key);
  return obj != nullptr && begin_op(*obj, MutateOp::kInsert, index, chunk);
}

bool ConsClientActor::append_chunk(const std::string& object_key,
                                   BytesView chunk) {
  SharedObject* obj = mutable_object(object_key);
  return obj != nullptr &&
         begin_op(*obj, MutateOp::kAppend, obj->tree.leaf_count(), chunk);
}

bool ConsClientActor::erase(const std::string& object_key,
                            std::uint64_t index) {
  SharedObject* obj = mutable_object(object_key);
  return obj != nullptr && begin_op(*obj, MutateOp::kErase, index, BytesView{});
}

bool ConsClientActor::begin_op(SharedObject& obj, MutateOp op,
                               std::uint64_t index, BytesView chunk) {
  if (!obj.opened || pending_.find(obj.object_key) != nullptr) return false;
  PendingOp pending;
  pending.op = op;
  pending.index = index;
  pending.chunk = Bytes(chunk.begin(), chunk.end());
  if (!build_pending_record(obj, pending)) return false;
  pending_.open(obj.object_key, std::move(pending));
  transmit_pending(obj.object_key, 1);
  return true;
}

bool ConsClientActor::build_pending_record(SharedObject& obj,
                                           PendingOp& pending) {
  if (pending.op == MutateOp::kAppend) pending.index = obj.chunks.size();
  if (dyn::check_chunk_op(pending.op, pending.index, pending.chunk,
                          obj.chunks, obj.chunk_size) !=
      dyn::ChunkOpFault::kNone) {
    return false;  // store never rebuilds; the op may no longer apply
  }

  // Read the post-op root off the mirror and put the mirror straight back:
  // it only really moves when the provider's commit comes back.
  const dyn::ChunkMirror mirror{.tree = obj.tree, .chunks = obj.chunks};
  dyn::ChunkOpUndo undo = dyn::apply_chunk_op(mirror, pending.op,
                                              pending.index, pending.chunk);
  pending.record = obj.chain.next_record(obj.object_key, pending.op,
                                         pending.index, obj.tree.leaf_count(),
                                         obj.tree.root(), 0);
  dyn::undo_chunk_op(mirror, std::move(undo));
  pending.client_sig = identity_->sign(pending.record.encode());
  return true;
}

void ConsClientActor::transmit_pending(const std::string& object_key,
                                       std::size_t attempt) {
  SharedObject* obj = mutable_object(object_key);
  const PendingOp* pending_op = pending_.find(object_key);
  if (obj == nullptr || pending_op == nullptr) return;
  if (peer_key(obj->provider) == nullptr) return;
  const PendingOp& pending = *pending_op;

  // The declared observed head: the commitment under which the base
  // version was committed. The provider refuses to commit an op whose
  // observed head is not ITS head — the fork-join rule.
  Bytes observed = ViewCommitment::genesis_link();
  if (const SignedViewCommitment* at =
          obj->checker->view().at(obj->chain.head_version())) {
    observed = at->view.hash();
  }

  auto [header, evidence] = make_receipt(
      nr::MsgType::kConsOpRequest, obj->provider, obj->ttp, obj->txn_id,
      pending.record.new_root, network_->now() + nr::kRequestWindow);

  common::BinaryWriter payload;
  payload.str(obj->object_key);
  payload.u8(static_cast<std::uint8_t>(pending.record.op));
  payload.u64(pending.record.chunk_index);
  payload.bytes(pending.chunk);
  payload.u32(static_cast<std::uint32_t>(obj->chunk_size));
  payload.bytes(pending.record.encode());
  payload.bytes(pending.client_sig);
  payload.bytes(observed);
  send(std::move(header), payload.take(), std::move(evidence));
  await_reply(
      pending_, kOpWait, attempt, object_key,
      [this](const std::string& key, std::size_t next) {
        transmit_pending(key, next);
      },
      [this](const std::string& key) {
        ++mutable_object(key)->timeouts;
        drop_pending(key);
      });
}

void ConsClientActor::drop_pending(const std::string& object_key) {
  if (pending_.find(object_key)->op == MutateOp::kStore) {
    objects_.erase(object_key);  // version 1 never committed
  }
  pending_.retire(object_key);
}

void ConsClientActor::on_message(const nr::NrMessage& message) {
  switch (message.header.flag) {
    case nr::MsgType::kConsCommit:
      handle_commit(message);
      break;
    case nr::MsgType::kViewUpdate:
      handle_view_update(message);
      break;
    case nr::MsgType::kConsOpError:
      handle_op_error(message);
      break;
    case nr::MsgType::kGossipViews:
      handle_gossip(message);
      break;
    default:
      break;
  }
}

bool ConsClientActor::advance_mirror(SharedObject& obj,
                                     const CommittedOp& op) {
  const VersionRecord& rec = op.record.record;
  const ViewCommitment& view = op.commit.view;
  const crypto::RsaPublicKey* provider_key = peer_key(obj.provider);
  const crypto::RsaPublicKey* client_key = peer_key(view.client);
  // In order: the record must be the one its commitment names, carry the
  // provider's countersignature (the commitment's own signature was checked
  // by the fork checker) and, when the submitter's key is known, its
  // signature too (unknown co-clients are covered by the provider's promise
  // alone). Then the commit rule: next on our chain, for our object, and
  // an op the mirror can take. A record that misdescribes its op (a
  // byzantine provider) leaves the mirror untouched.
  if (crypto::sha256(op.record.encode()) != view.op_record_hash ||
      rec.version != view.head_version || rec.new_root != view.head_root ||
      provider_key == nullptr || !op.record.verify_provider(*provider_key) ||
      (client_key != nullptr && !op.record.verify_client(*client_key)) ||
      obj.chain.admit(op.record) != dyn::Admission::kNext ||
      rec.object_key != obj.object_key ||
      dyn::apply_record({.tree = obj.tree, .chunks = obj.chunks},
                        obj.chunk_size, rec,
                        op.op_bytes) != dyn::ChunkOpFault::kNone) {
    ++obj.rejected;
    return false;
  }
  obj.chain.append(op.record);
  ++obj.commits_applied;
  obj.opened = true;
  return true;
}

bool ConsClientActor::absorb_committed_op(SharedObject& obj,
                                          const CommittedOp& op) {
  const ObserveOutcome outcome = obj.checker->observe(op.commit);
  switch (outcome) {
    case ObserveOutcome::kRejected:
      ++stats_.rejected_bad_evidence;
      return false;
    case ObserveOutcome::kConflict:
      maybe_report_fork(obj);
      return true;
    case ObserveOutcome::kGap:
    case ObserveOutcome::kUnlinked:
      request_view(obj);
      return true;
    case ObserveOutcome::kExtended:
    case ObserveOutcome::kDuplicate:
      break;
  }
  const std::uint64_t next = obj.chain.head_version() + 1;
  if (op.record.record.version == next) {
    if (!advance_mirror(obj, op)) return false;
  } else if (op.record.record.version < next) {
    ++obj.duplicate_commits;
  }
  // Our own submission coming back committed IS the receipt.
  const PendingOp* pending = pending_.find(obj.object_key);
  if (pending != nullptr && op.commit.view.client == id() &&
      op.record.record.version == pending->record.version &&
      op.record.record.encode() == pending->record.encode()) {
    ++obj.receipts;
    pending_.retire(obj.object_key);
  }
  return true;
}

void ConsClientActor::handle_commit(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint32_t chunk_size = r.u32();
  const CommittedOp op = CommittedOp::decode(r.bytes());
  r.expect_done();
  SharedObject* obj = mutable_object(object_key);
  if (obj == nullptr || h.sender != obj->provider) return;
  if (op.commit.view.object_key != object_key) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (obj->chunk_size == 0) obj->chunk_size = chunk_size;
  absorb_committed_op(*obj, op);
}

void ConsClientActor::handle_view_update(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint32_t chunk_size = r.u32();
  const std::vector<CommittedOp> log = read_op_log(r);
  r.expect_done();
  SharedObject* obj = mutable_object(object_key);
  if (obj == nullptr || h.sender != obj->provider) return;
  if (obj->chunk_size == 0) {
    obj->chunk_size = chunk_size;
  } else if (obj->chunk_size != chunk_size) {
    ++stats_.rejected_bad_hash;
    return;
  }
  for (const CommittedOp& op : log) absorb_committed_op(*obj, op);
}

void ConsClientActor::handle_op_error(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint64_t version = r.u64();
  r.str();  // human-readable reason; narration only
  const std::vector<CommittedOp> suffix = read_op_log(r);
  r.expect_done();
  SharedObject* obj = mutable_object(object_key);
  if (obj == nullptr || h.sender != obj->provider) return;

  // First catch up on whatever the provider says we missed; the suffix is
  // made of full CommittedOps, so the mirror advances (and the checker
  // fork-checks) exactly as if the commits had arrived live.
  for (const CommittedOp& op : suffix) absorb_committed_op(*obj, op);

  PendingOp* pending = pending_.find(object_key);
  if (pending == nullptr || pending->record.version != version) return;
  // A bounced store is permanent (the key exists, or the record was
  // malformed): there is no head to rebuild against.
  if (pending->op == MutateOp::kStore ||
      ++pending->resubmits > kMaxResubmits ||
      !build_pending_record(*obj, *pending)) {
    ++obj->rejected;
    drop_pending(object_key);
    return;
  }
  ++obj->stale_resubmits;
  transmit_pending(object_key, 1);
}

void ConsClientActor::handle_gossip(const nr::NrMessage& message) {
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint32_t count = r.count(4);
  std::vector<SignedViewCommitment> commits;
  commits.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    commits.push_back(SignedViewCommitment::decode(r.bytes()));
  }
  r.expect_done();
  SharedObject* obj = mutable_object(object_key);
  if (obj == nullptr) return;  // not our object: nothing to compare against
  const ObserveOutcome outcome = obj->checker->merge(commits);
  switch (outcome) {
    case ObserveOutcome::kConflict:
      maybe_report_fork(*obj);
      break;
    case ObserveOutcome::kGap:
    case ObserveOutcome::kUnlinked:
      // A peer knows commitments we cannot link — packet loss or worse.
      // Re-sync with the provider; never accuse on a gap.
      request_view(*obj);
      break;
    default:
      break;
  }
}

void ConsClientActor::maybe_report_fork(SharedObject& obj) {
  if (!obj.checker->forked() || obj.fork_reported) return;
  obj.fork_reported = true;
  ++forks_detected_;
  if (!gossip_ || gossip_->arbiter.empty()) return;
  if (peer_key(gossip_->arbiter) == nullptr) return;
  const EquivocationProof& proof = *obj.checker->proof();
  const Bytes proof_bytes = proof.encode();

  auto [header, evidence] = make_receipt(
      nr::MsgType::kForkReport, gossip_->arbiter, obj.ttp, obj.txn_id,
      crypto::sha256(proof_bytes), network_->now() + nr::kRequestWindow);
  common::BinaryWriter payload;
  payload.str(obj.provider);
  payload.str(obj.object_key);
  payload.str(obj.txn_id);
  payload.bytes(proof_bytes);
  send(std::move(header), payload.take(), std::move(evidence));
}

void ConsClientActor::enable_gossip(GossipOptions options) {
  gossip_ = std::move(options);
  if (gossip_->rounds == 0 || gossip_timer_armed_) return;
  gossip_timer_armed_ = true;
  network_->schedule(gossip_->period, [this] { gossip_tick(); });
}

void ConsClientActor::add_gossip_peer(const std::string& peer_id) {
  for (const std::string& peer : gossip_peers_) {
    if (peer == peer_id) return;
  }
  gossip_peers_.push_back(peer_id);
}

void ConsClientActor::gossip_now() {
  ++gossip_rounds_;
  for (auto& [object_key, obj] : objects_) {
    if (!obj.checker || obj.checker->view().empty()) continue;
    const auto& commits = obj.checker->view().commitments();
    for (const std::string& peer : gossip_peers_) {
      if (peer_key(peer) == nullptr) continue;
      // Full witnessed view, not a bounded tail: detection must not hinge
      // on the victim being within a window of the speaker (histories in
      // these experiments are short; see docs/PROTOCOL.md).
      auto [header, evidence] = make_receipt(
          nr::MsgType::kGossipViews, peer, /*ttp=*/"",
          "gossip|" + id() + "|" + object_key, obj.checker->view().head_hash(),
          network_->now() + nr::kRequestWindow);
      common::BinaryWriter payload;
      payload.str(object_key);
      payload.u32(static_cast<std::uint32_t>(commits.size()));
      for (const SignedViewCommitment& commit : commits) {
        payload.bytes(commit.encode());
      }

      nr::NrMessage message;
      message.header = std::move(header);
      message.payload = payload.take();
      message.evidence = std::move(evidence);
      send_on_topic(peer, "cons.gossip", std::move(message));
    }
  }
}

void ConsClientActor::gossip_tick() {
  if (!gossip_ || gossip_->rounds == 0) {
    gossip_timer_armed_ = false;
    return;
  }
  --gossip_->rounds;
  gossip_now();
  if (gossip_->rounds == 0) {
    gossip_timer_armed_ = false;
    return;
  }
  network_->schedule(gossip_->period, [this] { gossip_tick(); });
}

}  // namespace tpnr::consistency
