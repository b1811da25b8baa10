#include "consistency/provider.h"

#include <utility>

#include "common/serial.h"
#include "crypto/hash.h"
#include "dyn/provider.h"
#include "storage/backend.h"

namespace tpnr::consistency {

using dyn::MutateOp;
using dyn::VersionRecord;

namespace {

ConsProviderActor::Branch clone_branch(const ConsProviderActor::Branch& b) {
  ConsProviderActor::Branch c;
  c.chain = b.chain;
  c.views = b.views;
  c.log = b.log;
  c.chunks = b.chunks;
  c.tree = b.tree.clone();
  return c;
}

}  // namespace

ConsProviderActor::ConsProviderActor(std::string id, net::Network& network,
                                     pki::Identity& identity,
                                     crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng),
      store_(std::make_unique<storage::MemoryBackend>()) {
  store_.bind_clock([&network] { return network.now(); });
}

const ConsProviderActor::SharedObjectState* ConsProviderActor::object_state(
    const std::string& object_key) const {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

bool ConsProviderActor::forked(const std::string& object_key) const {
  const SharedObjectState* state = object_state(object_key);
  return state != nullptr && state->branches.size() > 1;
}

bool ConsProviderActor::fork_object(
    const std::string& object_key,
    const std::map<std::string, std::size_t>& assignment,
    std::size_t branch_count) {
  const auto it = objects_.find(object_key);
  if (it == objects_.end() || branch_count < 2) return false;
  SharedObjectState& state = it->second;
  if (state.branches.size() != 1) return false;  // already forked
  for (const auto& [client, branch] : assignment) {
    if (branch >= branch_count) return false;
  }
  state.branches.reserve(branch_count);
  for (std::size_t i = 1; i < branch_count; ++i) {
    state.branches.push_back(clone_branch(state.branches.front()));
  }
  for (const auto& [client, branch] : assignment) {
    state.branch_of[client] = branch;
  }
  // Mirror the fork into the storage layer from the first moment: every
  // client now has a per-client view, logged as a kEquivocation fault.
  sync_store_views(object_key, state);
  return true;
}

void ConsProviderActor::sync_store_views(const std::string& object_key,
                                         const SharedObjectState& state) {
  std::map<std::string, storage::ClientView> views;
  for (const std::string& client : state.participants) {
    const Branch& branch = state.branches[state.branch_index(client)];
    storage::ClientView view;
    view.version = branch.chain.head_version();
    view.data = dyn::join_chunks(branch.chunks);
    views.emplace(client, std::move(view));
  }
  store_.arm_equivocation(object_key, std::move(views));
}

void ConsProviderActor::on_message(const nr::NrMessage& message) {
  switch (message.header.flag) {
    case nr::MsgType::kConsOpRequest:
      handle_op_request(message);
      break;
    case nr::MsgType::kViewQuery:
      handle_view_query(message);
      break;
    default:
      break;
  }
}

void ConsProviderActor::handle_op_request(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::uint8_t op_byte = r.u8();
  const std::uint64_t index = r.u64();
  Bytes chunk = r.bytes();
  const std::uint32_t chunk_size = r.u32();
  dyn::SignedVersionRecord signed_record;
  signed_record.record = VersionRecord::decode(r.bytes());
  signed_record.client_sig = r.bytes();
  const Bytes observed_head = r.bytes();
  r.expect_done();

  // Envelope consistency before any state is touched: the loose fields
  // must restate the signed record and the header must bind its new_root.
  const VersionRecord& rec = signed_record.record;
  if (rec.object_key != object_key ||
      static_cast<std::uint8_t>(rec.op) != op_byte ||
      rec.chunk_index != index ||
      !common::constant_time_equal(h.data_hash, rec.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (!signed_record.verify_client(*sender_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  const auto it = objects_.find(object_key);

  if (rec.op == MutateOp::kStore) {
    if (it != objects_.end()) {
      SharedObjectState& state = it->second;
      // Idempotent store retry: same creator, same signed v1 record.
      const Branch& main = state.branches.front();
      if (h.sender == state.creator &&
          main.chain.admit(signed_record) == dyn::Admission::kRetry) {
        ++receipts_resent_;
        if (behavior_.send_commits) {
          send_commit(h.sender, state.txn_id, object_key, state.chunk_size,
                      main.log.front());
        }
        return;
      }
      send_op_error(h.sender, h.txn_id, object_key, rec.version,
                    "object already exists", {});
      return;
    }
    Branch branch;
    if (chunk_size == 0 || chunk.empty() ||
        branch.chain.admit(signed_record) != dyn::Admission::kNext ||
        observed_head != ViewCommitment::genesis_link()) {
      send_op_error(h.sender, h.txn_id, object_key, rec.version,
                    "malformed store record", {});
      return;
    }
    if (dyn::apply_record({.tree = branch.tree, .chunks = branch.chunks},
                          chunk_size, rec, chunk) != dyn::ChunkOpFault::kNone) {
      send_op_error(h.sender, h.txn_id, object_key, rec.version,
                    "store record root does not match the data", {});
      return;
    }
    SharedObjectState state;
    state.txn_id = h.txn_id;
    state.creator = h.sender;
    state.chunk_size = chunk_size;
    state.participants.push_back(h.sender);
    state.branches.push_back(std::move(branch));
    const auto inserted = objects_.emplace(object_key, std::move(state)).first;
    commit_op(object_key, inserted->second, 0, h.sender,
              std::move(signed_record), std::move(chunk));
    return;
  }

  // Mutation path.
  if (it == objects_.end()) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version,
                  "unknown object", {});
    return;
  }
  SharedObjectState& state = it->second;
  state.join(h.sender);
  const std::size_t branch_index = state.branch_index(h.sender);
  Branch& branch = state.branches[branch_index];

  // The commit rule. A retry re-issues the committed version's commit
  // verbatim; a DIFFERENT record under a committed version is a conflict
  // the client resolves by catching up on the suffix.
  const dyn::Admission admission = branch.chain.admit(signed_record);
  if (admission == dyn::Admission::kRetry) {
    ++receipts_resent_;
    if (behavior_.send_commits) {
      send_commit(h.sender, state.txn_id, object_key, state.chunk_size,
                  branch.log[rec.version - 1]);
    }
    return;
  }
  if (admission == dyn::Admission::kConflict) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version,
                  "version already committed to a different record",
                  suffix_from(branch, observed_head));
    return;
  }

  // The fork-join rule: the provider only commits an op whose declared
  // observed head IS the branch head. A stale client gets the missing
  // suffix and re-submits against the new head.
  if (admission == dyn::Admission::kGap ||
      observed_head != branch.views.head_hash()) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version, "stale view",
                  suffix_from(branch, observed_head));
    return;
  }
  if (admission == dyn::Admission::kUnlinked) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version,
                  "record does not link to the committed head", {});
    return;
  }
  if (const dyn::ChunkOpFault fault =
          dyn::apply_record({.tree = branch.tree, .chunks = branch.chunks},
                            state.chunk_size, rec, chunk);
      fault != dyn::ChunkOpFault::kNone) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version,
                  dyn::chunk_op_fault_reason(fault), {});
    return;
  }
  commit_op(object_key, state, branch_index, h.sender,
            std::move(signed_record), std::move(chunk));
}

std::span<const CommittedOp> ConsProviderActor::suffix_from(
    const Branch& branch, const Bytes& observed_head) const {
  std::span<const CommittedOp> log(branch.log);
  if (observed_head == ViewCommitment::genesis_link()) return log;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].commit.view.hash() == observed_head) {
      return log.subspan(i + 1);
    }
  }
  // Unrecognized head (possibly another branch's): send everything — the
  // client's fork checker decides what the overlap means.
  return log;
}

void ConsProviderActor::commit_op(const std::string& object_key,
                                  SharedObjectState& state,
                                  std::size_t branch_index,
                                  const std::string& submitter,
                                  dyn::SignedVersionRecord record,
                                  Bytes op_bytes) {
  Branch& branch = state.branches[branch_index];

  record.countersign(*identity_);

  ViewCommitment view;
  view.object_key = object_key;
  view.global_seq = branch.views.head_seq() + 1;
  view.client = submitter;
  view.op_record_hash = crypto::sha256(record.encode());
  view.head_version = record.record.version;
  view.head_root = record.record.new_root;
  view.observed_head = branch.views.head_hash();
  view.prev_commit_hash = branch.views.head_hash();
  SignedViewCommitment commit;
  commit.provider_sig = identity_->sign(view.encode());
  commit.view = std::move(view);

  branch.chain.append(record);
  branch.views.append(commit);
  CommittedOp op;
  op.record = std::move(record);
  op.commit = std::move(commit);
  op.op_bytes = std::move(op_bytes);
  branch.log.push_back(op);

  // Storage effects: the main branch is what the store "really" holds;
  // fork branches exist as armed per-client views on top of it.
  if (branch_index == 0) {
    dyn::write_through(store_, op.record.record, branch.chunks,
                       network_->now());
  }
  if (state.branches.size() > 1) sync_store_views(object_key, state);

  // Fan the commit out to every client of THIS branch — the submitter's
  // copy doubles as its receipt.
  if (!behavior_.send_commits) return;
  for (const std::string& client : state.participants) {
    if (state.branch_index(client) != branch_index) continue;
    send_commit(client, state.txn_id, object_key, state.chunk_size, op);
    ++commits_sent_;
  }
}

void ConsProviderActor::send_commit(const std::string& client,
                                    const std::string& txn_id,
                                    const std::string& object_key,
                                    std::size_t chunk_size,
                                    const CommittedOp& op) {
  if (peer_key(client) == nullptr) return;
  auto [header, evidence] =
      make_receipt(nr::MsgType::kConsCommit, client, /*ttp=*/"", txn_id,
                   op.commit.view.hash(), network_->now() + nr::kReplyWindow);
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u32(static_cast<std::uint32_t>(chunk_size));
  payload.bytes(op.encode());
  send(std::move(header), payload.take(), std::move(evidence));
}

void ConsProviderActor::send_op_error(const std::string& client,
                                      const std::string& txn_id,
                                      const std::string& object_key,
                                      std::uint64_t version,
                                      const std::string& reason,
                                      std::span<const CommittedOp> suffix) {
  ++ops_rejected_;
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u64(version);
  payload.str(reason);
  write_op_log(payload, suffix);
  send(next_header(nr::MsgType::kConsOpError, client, /*ttp=*/"", txn_id,
                   Bytes{}, network_->now() + nr::kReplyWindow),
       payload.take());
}

void ConsProviderActor::handle_view_query(const nr::NrMessage& message) {
  if (!behavior_.respond_to_view_query) return;
  const nr::MessageHeader& h = message.header;
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  r.expect_done();
  const auto it = objects_.find(object_key);
  if (it == objects_.end()) return;
  SharedObjectState& state = it->second;
  if (state.join(h.sender) && state.branches.size() > 1) {
    sync_store_views(object_key, state);
  }
  const Branch& branch = state.branches[state.branch_index(h.sender)];

  if (peer_key(h.sender) == nullptr) return;
  auto [header, evidence] = make_receipt(
      nr::MsgType::kViewUpdate, h.sender, /*ttp=*/"", h.txn_id,
      branch.views.head_hash(), network_->now() + nr::kReplyWindow);
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u32(static_cast<std::uint32_t>(state.chunk_size));
  write_op_log(payload, branch.log);
  send(std::move(header), payload.take(), std::move(evidence));
}

}  // namespace tpnr::consistency
