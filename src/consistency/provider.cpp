#include "consistency/provider.h"

#include <utility>

#include "common/serial.h"
#include "crypto/hash.h"
#include "nr/evidence.h"
#include "storage/backend.h"

namespace tpnr::consistency {

using dyn::MutateOp;
using dyn::VersionRecord;

namespace {

constexpr common::SimTime kReplyWindow = 30 * common::kSecond;

bool fail(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

common::Bytes concat_chunks(const std::vector<common::Bytes>& chunks) {
  common::Bytes out;
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  out.reserve(total);
  for (const auto& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

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
    const auto branch_it = state.branch_of.find(client);
    const std::size_t branch_index =
        branch_it == state.branch_of.end() ? 0 : branch_it->second;
    const Branch& branch = state.branches[branch_index];
    storage::ClientView view;
    view.version = branch.chain.head_version();
    view.data = concat_chunks(branch.chunks);
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

bool ConsProviderActor::apply_op(Branch& branch, std::size_t chunk_size,
                                 const VersionRecord& record, BytesView chunk,
                                 std::string* why) {
  const std::uint64_t count = branch.tree.leaf_count();
  const std::uint64_t index = record.chunk_index;
  const bool inserting =
      record.op == MutateOp::kInsert || record.op == MutateOp::kAppend;
  const bool erasing = record.op == MutateOp::kErase;
  if (record.op == MutateOp::kStore) {
    return fail(why, "store op on an existing object");
  }
  if (inserting ? index > count : index >= count) {
    return fail(why, "chunk index out of range");
  }
  if (erasing) {
    if (!chunk.empty()) return fail(why, "erase carries chunk bytes");
  } else if (chunk.empty()) {
    return fail(why, "mutation carries no chunk bytes");
  }
  const std::uint64_t expected_count =
      inserting ? count + 1 : (erasing ? count - 1 : count);
  if (record.chunk_count != expected_count) {
    return fail(why, "chunk_count does not match the op");
  }

  // Same stride rule the dynamic layer enforces: the store serves reads at
  // a fixed chunk_size stride, so only the LAST chunk may be short.
  if (!erasing) {
    if (chunk.size() > chunk_size) {
      return fail(why, "chunk exceeds the object's chunk size");
    }
    const bool at_tail = inserting ? index == count : index + 1 == count;
    if (!at_tail && chunk.size() != chunk_size) {
      return fail(why, "interior chunk must be full stride");
    }
    if (inserting && index == count && count > 0 &&
        branch.chunks[count - 1].size() != chunk_size) {
      return fail(why, "append after a short tail breaks the stride");
    }
  }

  dyn::DynMerkleTree backup = branch.tree.clone();
  std::vector<Bytes> chunks_backup = branch.chunks;
  const auto at = static_cast<std::ptrdiff_t>(index);
  switch (record.op) {
    case MutateOp::kUpdate:
      branch.tree.update(index, chunk);
      branch.chunks[index] = Bytes(chunk.begin(), chunk.end());
      break;
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      branch.tree.insert(index, chunk);
      branch.chunks.insert(branch.chunks.begin() + at,
                           Bytes(chunk.begin(), chunk.end()));
      break;
    case MutateOp::kErase:
      branch.tree.erase(index);
      branch.chunks.erase(branch.chunks.begin() + at);
      break;
    case MutateOp::kStore:
      return fail(why, "unreachable");
  }
  if (branch.tree.leaf_count() != record.chunk_count ||
      branch.tree.root() != record.new_root) {
    branch.tree = std::move(backup);
    branch.chunks = std::move(chunks_backup);
    return fail(why, "claimed new_root does not match the applied op");
  }
  return true;
}

void ConsProviderActor::handle_op_request(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  std::uint8_t op_byte = 0;
  std::uint64_t index = 0;
  Bytes chunk;
  std::uint32_t chunk_size = 0;
  VersionRecord record;
  Bytes client_sig;
  Bytes observed_head;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    op_byte = r.u8();
    index = r.u64();
    chunk = r.bytes();
    chunk_size = r.u32();
    record = VersionRecord::decode(r.bytes());
    client_sig = r.bytes();
    observed_head = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }

  // Envelope consistency before any state is touched: the loose fields
  // must restate the signed record and the header must bind its new_root.
  if (record.object_key != object_key ||
      static_cast<std::uint8_t>(record.op) != op_byte ||
      record.chunk_index != index ||
      !common::constant_time_equal(h.data_hash, record.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  dyn::SignedVersionRecord signed_record;
  signed_record.record = std::move(record);
  signed_record.client_sig = std::move(client_sig);
  if (!signed_record.verify_client(*sender_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  const VersionRecord& rec = signed_record.record;

  const auto it = objects_.find(object_key);

  if (rec.op == MutateOp::kStore) {
    if (it != objects_.end()) {
      SharedObjectState& state = it->second;
      // Idempotent store retry: same creator, same signed v1 record.
      const Branch& main = state.branches.front();
      if (h.sender == state.creator && rec.version == 1 && !main.log.empty() &&
          common::constant_time_equal(
              main.log.front().record.record.encode(), rec.encode()) &&
          common::constant_time_equal(main.log.front().record.client_sig,
                                      signed_record.client_sig)) {
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
    if (chunk_size == 0 || chunk.empty() || rec.version != 1 ||
        rec.old_root != dyn::DynMerkleTree::empty_root() ||
        rec.prev_record_hash != VersionRecord::genesis_link() ||
        observed_head != ViewCommitment::genesis_link()) {
      send_op_error(h.sender, h.txn_id, object_key, rec.version,
                    "malformed store record", {});
      return;
    }
    Branch branch;
    branch.chunks = dyn::split_chunks(chunk, chunk_size);
    branch.tree = dyn::DynMerkleTree::build(dyn::chunk_views(branch.chunks));
    if (branch.tree.leaf_count() != rec.chunk_count ||
        branch.tree.root() != rec.new_root) {
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
  bool registered = false;
  for (const std::string& p : state.participants) {
    registered = registered || p == h.sender;
  }
  if (!registered) state.participants.push_back(h.sender);
  const auto branch_it = state.branch_of.find(h.sender);
  const std::size_t branch_index =
      branch_it == state.branch_of.end() ? 0 : branch_it->second;
  Branch& branch = state.branches[branch_index];

  // Version-number idempotency: an already-committed version re-issues its
  // commit verbatim. A DIFFERENT record under a committed version is a
  // conflict the client resolves by catching up on the suffix.
  const std::uint64_t head = branch.chain.head_version();
  if (rec.version >= 1 && rec.version <= head) {
    const CommittedOp& committed = branch.log[rec.version - 1];
    if (common::constant_time_equal(committed.record.record.encode(),
                                    rec.encode()) &&
        common::constant_time_equal(committed.record.client_sig,
                                    signed_record.client_sig)) {
      ++receipts_resent_;
      if (behavior_.send_commits) {
        send_commit(h.sender, state.txn_id, object_key, state.chunk_size,
                    committed);
      }
    } else {
      send_op_error(h.sender, h.txn_id, object_key, rec.version,
                    "version already committed to a different record",
                    suffix_from(branch, observed_head));
    }
    return;
  }

  // The fork-join rule: the provider only commits an op whose declared
  // observed head IS the branch head. A stale client gets the missing
  // suffix and re-submits against the new head.
  if (observed_head != branch.views.head_hash() || rec.version != head + 1) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version, "stale view",
                  suffix_from(branch, observed_head));
    return;
  }
  if (!common::constant_time_equal(rec.old_root, branch.chain.head_root()) ||
      !common::constant_time_equal(rec.prev_record_hash,
                                   branch.chain.head_hash())) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version,
                  "record does not link to the committed head", {});
    return;
  }
  std::string why;
  if (!apply_op(branch, state.chunk_size, rec, chunk, &why)) {
    send_op_error(h.sender, h.txn_id, object_key, rec.version, why, {});
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

  Bytes countersigned = record.record.encode();
  countersigned.insert(countersigned.end(), record.client_sig.begin(),
                       record.client_sig.end());
  record.provider_sig = identity_->sign(countersigned);

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
    common::Payload stored(concat_chunks(branch.chunks));
    const Bytes data_md5 = crypto::md5(stored);
    const VersionRecord& rec = op.record.record;
    if (rec.op == MutateOp::kStore) {
      store_.put(object_key, std::move(stored), data_md5, network_->now());
    } else {
      storage::MutationInfo info;
      info.op = static_cast<std::uint8_t>(rec.op);
      info.chunk_index = rec.chunk_index;
      info.chunk_count = rec.chunk_count;
      info.old_root = rec.old_root;
      info.new_root = rec.new_root;
      store_.mutate(object_key, std::move(stored), data_md5, network_->now(),
                    info);
    }
  }
  if (state.branches.size() > 1) sync_store_views(object_key, state);

  // Fan the commit out to every client of THIS branch — the submitter's
  // copy doubles as its receipt.
  if (!behavior_.send_commits) return;
  for (const std::string& client : state.participants) {
    const auto client_branch = state.branch_of.find(client);
    const std::size_t assigned =
        client_branch == state.branch_of.end() ? 0 : client_branch->second;
    if (assigned != branch_index) continue;
    send_commit(client, state.txn_id, object_key, state.chunk_size, op);
    ++commits_sent_;
  }
}

void ConsProviderActor::send_commit(const std::string& client,
                                    const std::string& txn_id,
                                    const std::string& object_key,
                                    std::size_t chunk_size,
                                    const CommittedOp& op) {
  const crypto::RsaPublicKey* client_key = peer_key(client);
  if (client_key == nullptr) return;
  nr::MessageHeader header =
      next_header(nr::MsgType::kConsCommit, client, /*ttp=*/"", txn_id,
                  op.commit.view.hash(), network_->now() + kReplyWindow);
  Bytes evidence = nr::make_evidence(*identity_, *client_key, header, *rng_);

  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u32(static_cast<std::uint32_t>(chunk_size));
  payload.bytes(op.encode());

  nr::NrMessage reply;
  reply.header = std::move(header);
  reply.payload = payload.take();
  reply.evidence = std::move(evidence);
  send(client, std::move(reply));
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

  nr::NrMessage reply;
  reply.header = next_header(nr::MsgType::kConsOpError, client, /*ttp=*/"",
                             txn_id, Bytes{}, network_->now() + kReplyWindow);
  reply.payload = payload.take();
  send(client, std::move(reply));
}

void ConsProviderActor::handle_view_query(const nr::NrMessage& message) {
  if (!behavior_.respond_to_view_query) return;
  const nr::MessageHeader& h = message.header;
  std::string object_key;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }
  const auto it = objects_.find(object_key);
  if (it == objects_.end()) return;
  SharedObjectState& state = it->second;
  bool registered = false;
  for (const std::string& p : state.participants) {
    registered = registered || p == h.sender;
  }
  if (!registered) {
    state.participants.push_back(h.sender);
    if (state.branches.size() > 1) sync_store_views(object_key, state);
  }
  const auto branch_it = state.branch_of.find(h.sender);
  const Branch& branch =
      state.branches[branch_it == state.branch_of.end() ? 0
                                                        : branch_it->second];

  const crypto::RsaPublicKey* client_key = peer_key(h.sender);
  if (client_key == nullptr) return;
  nr::MessageHeader header = next_header(
      nr::MsgType::kViewUpdate, h.sender, /*ttp=*/"", h.txn_id,
      branch.views.head_hash(), network_->now() + kReplyWindow);
  Bytes evidence = nr::make_evidence(*identity_, *client_key, header, *rng_);

  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u32(static_cast<std::uint32_t>(state.chunk_size));
  write_op_log(payload, branch.log);

  nr::NrMessage reply;
  reply.header = std::move(header);
  reply.payload = payload.take();
  reply.evidence = std::move(evidence);
  send(h.sender, std::move(reply));
}

}  // namespace tpnr::consistency
