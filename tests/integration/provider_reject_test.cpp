// Provider-side rejection of malformed chunk ops. A well-behaved client
// refuses these before they leave it, so each request here is crafted by
// hand: a correctly sealed kMutateRequest / kConsOpRequest from the object's
// own client, carrying a validly client-signed record whose only fault is
// the chunk op itself. Each case pins the provider's reply type and counters
// and checks that its chain, mirror and store did not move.
//
// The admission tables below do the same for the version and link rule:
// retries, conflicts at a committed version, gaps, unlinked records,
// malformed stores and unknown objects, each a request with one fault, each
// pinned to its reply, reason string, counters and unchanged state.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "consistency/client.h"
#include "consistency/op_log.h"
#include "consistency/provider.h"
#include "crypto/drbg.h"
#include "crypto/hash.h"
#include "dyn/client.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/evidence.h"

namespace tpnr {
namespace {

using common::Bytes;
using common::BytesView;
using dyn::MutateOp;

constexpr std::size_t kChunkSize = 64;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{51515});
    for (const char* id : {"alice", "bob", "carol"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

/// One malformed chunk op, described against the object it targets.
enum class Fault {
  kIndexOutOfRange,     ///< update at chunk_count
  kAppendNotAtEnd,      ///< append at index 0
  kShortInteriorChunk,  ///< update of chunk 0 with a short chunk
  kOversizeChunk,       ///< update of the last chunk with stride + 1 bytes
  kAppendAfterShortTail,
  kEraseCarriesBytes,
  kWrongChunkCount,
  kWrongNewRoot,
};

std::string fault_name(const ::testing::TestParamInfo<Fault>& info) {
  switch (info.param) {
    case Fault::kIndexOutOfRange: return "IndexOutOfRange";
    case Fault::kAppendNotAtEnd: return "AppendNotAtEnd";
    case Fault::kShortInteriorChunk: return "ShortInteriorChunk";
    case Fault::kOversizeChunk: return "OversizeChunk";
    case Fault::kAppendAfterShortTail: return "AppendAfterShortTail";
    case Fault::kEraseCarriesBytes: return "EraseCarriesBytes";
    case Fault::kWrongChunkCount: return "WrongChunkCount";
    case Fault::kWrongNewRoot: return "WrongNewRoot";
  }
  return "?";
}

const std::vector<Fault> kAllFaults = {
    Fault::kIndexOutOfRange,      Fault::kAppendNotAtEnd,
    Fault::kShortInteriorChunk,   Fault::kOversizeChunk,
    Fault::kAppendAfterShortTail, Fault::kEraseCarriesBytes,
    Fault::kWrongChunkCount,      Fault::kWrongNewRoot};

/// The op a fault sends, and the record that claims it.
struct CraftedOp {
  MutateOp op = MutateOp::kUpdate;
  std::uint64_t index = 0;
  Bytes chunk;
  dyn::VersionRecord record;
};

/// Builds the faulty op against the committed head (`chain`, `tree`). The
/// record is otherwise honest: next version, linked to the head, and — when
/// the op can be applied to the tree at all — the post-op count and root.
CraftedOp craft(Fault fault, const std::string& key,
                const dyn::VersionChain& chain,
                const dyn::DynMerkleTree& tree) {
  const std::uint64_t count = tree.leaf_count();
  CraftedOp c;
  c.chunk = Bytes(kChunkSize, 0x5a);
  switch (fault) {
    case Fault::kIndexOutOfRange:
      c.index = count;
      break;
    case Fault::kAppendNotAtEnd:
      c.op = MutateOp::kAppend;
      break;
    case Fault::kShortInteriorChunk:
      c.chunk.resize(kChunkSize - 1);
      break;
    case Fault::kOversizeChunk:
      c.index = count - 1;
      c.chunk.resize(kChunkSize + 1);
      break;
    case Fault::kAppendAfterShortTail:
      c.op = MutateOp::kAppend;
      c.index = count;
      break;
    case Fault::kEraseCarriesBytes:
      c.op = MutateOp::kErase;
      break;
    case Fault::kWrongChunkCount:
    case Fault::kWrongNewRoot:
      break;
  }
  dyn::DynMerkleTree after = tree.clone();
  switch (c.op) {
    case MutateOp::kUpdate:
      if (c.index < count) after.update(c.index, c.chunk);
      break;
    case MutateOp::kAppend:
      after.insert(c.index, c.chunk);
      break;
    case MutateOp::kErase:
      after.erase(c.index);
      break;
    default:
      break;
  }
  dyn::VersionRecord& rec = c.record;
  rec.object_key = key;
  rec.version = chain.head_version() + 1;
  rec.op = c.op;
  rec.chunk_index = c.index;
  rec.chunk_count = after.leaf_count();
  rec.old_root = chain.head_root();
  rec.new_root = after.root();
  rec.prev_record_hash = chain.head_hash();
  if (fault == Fault::kWrongChunkCount) ++rec.chunk_count;
  if (fault == Fault::kWrongNewRoot) rec.new_root = crypto::sha256(Bytes{1});
  return c;
}

/// The object a fault targets: four full chunks, or four and a half.
bool needs_short_tail(Fault fault) {
  return fault == Fault::kAppendAfterShortTail;
}

/// Drives one provider with hand-sealed requests (from alice unless told
/// otherwise) and records what comes back to alice: each reply's message
/// type and, for a kMutateError / kConsOpError, its reason string and the
/// length of the catch-up suffix it carries ("" and 0 for other replies).
class RawSender {
 public:
  RawSender(net::Network& network, crypto::Drbg& rng)
      : network_(network), rng_(rng) {}

  /// Takes over alice's endpoint: from here on replies land in replies().
  void capture() {
    network_.attach("alice", [this](const net::Envelope& envelope) {
      const nr::NrMessage message = nr::NrMessage::decode(envelope.payload);
      const nr::MsgType flag = message.header.flag;
      replies_.push_back(flag);
      std::string reason;
      std::size_t suffix = 0;
      if (flag == nr::MsgType::kMutateError ||
          flag == nr::MsgType::kConsOpError) {
        common::BinaryReader r(message.payload);
        r.str();
        r.u64();
        reason = r.str();
        if (flag == nr::MsgType::kConsOpError) {
          suffix = consistency::read_op_log(r).size();
        }
      }
      reasons_.push_back(std::move(reason));
      suffixes_.push_back(suffix);
    });
  }

  void send(nr::MsgType flag, const std::string& txn_id, BytesView data_hash,
            Bytes payload, const std::string& from = "alice") {
    nr::MessageHeader h;
    h.flag = flag;
    h.sender = from;
    h.recipient = "bob";
    h.txn_id = txn_id;
    h.seq_no = ++seq_;
    h.nonce = rng_.bytes(16);
    h.data_hash = Bytes(data_hash.begin(), data_hash.end());
    nr::NrMessage message;
    message.evidence = nr::make_evidence(
        pooled(from), pooled(seal_for_).public_key(), h, rng_);
    message.header = std::move(h);
    message.payload = std::move(payload);
    network_.send(from, "bob", "nr", message.encode());
    network_.run();
  }

  /// From here on, evidence is sealed for `recipient`'s key: bob cannot
  /// open it unless `recipient` is bob.
  void seal_for(std::string recipient) { seal_for_ = std::move(recipient); }

  [[nodiscard]] const std::vector<nr::MsgType>& replies() const {
    return replies_;
  }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }
  [[nodiscard]] const std::vector<std::size_t>& suffixes() const {
    return suffixes_;
  }

 private:
  net::Network& network_;
  crypto::Drbg& rng_;
  std::uint64_t seq_ = 1000;  // past anything the real client used
  std::string seal_for_ = "bob";
  std::vector<nr::MsgType> replies_;
  std::vector<std::string> reasons_;
  std::vector<std::size_t> suffixes_;
};

void expect_same_stats(const nr::ActorStats& before,
                       const nr::ActorStats& after,
                       std::uint64_t bad_hash_delta) {
  EXPECT_EQ(after.rejected_bad_hash, before.rejected_bad_hash + bad_hash_delta);
  EXPECT_EQ(after.rejected_bad_evidence, before.rejected_bad_evidence);
  EXPECT_EQ(after.rejected_unknown_sender, before.rejected_unknown_sender);
  EXPECT_EQ(after.rejected_replay, before.rejected_replay);
  EXPECT_EQ(after.rejected_bad_sequence, before.rejected_bad_sequence);
  EXPECT_EQ(after.accepted, before.accepted + 1);
}

// ---- dyn: kMutateRequest ------------------------------------------------

/// alice, her client actor, and bob's provider on one network.
class DynProviderFixture : public ::testing::Test {
 protected:
  DynProviderFixture()
      : network_(std::uint64_t{5151}),
        rng_(std::uint64_t{5152}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")),
        alice_("alice", network_, alice_id_, rng_,
               crypto::Drbg(std::uint64_t{5153}).bytes(32)),
        bob_("bob", network_, bob_id_, rng_),
        raw_(network_, rng_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  dyn::DynClientActor alice_;
  dyn::DynProviderActor bob_;
  RawSender raw_;
};

class DynProviderRejectTest : public DynProviderFixture,
                              public ::testing::WithParamInterface<Fault> {};

TEST_P(DynProviderRejectTest, RejectsWithoutMovingState) {
  const Fault fault = GetParam();
  const std::string key = "doc";
  crypto::Drbg data_rng(std::uint64_t{77});
  const std::size_t bytes =
      4 * kChunkSize + (needs_short_tail(fault) ? kChunkSize / 2 : 0);
  alice_.store_dyn("bob", "ttp", key, data_rng.bytes(bytes), kChunkSize);
  network_.run();
  const auto* state = bob_.object_state(key);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->chain.head_version(), 1u);
  raw_.capture();

  const CraftedOp c = craft(fault, key, state->chain, state->tree);
  const Bytes head_hash = state->chain.head_hash();
  const Bytes tree_root = state->tree.root();
  const std::vector<Bytes> chunks = state->chunks;
  const std::vector<std::uint64_t> tags = state->tags;
  const nr::ActorStats stats = bob_.stats();
  const std::uint64_t rejected = bob_.mutations_rejected();

  common::BinaryWriter payload;
  payload.str(key);
  payload.u8(static_cast<std::uint8_t>(c.op));
  payload.u64(c.index);
  payload.bytes(c.chunk);
  payload.u64(c.record.chunk_tag);
  payload.bytes(c.record.encode());
  payload.bytes(alice_id_.sign(c.record.encode()));
  raw_.send(nr::MsgType::kMutateRequest, state->txn_id, c.record.new_root,
            payload.take());

  if (fault == Fault::kEraseCarriesBytes) {
    // A malformed envelope: dropped silently, counted as a bad hash.
    EXPECT_TRUE(raw_.replies().empty());
    EXPECT_EQ(bob_.mutations_rejected(), rejected);
    expect_same_stats(stats, bob_.stats(), 1);
  } else {
    EXPECT_EQ(raw_.replies(),
              std::vector<nr::MsgType>{nr::MsgType::kMutateError});
    EXPECT_EQ(bob_.mutations_rejected(), rejected + 1);
    expect_same_stats(stats, bob_.stats(), 0);
  }
  EXPECT_EQ(bob_.receipts_resent(), 0u);
  EXPECT_EQ(state->chain.head_version(), 1u);
  EXPECT_EQ(state->chain.head_hash(), head_hash);
  EXPECT_EQ(state->tree.root(), tree_root);
  EXPECT_EQ(state->tree.leaf_count(), chunks.size());
  EXPECT_EQ(state->chunks, chunks);
  EXPECT_EQ(state->tags, tags);
  EXPECT_EQ(bob_.store().version_of(key), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllFaults, DynProviderRejectTest,
                         ::testing::ValuesIn(kAllFaults), fault_name);

// ---- consistency: kConsOpRequest ----------------------------------------

/// alice, her client actor, and bob's provider on one network.
class ConsProviderFixture : public ::testing::Test {
 protected:
  ConsProviderFixture()
      : network_(std::uint64_t{6161}),
        rng_(std::uint64_t{6162}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")),
        alice_("alice", network_, alice_id_, rng_),
        bob_("bob", network_, bob_id_, rng_),
        raw_(network_, rng_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  consistency::ConsClientActor alice_;
  consistency::ConsProviderActor bob_;
  RawSender raw_;
};

class ConsProviderRejectTest : public ConsProviderFixture,
                               public ::testing::WithParamInterface<Fault> {};

TEST_P(ConsProviderRejectTest, RejectsWithoutMovingState) {
  const Fault fault = GetParam();
  const std::string key = "shared";
  crypto::Drbg data_rng(std::uint64_t{78});
  const std::size_t bytes =
      4 * kChunkSize + (needs_short_tail(fault) ? kChunkSize / 2 : 0);
  alice_.store_shared("bob", "ttp", key, data_rng.bytes(bytes), kChunkSize);
  network_.run();
  const auto* state = bob_.object_state(key);
  ASSERT_NE(state, nullptr);
  const auto& branch = state->branches.front();
  ASSERT_EQ(branch.chain.head_version(), 1u);
  raw_.capture();

  const CraftedOp c = craft(fault, key, branch.chain, branch.tree);
  const Bytes head_hash = branch.chain.head_hash();
  const Bytes view_head = branch.views.head_hash();
  const Bytes tree_root = branch.tree.root();
  const std::vector<Bytes> chunks = branch.chunks;
  const std::size_t log_size = branch.log.size();
  const nr::ActorStats stats = bob_.stats();
  const std::uint64_t rejected = bob_.ops_rejected();
  const std::uint64_t commits = bob_.commits_sent();

  common::BinaryWriter payload;
  payload.str(key);
  payload.u8(static_cast<std::uint8_t>(c.op));
  payload.u64(c.index);
  payload.bytes(c.chunk);
  payload.u32(static_cast<std::uint32_t>(kChunkSize));
  payload.bytes(c.record.encode());
  payload.bytes(alice_id_.sign(c.record.encode()));
  payload.bytes(view_head);
  raw_.send(nr::MsgType::kConsOpRequest, state->txn_id, c.record.new_root,
            payload.take());

  EXPECT_EQ(raw_.replies(),
            std::vector<nr::MsgType>{nr::MsgType::kConsOpError});
  EXPECT_EQ(bob_.ops_rejected(), rejected + 1);
  EXPECT_EQ(bob_.commits_sent(), commits);
  EXPECT_EQ(bob_.receipts_resent(), 0u);
  expect_same_stats(stats, bob_.stats(), 0);
  EXPECT_EQ(branch.chain.head_version(), 1u);
  EXPECT_EQ(branch.chain.head_hash(), head_hash);
  EXPECT_EQ(branch.views.head_hash(), view_head);
  EXPECT_EQ(branch.log.size(), log_size);
  EXPECT_EQ(branch.tree.root(), tree_root);
  EXPECT_EQ(branch.chunks, chunks);
  EXPECT_EQ(bob_.store().version_of(key), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllFaults, ConsProviderRejectTest,
                         ::testing::ValuesIn(kAllFaults), fault_name);

// ---- admission: the version and link rule ------------------------------

/// What one admission case must draw from the provider.
struct Expected {
  std::vector<nr::MsgType> replies;  ///< empty: dropped without a reply
  std::string reason;                ///< of the error reply, if any
  std::size_t suffix = 0;            ///< catch-up ops the error carries
  std::uint64_t bad_hash = 0;        ///< rejected_bad_hash delta
  std::uint64_t bad_evidence = 0;    ///< rejected_bad_evidence delta
  std::uint64_t rejected = 0;        ///< mutations_rejected / ops_rejected
  std::uint64_t resent = 0;          ///< receipts_resent delta
};

Expected error(nr::MsgType flag, std::string reason, std::size_t suffix = 0) {
  Expected want;
  want.replies = {flag};
  want.reason = std::move(reason);
  want.suffix = suffix;
  want.rejected = 1;
  return want;
}

Expected resent(nr::MsgType flag) {
  Expected want;
  want.replies = {flag};
  want.resent = 1;
  return want;
}

/// Dropped without a reply, counted in the screen's stats.
Expected dropped(std::uint64_t bad_hash, std::uint64_t bad_evidence) {
  Expected want;
  want.bad_hash = bad_hash;
  want.bad_evidence = bad_evidence;
  return want;
}

void expect_outcome(const Expected& want, const RawSender& raw,
                    const nr::ActorStats& before, const nr::ActorStats& after,
                    std::uint64_t rejected, std::uint64_t resent) {
  EXPECT_EQ(raw.replies(), want.replies);
  if (!want.replies.empty()) {
    ASSERT_EQ(raw.reasons().size(), 1u);
    EXPECT_EQ(raw.reasons()[0], want.reason);
    EXPECT_EQ(raw.suffixes()[0], want.suffix);
  }
  EXPECT_EQ(after.rejected_bad_hash, before.rejected_bad_hash + want.bad_hash);
  EXPECT_EQ(after.rejected_bad_evidence,
            before.rejected_bad_evidence + want.bad_evidence);
  EXPECT_EQ(after.accepted, before.accepted + 1);
  EXPECT_EQ(rejected, want.rejected);
  EXPECT_EQ(resent, want.resent);
}

/// The honest version-1 record storing `data` under `key`.
dyn::VersionRecord store_record(const std::string& key, BytesView data) {
  const dyn::DynMerkleTree tree = dyn::DynMerkleTree::build(
      dyn::chunk_views(dyn::split_chunks(data, kChunkSize)));
  return dyn::VersionChain{}.next_record(key, MutateOp::kStore, 0,
                                         tree.leaf_count(), tree.root(), 0);
}

/// The honest record updating chunk `index` to `chunk` on top of
/// (`chain`, `tree`).
dyn::VersionRecord update_record(const std::string& key,
                                 const dyn::VersionChain& chain,
                                 const dyn::DynMerkleTree& tree,
                                 std::uint64_t index, BytesView chunk) {
  dyn::DynMerkleTree after = tree.clone();
  after.update(index, chunk);
  return chain.next_record(key, MutateOp::kUpdate, index, after.leaf_count(),
                           after.root(), 0);
}

/// The first `versions` records of `chain`, as a chain of their own.
dyn::VersionChain prefix(const dyn::VersionChain& chain,
                         std::uint64_t versions) {
  dyn::VersionChain out;
  for (std::uint64_t v = 0; v < versions; ++v) {
    EXPECT_TRUE(out.append(chain.records()[v]));
  }
  return out;
}

const Bytes& bogus_hash() {
  static const Bytes hash = crypto::sha256(Bytes{1});
  return hash;
}

/// Each admission case is one request whose only fault (or none) is named.
enum class DynAdmit {
  kStoreRetry,         ///< the committed v1 store, re-sent verbatim
  kStoreOtherRecord,   ///< a different v1 record for the existing key
  kStoreZeroChunkSize, ///< new key, chunk size 0
  kStoreHeaderHash,    ///< new key, header data_hash not the new_root
  kStoreClientSig,     ///< new key, client signature over another record
  kStoreRootMismatch,  ///< new key, new_root not the data's root
  kStoreUnsealed,      ///< new key, NRO sealed for someone else
  kMutateRetry,        ///< the committed v2 mutation, re-sent verbatim
  kCommittedConflict,  ///< a different record at committed version 2
  kVersionZero,
  kVersionGap,         ///< head + 2
  kOldRoot,            ///< head + 1, old_root not the head's root
  kPrevLink,           ///< head + 1, prev_record_hash not the head's hash
  kUnknownObject,
  kForeignSender,      ///< a mutation from carol, who did not store it
  kMutateHeaderHash,   ///< head + 1, header data_hash not the new_root
  kMutateClientSig,    ///< head + 1, client signature over another record
  kMutateUnsealed,     ///< head + 1, NRO sealed for someone else
};

std::string dyn_admit_name(const ::testing::TestParamInfo<DynAdmit>& info) {
  switch (info.param) {
    case DynAdmit::kStoreRetry: return "StoreRetry";
    case DynAdmit::kStoreOtherRecord: return "StoreOtherRecord";
    case DynAdmit::kStoreZeroChunkSize: return "StoreZeroChunkSize";
    case DynAdmit::kStoreHeaderHash: return "StoreHeaderHash";
    case DynAdmit::kStoreClientSig: return "StoreClientSig";
    case DynAdmit::kStoreRootMismatch: return "StoreRootMismatch";
    case DynAdmit::kStoreUnsealed: return "StoreUnsealed";
    case DynAdmit::kMutateRetry: return "MutateRetry";
    case DynAdmit::kCommittedConflict: return "CommittedConflict";
    case DynAdmit::kVersionZero: return "VersionZero";
    case DynAdmit::kVersionGap: return "VersionGap";
    case DynAdmit::kOldRoot: return "OldRoot";
    case DynAdmit::kPrevLink: return "PrevLink";
    case DynAdmit::kUnknownObject: return "UnknownObject";
    case DynAdmit::kForeignSender: return "ForeignSender";
    case DynAdmit::kMutateHeaderHash: return "MutateHeaderHash";
    case DynAdmit::kMutateClientSig: return "MutateClientSig";
    case DynAdmit::kMutateUnsealed: return "MutateUnsealed";
  }
  return "?";
}

Expected dyn_expected(DynAdmit c) {
  using nr::MsgType;
  switch (c) {
    case DynAdmit::kStoreRetry:
      return resent(MsgType::kDynStoreReceipt);
    case DynAdmit::kStoreOtherRecord:
      return error(MsgType::kMutateError,
                   "object exists under a different record");
    case DynAdmit::kMutateRetry:
      return resent(MsgType::kMutateReceipt);
    case DynAdmit::kCommittedConflict:
      return error(MsgType::kMutateError,
                   "version already committed to a different record");
    case DynAdmit::kVersionZero:
    case DynAdmit::kVersionGap:
      return error(MsgType::kMutateError, "version gap");
    case DynAdmit::kOldRoot:
    case DynAdmit::kPrevLink:
      return error(MsgType::kMutateError,
                   "old root does not match the committed head");
    case DynAdmit::kUnknownObject:
      return error(MsgType::kMutateError, "unknown object");
    case DynAdmit::kStoreZeroChunkSize:
    case DynAdmit::kStoreHeaderHash:
    case DynAdmit::kStoreRootMismatch:
    case DynAdmit::kMutateHeaderHash:
      return dropped(1, 0);
    case DynAdmit::kStoreClientSig:
    case DynAdmit::kStoreUnsealed:
    case DynAdmit::kForeignSender:
    case DynAdmit::kMutateClientSig:
    case DynAdmit::kMutateUnsealed:
      return dropped(0, 1);
  }
  return {};
}

class DynAdmissionTest : public DynProviderFixture,
                         public ::testing::WithParamInterface<DynAdmit> {};

TEST_P(DynAdmissionTest, RepliesAndKeepsState) {
  const DynAdmit c = GetParam();
  const std::string key = "doc";
  const Bytes data = crypto::Drbg(std::uint64_t{79}).bytes(4 * kChunkSize);
  const Bytes update_chunk(kChunkSize, 0x11);
  alice_.store_dyn("bob", "ttp", key, data, kChunkSize);
  network_.run();
  ASSERT_TRUE(alice_.update(key, 1, update_chunk));
  network_.run();
  bob_.trust_peer("carol", pooled("carol").public_key());
  const auto* state = bob_.object_state(key);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->chain.head_version(), 2u);
  raw_.capture();

  const dyn::VersionChain& chain = state->chain;
  const Bytes head_hash = chain.head_hash();
  const Bytes tree_root = state->tree.root();
  const std::vector<Bytes> chunks = state->chunks;
  const std::vector<std::uint64_t> tags = state->tags;
  const nr::ActorStats stats = bob_.stats();
  const std::uint64_t rejected = bob_.mutations_rejected();
  const std::uint64_t resends = bob_.receipts_resent();

  // Store requests carry the whole object; the retry re-sends v1 verbatim.
  // The header binds the record's new_root unless `header_hash` is set.
  Bytes header_hash;
  std::uint32_t chunk_size = kChunkSize;
  const auto bound = [&](const dyn::VersionRecord& rec) -> const Bytes& {
    return header_hash.empty() ? rec.new_root : header_hash;
  };
  const auto send_store = [&](const dyn::VersionRecord& rec,
                              const Bytes& client_sig, BytesView bytes) {
    common::BinaryWriter payload;
    payload.str(rec.object_key);
    payload.u32(chunk_size);
    payload.bytes(bytes);
    payload.u32(static_cast<std::uint32_t>(tags.size()));
    for (const std::uint64_t tag : tags) payload.u64(tag);
    payload.bytes(rec.encode());
    payload.bytes(client_sig);
    raw_.send(nr::MsgType::kDynStoreRequest, state->txn_id, bound(rec),
              payload.take());
  };
  const auto send_mutate = [&](const dyn::VersionRecord& rec,
                               const Bytes& client_sig, BytesView chunk,
                               const std::string& from = "alice") {
    common::BinaryWriter payload;
    payload.str(rec.object_key);
    payload.u8(static_cast<std::uint8_t>(rec.op));
    payload.u64(rec.chunk_index);
    payload.bytes(chunk);
    payload.u64(rec.chunk_tag);
    payload.bytes(rec.encode());
    payload.bytes(client_sig);
    raw_.send(nr::MsgType::kMutateRequest, state->txn_id, bound(rec),
              payload.take(), from);
  };
  const auto sign = [](const dyn::VersionRecord& rec,
                       const std::string& who = "alice") {
    return pooled(who).sign(rec.encode());
  };

  const Bytes next_chunk(kChunkSize, 0x22);
  dyn::VersionRecord next =
      update_record(key, chain, state->tree, 2, next_chunk);
  dyn::VersionRecord fresh = store_record("fresh", data);
  switch (c) {
    case DynAdmit::kStoreRetry:
      send_store(chain.records()[0].record, chain.records()[0].client_sig,
                 data);
      break;
    case DynAdmit::kStoreOtherRecord: {
      const Bytes other = crypto::Drbg(std::uint64_t{80}).bytes(data.size());
      const dyn::VersionRecord rec = store_record(key, other);
      send_store(rec, sign(rec), other);
      break;
    }
    case DynAdmit::kMutateRetry:
      send_mutate(chain.records()[1].record, chain.records()[1].client_sig,
                  update_chunk);
      break;
    case DynAdmit::kCommittedConflict: {
      const dyn::DynMerkleTree v1_tree = dyn::DynMerkleTree::build(
          dyn::chunk_views(dyn::split_chunks(data, kChunkSize)));
      const dyn::VersionRecord rec =
          update_record(key, prefix(chain, 1), v1_tree, 1, next_chunk);
      send_mutate(rec, sign(rec), next_chunk);
      break;
    }
    case DynAdmit::kVersionZero:
      next.version = 0;
      send_mutate(next, sign(next), next_chunk);
      break;
    case DynAdmit::kVersionGap:
      next.version += 1;
      send_mutate(next, sign(next), next_chunk);
      break;
    case DynAdmit::kOldRoot:
      next.old_root = bogus_hash();
      send_mutate(next, sign(next), next_chunk);
      break;
    case DynAdmit::kPrevLink:
      next.prev_record_hash = bogus_hash();
      send_mutate(next, sign(next), next_chunk);
      break;
    case DynAdmit::kUnknownObject:
      next.object_key = "nope";
      send_mutate(next, sign(next), next_chunk);
      break;
    case DynAdmit::kForeignSender:
      send_mutate(next, sign(next, "carol"), next_chunk, "carol");
      break;
    case DynAdmit::kStoreZeroChunkSize:
      chunk_size = 0;
      send_store(fresh, sign(fresh), data);
      break;
    case DynAdmit::kStoreHeaderHash:
      header_hash = bogus_hash();
      send_store(fresh, sign(fresh), data);
      break;
    case DynAdmit::kStoreClientSig:
      send_store(fresh, sign(next), data);
      break;
    case DynAdmit::kStoreRootMismatch:
      fresh.new_root = bogus_hash();
      send_store(fresh, sign(fresh), data);
      break;
    case DynAdmit::kStoreUnsealed:
      raw_.seal_for("carol");
      send_store(fresh, sign(fresh), data);
      break;
    case DynAdmit::kMutateHeaderHash:
      header_hash = bogus_hash();
      send_mutate(next, sign(next), next_chunk);
      break;
    case DynAdmit::kMutateClientSig:
      send_mutate(next, sign(fresh), next_chunk);
      break;
    case DynAdmit::kMutateUnsealed:
      raw_.seal_for("carol");
      send_mutate(next, sign(next), next_chunk);
      break;
  }

  expect_outcome(dyn_expected(c), raw_, stats, bob_.stats(),
                 bob_.mutations_rejected() - rejected,
                 bob_.receipts_resent() - resends);
  EXPECT_EQ(chain.head_version(), 2u);
  EXPECT_EQ(chain.head_hash(), head_hash);
  EXPECT_EQ(state->tree.root(), tree_root);
  EXPECT_EQ(state->chunks, chunks);
  EXPECT_EQ(state->tags, tags);
  EXPECT_EQ(bob_.store().version_of(key), 2u);
  EXPECT_EQ(bob_.object_state("fresh"), nullptr);
  EXPECT_EQ(bob_.object_state("nope"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AdmissionTable, DynAdmissionTest,
    ::testing::Values(DynAdmit::kStoreRetry, DynAdmit::kStoreOtherRecord,
                      DynAdmit::kStoreZeroChunkSize,
                      DynAdmit::kStoreHeaderHash, DynAdmit::kStoreClientSig,
                      DynAdmit::kStoreRootMismatch, DynAdmit::kStoreUnsealed,
                      DynAdmit::kMutateRetry, DynAdmit::kCommittedConflict,
                      DynAdmit::kVersionZero, DynAdmit::kVersionGap,
                      DynAdmit::kOldRoot, DynAdmit::kPrevLink,
                      DynAdmit::kUnknownObject, DynAdmit::kForeignSender,
                      DynAdmit::kMutateHeaderHash,
                      DynAdmit::kMutateClientSig, DynAdmit::kMutateUnsealed),
    dyn_admit_name);

enum class ConsAdmit {
  kStoreRetry,           ///< the creator re-sends the committed v1 store
  kStoreOtherRecord,     ///< a different v1 record for the existing key
  kStoreZeroChunkSize,   ///< new key, chunk size 0
  kStoreVersionTwo,      ///< new key, a store record at version 2
  kStorePrevLink,        ///< new key, prev_record_hash not the genesis link
  kStoreObservedHead,    ///< new key, observed head not the genesis link
  kStoreRootMismatch,    ///< new key, new_root not the data's root
  kStoreCountMismatch,   ///< new key, chunk_count not the data's count
  kUnknownObject,
  kMutateRetry,          ///< the committed v2 mutation, re-sent verbatim
  kCommittedConflict,    ///< a different v2 record from a v1 observer
  kVersionGap,           ///< head + 2, from a v1 observer
  kStaleObservedHead,    ///< head + 1, observed head at v1
  kOldRoot,              ///< head + 1, old_root not the head's root
  kPrevLink,             ///< head + 1, prev_record_hash not the head's hash
  kHeaderHash,           ///< head + 1, header data_hash not the new_root
  kClientSig,            ///< head + 1, client signature over another record
};

std::string cons_admit_name(const ::testing::TestParamInfo<ConsAdmit>& info) {
  switch (info.param) {
    case ConsAdmit::kStoreRetry: return "StoreRetry";
    case ConsAdmit::kStoreOtherRecord: return "StoreOtherRecord";
    case ConsAdmit::kStoreZeroChunkSize: return "StoreZeroChunkSize";
    case ConsAdmit::kStoreVersionTwo: return "StoreVersionTwo";
    case ConsAdmit::kStorePrevLink: return "StorePrevLink";
    case ConsAdmit::kStoreObservedHead: return "StoreObservedHead";
    case ConsAdmit::kStoreRootMismatch: return "StoreRootMismatch";
    case ConsAdmit::kStoreCountMismatch: return "StoreCountMismatch";
    case ConsAdmit::kUnknownObject: return "UnknownObject";
    case ConsAdmit::kMutateRetry: return "MutateRetry";
    case ConsAdmit::kCommittedConflict: return "CommittedConflict";
    case ConsAdmit::kVersionGap: return "VersionGap";
    case ConsAdmit::kStaleObservedHead: return "StaleObservedHead";
    case ConsAdmit::kOldRoot: return "OldRoot";
    case ConsAdmit::kPrevLink: return "PrevLink";
    case ConsAdmit::kHeaderHash: return "HeaderHash";
    case ConsAdmit::kClientSig: return "ClientSig";
  }
  return "?";
}

Expected cons_expected(ConsAdmit c) {
  using nr::MsgType;
  switch (c) {
    case ConsAdmit::kStoreRetry:
    case ConsAdmit::kMutateRetry:
      return resent(MsgType::kConsCommit);
    case ConsAdmit::kStoreOtherRecord:
      return error(MsgType::kConsOpError, "object already exists");
    case ConsAdmit::kStoreZeroChunkSize:
    case ConsAdmit::kStoreVersionTwo:
    case ConsAdmit::kStorePrevLink:
    case ConsAdmit::kStoreObservedHead:
      return error(MsgType::kConsOpError, "malformed store record");
    case ConsAdmit::kStoreRootMismatch:
    case ConsAdmit::kStoreCountMismatch:
      return error(MsgType::kConsOpError,
                   "store record root does not match the data");
    case ConsAdmit::kUnknownObject:
      return error(MsgType::kConsOpError, "unknown object");
    case ConsAdmit::kCommittedConflict:
      return error(MsgType::kConsOpError,
                   "version already committed to a different record", 1);
    case ConsAdmit::kVersionGap:
    case ConsAdmit::kStaleObservedHead:
      return error(MsgType::kConsOpError, "stale view", 1);
    case ConsAdmit::kOldRoot:
    case ConsAdmit::kPrevLink:
      return error(MsgType::kConsOpError,
                   "record does not link to the committed head");
    case ConsAdmit::kHeaderHash:
      return dropped(1, 0);
    case ConsAdmit::kClientSig:
      return dropped(0, 1);
  }
  return {};
}

class ConsAdmissionTest : public ConsProviderFixture,
                          public ::testing::WithParamInterface<ConsAdmit> {};

TEST_P(ConsAdmissionTest, RepliesAndKeepsState) {
  const ConsAdmit c = GetParam();
  const std::string key = "shared";
  const Bytes data = crypto::Drbg(std::uint64_t{81}).bytes(4 * kChunkSize);
  const Bytes update_chunk(kChunkSize, 0x11);
  alice_.store_shared("bob", "ttp", key, data, kChunkSize);
  network_.run();
  ASSERT_TRUE(alice_.update(key, 1, update_chunk));
  network_.run();
  const auto* state = bob_.object_state(key);
  ASSERT_NE(state, nullptr);
  const auto& branch = state->branches.front();
  ASSERT_EQ(branch.chain.head_version(), 2u);
  raw_.capture();

  const dyn::VersionChain& chain = branch.chain;
  const Bytes head_hash = chain.head_hash();
  const Bytes view_head = branch.views.head_hash();
  const Bytes v1_view = branch.log[0].commit.view.hash();
  const Bytes tree_root = branch.tree.root();
  const std::vector<Bytes> chunks = branch.chunks;
  const std::size_t log_size = branch.log.size();
  const nr::ActorStats stats = bob_.stats();
  const std::uint64_t rejected = bob_.ops_rejected();
  const std::uint64_t resends = bob_.receipts_resent();
  const std::uint64_t commits = bob_.commits_sent();

  Bytes header_hash;  // empty: the header binds the record's new_root
  const auto send_op = [&](const dyn::VersionRecord& rec,
                           const Bytes& client_sig, BytesView bytes,
                           BytesView observed,
                           std::uint32_t chunk_size = kChunkSize) {
    common::BinaryWriter payload;
    payload.str(rec.object_key);
    payload.u8(static_cast<std::uint8_t>(rec.op));
    payload.u64(rec.chunk_index);
    payload.bytes(bytes);
    payload.u32(chunk_size);
    payload.bytes(rec.encode());
    payload.bytes(client_sig);
    payload.bytes(observed);
    raw_.send(nr::MsgType::kConsOpRequest, state->txn_id,
              header_hash.empty() ? rec.new_root : header_hash,
              payload.take());
  };
  const auto sign = [](const dyn::VersionRecord& rec) {
    return pooled("alice").sign(rec.encode());
  };
  const Bytes& genesis = consistency::ViewCommitment::genesis_link();

  const Bytes next_chunk(kChunkSize, 0x22);
  dyn::VersionRecord next =
      update_record(key, chain, branch.tree, 2, next_chunk);
  dyn::VersionRecord fresh = store_record("fresh", data);
  switch (c) {
    case ConsAdmit::kStoreRetry:
      send_op(chain.records()[0].record, chain.records()[0].client_sig, data,
              genesis);
      break;
    case ConsAdmit::kStoreOtherRecord: {
      const Bytes other = crypto::Drbg(std::uint64_t{82}).bytes(data.size());
      const dyn::VersionRecord rec = store_record(key, other);
      send_op(rec, sign(rec), other, genesis);
      break;
    }
    case ConsAdmit::kStoreZeroChunkSize:
      send_op(fresh, sign(fresh), data, genesis, 0);
      break;
    case ConsAdmit::kStoreVersionTwo:
      fresh.version = 2;
      send_op(fresh, sign(fresh), data, genesis);
      break;
    case ConsAdmit::kStorePrevLink:
      fresh.prev_record_hash = bogus_hash();
      send_op(fresh, sign(fresh), data, genesis);
      break;
    case ConsAdmit::kStoreObservedHead:
      send_op(fresh, sign(fresh), data, view_head);
      break;
    case ConsAdmit::kStoreRootMismatch:
      fresh.new_root = bogus_hash();
      send_op(fresh, sign(fresh), data, genesis);
      break;
    case ConsAdmit::kStoreCountMismatch:
      ++fresh.chunk_count;
      send_op(fresh, sign(fresh), data, genesis);
      break;
    case ConsAdmit::kUnknownObject:
      next.object_key = "nope";
      send_op(next, sign(next), next_chunk, view_head);
      break;
    case ConsAdmit::kMutateRetry:
      send_op(chain.records()[1].record, chain.records()[1].client_sig,
              update_chunk, v1_view);
      break;
    case ConsAdmit::kCommittedConflict: {
      const dyn::DynMerkleTree v1_tree = dyn::DynMerkleTree::build(
          dyn::chunk_views(dyn::split_chunks(data, kChunkSize)));
      const dyn::VersionRecord rec =
          update_record(key, prefix(chain, 1), v1_tree, 1, next_chunk);
      send_op(rec, sign(rec), next_chunk, v1_view);
      break;
    }
    case ConsAdmit::kVersionGap:
      next.version += 1;
      send_op(next, sign(next), next_chunk, v1_view);
      break;
    case ConsAdmit::kStaleObservedHead:
      send_op(next, sign(next), next_chunk, v1_view);
      break;
    case ConsAdmit::kOldRoot:
      next.old_root = bogus_hash();
      send_op(next, sign(next), next_chunk, view_head);
      break;
    case ConsAdmit::kPrevLink:
      next.prev_record_hash = bogus_hash();
      send_op(next, sign(next), next_chunk, view_head);
      break;
    case ConsAdmit::kHeaderHash:
      header_hash = bogus_hash();
      send_op(next, sign(next), next_chunk, view_head);
      break;
    case ConsAdmit::kClientSig:
      send_op(next, sign(fresh), next_chunk, view_head);
      break;
  }

  expect_outcome(cons_expected(c), raw_, stats, bob_.stats(),
                 bob_.ops_rejected() - rejected,
                 bob_.receipts_resent() - resends);
  EXPECT_EQ(bob_.commits_sent(), commits);
  EXPECT_EQ(chain.head_version(), 2u);
  EXPECT_EQ(chain.head_hash(), head_hash);
  EXPECT_EQ(branch.views.head_hash(), view_head);
  EXPECT_EQ(branch.log.size(), log_size);
  EXPECT_EQ(branch.tree.root(), tree_root);
  EXPECT_EQ(branch.chunks, chunks);
  EXPECT_EQ(bob_.store().version_of(key), 2u);
  EXPECT_EQ(bob_.object_state("fresh"), nullptr);
  EXPECT_EQ(bob_.object_state("nope"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AdmissionTable, ConsAdmissionTest,
    ::testing::Values(
        ConsAdmit::kStoreRetry, ConsAdmit::kStoreOtherRecord,
        ConsAdmit::kStoreZeroChunkSize, ConsAdmit::kStoreVersionTwo,
        ConsAdmit::kStorePrevLink, ConsAdmit::kStoreObservedHead,
        ConsAdmit::kStoreRootMismatch, ConsAdmit::kStoreCountMismatch,
        ConsAdmit::kUnknownObject, ConsAdmit::kMutateRetry,
        ConsAdmit::kCommittedConflict, ConsAdmit::kVersionGap,
        ConsAdmit::kStaleObservedHead, ConsAdmit::kOldRoot,
        ConsAdmit::kPrevLink, ConsAdmit::kHeaderHash, ConsAdmit::kClientSig),
    cons_admit_name);

}  // namespace
}  // namespace tpnr
