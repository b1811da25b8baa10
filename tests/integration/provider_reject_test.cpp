// Provider-side rejection of malformed chunk ops. A well-behaved client
// refuses these before they leave it, so each request here is crafted by
// hand: a correctly sealed kMutateRequest / kConsOpRequest from the object's
// own client, carrying a validly client-signed record whose only fault is
// the chunk op itself. Each case pins the provider's reply type and counters
// and checks that its chain, mirror and store did not move.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "consistency/client.h"
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
    for (const char* id : {"alice", "bob"}) {
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

/// Drives one provider with hand-sealed requests from alice and records the
/// message types that come back to her.
class RawSender {
 public:
  RawSender(net::Network& network, crypto::Drbg& rng)
      : network_(network), rng_(rng) {}

  /// Takes over alice's endpoint: from here on replies land in replies().
  void capture() {
    network_.attach("alice", [this](const net::Envelope& envelope) {
      replies_.push_back(nr::NrMessage::decode(envelope.payload).header.flag);
    });
  }

  void send(nr::MsgType flag, const std::string& txn_id, BytesView data_hash,
            Bytes payload) {
    nr::MessageHeader h;
    h.flag = flag;
    h.sender = "alice";
    h.recipient = "bob";
    h.txn_id = txn_id;
    h.seq_no = ++seq_;
    h.nonce = rng_.bytes(16);
    h.data_hash = Bytes(data_hash.begin(), data_hash.end());
    nr::NrMessage message;
    message.evidence = nr::make_evidence(
        pooled("alice"), pooled("bob").public_key(), h, rng_);
    message.header = std::move(h);
    message.payload = std::move(payload);
    network_.send("alice", "bob", "nr", message.encode());
    network_.run();
  }

  [[nodiscard]] const std::vector<nr::MsgType>& replies() const {
    return replies_;
  }

 private:
  net::Network& network_;
  crypto::Drbg& rng_;
  std::uint64_t seq_ = 1000;  // past anything the real client used
  std::vector<nr::MsgType> replies_;
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

class DynProviderRejectTest : public ::testing::TestWithParam<Fault> {
 protected:
  DynProviderRejectTest()
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

class ConsProviderRejectTest : public ::testing::TestWithParam<Fault> {
 protected:
  ConsProviderRejectTest()
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

}  // namespace
}  // namespace tpnr
