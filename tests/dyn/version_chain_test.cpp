// Versioned NRR chains and the TTP's dynamic dispute decision table.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "dyn/dispute.h"
#include "dyn/dyn_merkle.h"
#include "dyn/version_chain.h"
#include "pki/identity.h"

namespace tpnr::dyn {
namespace {

using common::Bytes;

constexpr std::size_t kChunkSize = 32;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{70707});
    for (const char* id : {"client", "provider"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

SignedVersionRecord countersign(VersionRecord record) {
  SignedVersionRecord signed_record;
  signed_record.client_sig = pooled("client").sign(record.encode());
  Bytes material = record.encode();
  material.insert(material.end(), signed_record.client_sig.begin(),
                  signed_record.client_sig.end());
  signed_record.provider_sig = pooled("provider").sign(material);
  signed_record.record = std::move(record);
  return signed_record;
}

/// An honest 4-version history: store 4 chunks, update #1, append, erase #0.
struct History {
  std::vector<Bytes> chunks;
  DynMerkleTree tree;
  VersionChain chain;

  History() {
    crypto::Drbg rng(std::uint64_t{12321});
    for (int i = 0; i < 4; ++i) chunks.push_back(rng.bytes(kChunkSize));
    tree = DynMerkleTree::build(chunk_views(chunks));

    VersionRecord store;
    store.object_key = "doc";
    store.version = 1;
    store.op = MutateOp::kStore;
    store.chunk_count = 4;
    store.old_root = DynMerkleTree::empty_root();
    store.new_root = tree.root();
    store.prev_record_hash = VersionRecord::genesis_link();
    EXPECT_TRUE(chain.append(countersign(store)));

    apply(MutateOp::kUpdate, 1, rng.bytes(kChunkSize));
    apply(MutateOp::kAppend, 4, rng.bytes(kChunkSize));
    apply(MutateOp::kErase, 0, Bytes{});
  }

  void apply(MutateOp op, std::uint64_t index, Bytes chunk) {
    VersionRecord record;
    record.object_key = "doc";
    record.version = chain.head_version() + 1;
    record.op = op;
    record.chunk_index = index;
    record.old_root = chain.head_root();
    record.prev_record_hash = chain.head_hash();
    switch (op) {
      case MutateOp::kUpdate:
        tree.update(index, chunk);
        chunks[index] = std::move(chunk);
        break;
      case MutateOp::kInsert:
      case MutateOp::kAppend:
        tree.insert(index, chunk);
        chunks.insert(chunks.begin() + static_cast<std::ptrdiff_t>(index),
                      std::move(chunk));
        record.chunk_tag = 1;  // any nonzero placeholder
        break;
      case MutateOp::kErase:
        tree.erase(index);
        chunks.erase(chunks.begin() + static_cast<std::ptrdiff_t>(index));
        break;
      case MutateOp::kStore:
        break;
    }
    record.chunk_count = tree.leaf_count();
    record.new_root = tree.root();
    ASSERT_TRUE(chain.append(countersign(std::move(record))));
  }

  [[nodiscard]] DynDisputeCase base_case() const {
    DynDisputeCase dispute;
    dispute.object_key = "doc";
    dispute.client_key = pooled("client").public_key();
    dispute.provider_key = pooled("provider").public_key();
    dispute.chain = chain.records();
    return dispute;
  }
};

TEST(VersionChainTest, RecordRoundTripsAndHashLinks) {
  const History h;
  const SignedVersionRecord& head = h.chain.records().back();
  const SignedVersionRecord decoded =
      SignedVersionRecord::decode(head.encode());
  EXPECT_EQ(decoded.record.encode(), head.record.encode());
  EXPECT_EQ(decoded.record.hash(), head.record.hash());
  EXPECT_TRUE(decoded.verify(pooled("client").public_key(),
                             pooled("provider").public_key()));
  // Each record links to its predecessor's hash.
  for (std::size_t i = 1; i < h.chain.records().size(); ++i) {
    EXPECT_EQ(h.chain.records()[i].record.prev_record_hash,
              h.chain.records()[i - 1].record.hash());
  }
  EXPECT_EQ(h.chain.head_version(), 4u);
  EXPECT_EQ(h.chain.head_chunk_count(), 4u);  // 4 → update → 5 → erase → 4
}

TEST(VersionChainTest, AppendRejectsDiscontinuities) {
  const History h;
  VersionChain chain;
  for (const auto& rec : h.chain.records()) {
    ASSERT_TRUE(chain.append(rec));
  }
  std::string why;
  // Replay of the head (stale version number).
  EXPECT_FALSE(chain.append(h.chain.records().back(), &why));
  EXPECT_FALSE(why.empty());

  VersionRecord gap;
  gap.object_key = "doc";
  gap.version = chain.head_version() + 2;  // skips one
  gap.op = MutateOp::kUpdate;
  gap.chunk_count = chain.head_chunk_count();
  gap.old_root = chain.head_root();
  gap.new_root = chain.head_root();
  gap.prev_record_hash = chain.head_hash();
  EXPECT_FALSE(chain.append(countersign(gap), &why));

  VersionRecord bad_root;
  bad_root.object_key = "doc";
  bad_root.version = chain.head_version() + 1;
  bad_root.op = MutateOp::kUpdate;
  bad_root.chunk_count = chain.head_chunk_count();
  bad_root.old_root = Bytes(32, 0xAB);  // does not match the head
  bad_root.new_root = chain.head_root();
  bad_root.prev_record_hash = chain.head_hash();
  EXPECT_FALSE(chain.append(countersign(bad_root), &why));

  VersionRecord bad_link = bad_root;
  bad_link.old_root = chain.head_root();
  bad_link.prev_record_hash = Bytes(32, 0xCD);  // broken hash link
  EXPECT_FALSE(chain.append(countersign(bad_link), &why));
}

TEST(VersionChainTest, AdmitSortsEveryRecord) {
  const History h;
  const VersionChain& chain = h.chain;
  // Every committed record, re-sent verbatim, is a retry.
  for (const SignedVersionRecord& rec : chain.records()) {
    EXPECT_EQ(chain.admit(rec), Admission::kRetry);
  }

  VersionRecord next;
  next.object_key = "doc";
  next.version = chain.head_version() + 1;
  next.op = MutateOp::kUpdate;
  next.chunk_count = chain.head_chunk_count();
  next.old_root = chain.head_root();
  next.new_root = Bytes(32, 0x42);
  next.prev_record_hash = chain.head_hash();
  EXPECT_EQ(chain.admit(countersign(next)), Admission::kNext);

  // The same committed record under another signature, and another record
  // at a committed version, are conflicts.
  SignedVersionRecord resigned = chain.records()[1];
  resigned.client_sig[4] ^= 0x01;
  EXPECT_EQ(chain.admit(resigned), Admission::kConflict);
  VersionRecord other = chain.records()[2].record;
  other.chunk_tag ^= 1;
  EXPECT_EQ(chain.admit(countersign(other)), Admission::kConflict);

  VersionRecord gap = next;
  gap.version = 0;
  EXPECT_EQ(chain.admit(countersign(gap)), Admission::kGap);
  gap.version = chain.head_version() + 2;
  EXPECT_EQ(chain.admit(countersign(gap)), Admission::kGap);

  // An unlinked record keeps append's two explanations apart.
  VersionChain copy = chain;
  std::string why;
  VersionRecord bad_root = next;
  bad_root.old_root = Bytes(32, 0xAB);
  EXPECT_EQ(chain.admit(countersign(bad_root)), Admission::kUnlinked);
  EXPECT_FALSE(copy.append(countersign(bad_root), &why));
  EXPECT_EQ(why, "old_root does not match chain head root");
  VersionRecord bad_link = next;
  bad_link.prev_record_hash = Bytes(32, 0xCD);
  EXPECT_EQ(chain.admit(countersign(bad_link)), Admission::kUnlinked);
  EXPECT_FALSE(copy.append(countersign(bad_link), &why));
  EXPECT_EQ(why, "prev_record_hash does not match chain head");
  EXPECT_FALSE(copy.append(countersign(gap), &why));
  EXPECT_EQ(why, "version 6 does not follow 4");

  // An empty chain admits exactly the genesis-linked version 1.
  const VersionChain empty;
  const SignedVersionRecord& v1 = chain.records().front();
  EXPECT_EQ(empty.admit(v1), Admission::kNext);
  VersionRecord v2 = v1.record;
  v2.version = 2;
  EXPECT_EQ(empty.admit(countersign(v2)), Admission::kGap);
  VersionRecord unlinked = v1.record;
  unlinked.prev_record_hash = Bytes(32, 0xCD);
  EXPECT_EQ(empty.admit(countersign(unlinked)), Admission::kUnlinked);
}

TEST(VersionChainTest, WalkFlagsForgedSignaturesAndBrokenLinks) {
  const History h;
  const auto& client = pooled("client").public_key();
  const auto& provider = pooled("provider").public_key();

  EXPECT_EQ(walk_chain(h.chain.records(), client, provider).status,
            ChainStatus::kValid);
  EXPECT_EQ(walk_chain({}, client, provider).status, ChainStatus::kEmpty);

  auto forged_client = h.chain.records();
  forged_client[2].client_sig[4] ^= 0x01;
  auto walk = walk_chain(forged_client, client, provider);
  EXPECT_EQ(walk.status, ChainStatus::kBadClientSig);
  EXPECT_EQ(walk.at_version, 3u);

  auto forged_provider = h.chain.records();
  forged_provider[1].provider_sig[4] ^= 0x01;
  walk = walk_chain(forged_provider, client, provider);
  EXPECT_EQ(walk.status, ChainStatus::kBadProviderSig);
  EXPECT_EQ(walk.at_version, 2u);

  // A record both parties signed but that does not extend its predecessor:
  // re-sign version 3 with a corrupt link so only the continuity breaks.
  auto broken = h.chain.records();
  VersionRecord detached = broken[2].record;
  detached.prev_record_hash = Bytes(32, 0xEE);
  broken[2] = countersign(std::move(detached));
  walk = walk_chain(broken, client, provider);
  EXPECT_EQ(walk.status, ChainStatus::kBrokenLink);
  EXPECT_EQ(walk.at_version, 3u);
}

TEST(VersionChainTest, VersionOfRootFindsNewestOwner) {
  const History h;
  for (std::size_t i = 0; i < h.chain.records().size(); ++i) {
    const auto owner =
        h.chain.version_of_root(h.chain.records()[i].record.new_root);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(*owner, i + 1);
  }
  EXPECT_FALSE(h.chain.version_of_root(Bytes(32, 0x11)).has_value());
}

TEST(DynDisputeTest, DecisionTableRows) {
  const History h;

  // Row: chain intact, provider serves the head.
  DynDisputeCase dispute = h.base_case();
  dispute.served_version = h.chain.head_version();
  dispute.served_root = h.chain.head_root();
  EXPECT_EQ(resolve_dyn_dispute(dispute).kind, DynRulingKind::kChainIntact);

  // Row: "provider served stale version" — honestly labeled old snapshot.
  dispute = h.base_case();
  dispute.served_version = 2;
  dispute.served_root = h.chain.records()[1].record.new_root;
  const DynRuling stale = resolve_dyn_dispute(dispute);
  EXPECT_EQ(stale.kind, DynRulingKind::kProviderStale);
  EXPECT_EQ(stale.walk.status, ChainStatus::kValid);

  // Row: rollback — claims the head version, serves an old root.
  dispute = h.base_case();
  dispute.served_version = h.chain.head_version();
  dispute.served_root = h.chain.records()[1].record.new_root;
  EXPECT_EQ(resolve_dyn_dispute(dispute).kind,
            DynRulingKind::kProviderRollback);

  // Row: a root no committed version ever had.
  dispute = h.base_case();
  dispute.served_version = h.chain.head_version();
  dispute.served_root = Bytes(32, 0x77);
  EXPECT_EQ(resolve_dyn_dispute(dispute).kind, DynRulingKind::kProviderFault);

  // Row: "client repudiates an update" it actually signed → bound.
  dispute = h.base_case();
  dispute.repudiated_version = 2;
  const DynRuling bound = resolve_dyn_dispute(dispute);
  EXPECT_EQ(bound.kind, DynRulingKind::kClientBound);

  // Row: repudiated version beyond the countersigned head → upheld.
  dispute = h.base_case();
  dispute.repudiated_version = 9;
  EXPECT_EQ(resolve_dyn_dispute(dispute).kind, DynRulingKind::kClientUpheld);

  // Row: provider presents a chain with a record the client never signed.
  dispute = h.base_case();
  dispute.chain[3].client_sig[0] ^= 0x01;
  dispute.repudiated_version = 4;
  const DynRuling forged = resolve_dyn_dispute(dispute);
  EXPECT_EQ(forged.kind, DynRulingKind::kProviderFault);

  // No records at all → inconclusive.
  dispute = h.base_case();
  dispute.chain.clear();
  EXPECT_EQ(resolve_dyn_dispute(dispute).kind, DynRulingKind::kInconclusive);
}

}  // namespace
}  // namespace tpnr::dyn
