// End-to-end durability: real TPNR actors journaling through a WAL, a
// snapshot/compaction checkpoint, a simulated crash mid-protocol, and a
// recovery whose rebuilt state is PROVEN — the ledger hash chain re-verifies
// against the pre-crash prefix (and the published head), and every recovered
// evidence record's signatures re-verify against the signer's public key.
#include <gtest/gtest.h>

#include "audit/ledger.h"
#include "crypto/hash.h"
#include "dyn/client.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/ttp.h"
#include "persist/recovery.h"

namespace tpnr::persist {
namespace {

using common::to_bytes;

/// Shared deterministic identities (RSA keygen is the slow part).
const pki::Identity& test_identity(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{424242});
    for (const char* id : {"alice", "bob", "ttp"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

audit::AuditEntry ledger_entry(std::uint64_t chunk) {
  audit::AuditEntry entry;
  entry.challenged_at = 1000 + static_cast<common::SimTime>(chunk);
  entry.concluded_at = 2000 + static_cast<common::SimTime>(chunk);
  entry.auditor = "auditor";
  entry.provider = "bob";
  entry.txn_id = "txn-1";
  entry.object_key = "obj";
  entry.chunk_index = chunk;
  entry.verdict = audit::AuditVerdict::kVerified;
  entry.detail = "detail";
  return entry;
}

/// One "machine": actors + ledger journaling into a shared WAL over a shared
/// fault injector, with an optional snapshot device on the same injector.
class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : network_(321),
        rng_(std::uint64_t{2000}),
        alice_id_(test_identity("alice")),
        bob_id_(test_identity("bob")),
        ttp_id_(test_identity("ttp")) {}

  void spawn(WalOptions options = {}) {
    faults_ = std::make_shared<FaultInjector>(99);
    wal_ = std::make_unique<Wal>(options, faults_);
    snapshotter_ = std::make_unique<Snapshotter>(faults_);

    alice_ = std::make_unique<nr::ClientActor>("alice", network_, alice_id_,
                                               rng_);
    bob_ = std::make_unique<nr::ProviderActor>("bob", network_, bob_id_, rng_);
    ttp_ = std::make_unique<nr::TtpActor>("ttp", network_, ttp_id_, rng_);
    alice_->trust_peer("bob", bob_id_.public_key());
    alice_->trust_peer("ttp", ttp_id_.public_key());
    bob_->trust_peer("alice", alice_id_.public_key());
    bob_->trust_peer("ttp", ttp_id_.public_key());
    ttp_->trust_peer("alice", alice_id_.public_key());
    ttp_->trust_peer("bob", bob_id_.public_key());

    // Everything durable flows through ONE journal: client-held NRRs,
    // provider-held NROs, accepted object metadata, audit ledger entries.
    alice_->set_journal(wal_.get());
    bob_->set_journal(wal_.get());
    bob_->store().bind_journal(wal_.get());
    ledger_.bind_journal(wal_.get());
  }

  /// Runs one complete store and returns its txn id.
  std::string store(const std::string& key, const std::string& payload) {
    const std::string txn = alice_->store("bob", "ttp", key, to_bytes(payload));
    network_.run();
    return txn;
  }

  RecoveryOptions options_with_keys() const {
    RecoveryOptions options;
    options.signer_keys["alice"] = alice_id_.public_key();
    options.signer_keys["bob"] = bob_id_.public_key();
    options.durable_lsn = wal_->durable_lsn();
    options.last_lsn = wal_->last_lsn();
    return options;
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  pki::Identity ttp_id_;
  std::shared_ptr<FaultInjector> faults_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Snapshotter> snapshotter_;
  audit::AuditLedger ledger_;
  std::unique_ptr<nr::ClientActor> alice_;
  std::unique_ptr<nr::ProviderActor> bob_;
  std::unique_ptr<nr::TtpActor> ttp_;
};

TEST_F(RecoveryTest, JournaledRunReplaysEverythingAndProvesIt) {
  spawn();
  store("obj-a", "first object");
  store("obj-b", "second object");
  ledger_.append(ledger_entry(0));
  ledger_.append(ledger_entry(1));
  store("obj-c", "third object");

  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_),
                       options_with_keys());
  const RecoveryReport& report = state.report;

  EXPECT_TRUE(report.sound());
  EXPECT_TRUE(report.wal_clean);
  EXPECT_EQ(report.lost_committed, 0u);
  EXPECT_EQ(report.lost_unflushed, 0u);
  EXPECT_EQ(report.last_recovered_lsn, wal_->last_lsn());

  // Per store: the provider journals the NRO it holds, the client the NRR —
  // and every signature re-verifies against the real public keys.
  EXPECT_EQ(report.evidence_total, 6u);
  EXPECT_EQ(report.evidence_verified, 6u);
  EXPECT_EQ(report.evidence_failed, 0u);
  EXPECT_EQ(report.evidence_unverifiable, 0u);

  EXPECT_EQ(report.objects_recovered, 3u);
  ASSERT_EQ(state.objects.count("obj-a"), 1u);
  EXPECT_EQ(state.objects.at("obj-a").sha256,
            crypto::sha256(to_bytes("first object")));

  EXPECT_EQ(report.ledger_entries, 2u);
  EXPECT_TRUE(report.ledger_chain_ok);
  EXPECT_EQ(state.ledger.head(), ledger_.head());
}

TEST_F(RecoveryTest, RemoveIsReplayedToo) {
  spawn();
  store("obj-a", "kept");
  store("obj-b", "dropped");
  bob_->store().remove("obj-b");

  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_),
                       options_with_keys());
  EXPECT_EQ(state.report.objects_recovered, 1u);
  EXPECT_EQ(state.objects.count("obj-a"), 1u);
  EXPECT_EQ(state.objects.count("obj-b"), 0u);
}

TEST_F(RecoveryTest, CrashMidProtocolRecoversSoundState) {
  spawn();  // every-record: the commit watermark tracks each append
  store("obj-a", "object before the crash");
  ledger_.append(ledger_entry(0));
  ledger_.append(ledger_entry(1));
  wal_->sync();
  // Countersign/publish the ledger head while it is provably durable.
  const Bytes published_head = ledger_.head();

  // Keep a pre-crash copy of the chain for the prefix-identity check.
  const std::vector<audit::AuditEntry> pre_crash = ledger_.entries();

  // The machine dies a few device writes into the next transaction.
  faults_->arm({faults_->writes_issued() + 3, /*torn_prefix=*/-1});
  RecoveryOptions options = options_with_keys();  // keys only; lsns below
  try {
    store("obj-b", "object the crash interrupts");
    ledger_.append(ledger_entry(2));
    wal_->sync();
    FAIL() << "crash point never fired";
  } catch (const DeviceCrashed&) {
  }
  ASSERT_TRUE(wal_->crashed());
  options.durable_lsn = wal_->durable_lsn();
  options.last_lsn = wal_->last_lsn();
  options.published_ledger_head = published_head;

  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_), options);
  const RecoveryReport& report = state.report;

  // Sound: zero committed loss, chain verified, published head covered,
  // every recovered evidence signature re-verified.
  EXPECT_TRUE(report.sound());
  EXPECT_EQ(report.lost_committed, 0u);
  EXPECT_GE(report.last_recovered_lsn, wal_->durable_lsn());
  EXPECT_TRUE(report.ledger_covers_published_head);
  EXPECT_EQ(report.evidence_failed, 0u);
  EXPECT_GE(report.evidence_verified, 2u);  // obj-a's NRO + NRR at minimum

  // Satellite check: the rebuilt ledger is hash-chain-identical to the
  // pre-crash prefix, entry by entry.
  ASSERT_LE(state.ledger.size(), pre_crash.size() + 1);
  for (std::size_t i = 0; i < state.ledger.size() && i < pre_crash.size();
       ++i) {
    EXPECT_EQ(state.ledger.entries()[i].entry_hash, pre_crash[i].entry_hash);
    EXPECT_EQ(state.ledger.entries()[i].encode_full(),
              pre_crash[i].encode_full());
  }
  EXPECT_GE(state.ledger.size(), pre_crash.size());  // both were durable
  EXPECT_TRUE(state.ledger.verify_chain());
}

TEST_F(RecoveryTest, PublishedHeadDetectsLostLedgerTail) {
  WalOptions lazy;
  lazy.policy = FlushPolicy::kEveryN;
  lazy.flush_every_n = 1000;  // nothing auto-commits
  spawn(lazy);

  ledger_.append(ledger_entry(0));
  ledger_.append(ledger_entry(1));
  wal_->sync();
  ledger_.append(ledger_entry(2));  // journaled but never flushed
  // The head gets published (countersigned by a peer) AFTER entry 2 exists
  // in memory — then the machine loses power with the tail un-flushed.
  const Bytes published_head = ledger_.head();

  RecoveryOptions options = options_with_keys();
  options.published_ledger_head = published_head;
  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_), options);
  const RecoveryReport& report = state.report;

  // The durable ledger is a valid chain — but it no longer reaches the head
  // an external party anchored: recovery MUST flag it, not shrug.
  EXPECT_EQ(report.ledger_entries, 2u);
  EXPECT_TRUE(report.ledger_chain_ok);
  EXPECT_FALSE(report.ledger_covers_published_head);
  EXPECT_FALSE(report.sound());
  EXPECT_EQ(report.lost_committed, 0u);
  EXPECT_EQ(report.lost_unflushed, 1u);
}

TEST_F(RecoveryTest, CheckpointThenCrashReplaysSnapshotPlusTail) {
  WalOptions options;
  // Tiny segments: the RSA-1024 signatures make each evidence record bigger
  // than one segment, so batch 1 rotates several times and the checkpoint
  // has sealed segments to retire.
  options.segment_bytes = 512;
  spawn(options);

  // Batch 1, then checkpoint: replay the DURABLE state, snapshot it, retire
  // the covered segments.
  store("obj-a", "in the snapshot");
  ledger_.append(ledger_entry(0));
  const RecoveredState durable_now = Recovery::replay(
      capture_durable(snapshotter_.get(), *wal_), options_with_keys());
  snapshotter_->write(to_snapshot_state(durable_now, wal_->durable_lsn()));
  const std::size_t segments_before = wal_->segment_count();
  wal_->truncate_upto(wal_->durable_lsn());
  EXPECT_LT(wal_->segment_count(), segments_before);

  // Batch 2 rides the (now shorter) log; then the machine dies.
  store("obj-b", "after the snapshot");
  ledger_.append(ledger_entry(1));
  faults_->arm({faults_->writes_issued() + 1, /*torn_prefix=*/-1});
  RecoveryOptions recovery_options = options_with_keys();
  try {
    store("obj-c", "interrupted");
    FAIL() << "crash point never fired";
  } catch (const DeviceCrashed&) {
  }
  recovery_options.durable_lsn = wal_->durable_lsn();
  recovery_options.last_lsn = wal_->last_lsn();

  const RecoveredState state = Recovery::replay(
      capture_durable(snapshotter_.get(), *wal_), recovery_options);
  const RecoveryReport& report = state.report;

  EXPECT_TRUE(report.snapshot_present);
  EXPECT_TRUE(report.snapshot_ok);
  EXPECT_GT(report.snapshot_lsn, 0u);
  EXPECT_TRUE(report.sound());
  EXPECT_EQ(report.lost_committed, 0u);

  // Snapshot content + WAL tail both land: obj-a from the snapshot,
  // obj-b from the replayed tail, ledger chain spanning the seam.
  EXPECT_EQ(state.objects.count("obj-a"), 1u);
  EXPECT_EQ(state.objects.count("obj-b"), 1u);
  EXPECT_GE(report.ledger_entries, 2u);
  EXPECT_TRUE(report.ledger_chain_ok);
  EXPECT_GE(report.evidence_verified, 4u);  // both completed stores
}

TEST_F(RecoveryTest, TamperedEvidenceFailsTheSignatureCrossCheck) {
  spawn();
  const std::string txn = store("obj-a", "genuine payload");
  const auto nrr = alice_->present_nrr(txn);
  ASSERT_TRUE(nrr.has_value());

  // An attacker rewrites a durable evidence record to claim a different
  // object hash. The frame CRC can be recomputed (it is not a signature) —
  // so recovery's signature cross-check is the layer that must catch this.
  EvidenceRecord forged;
  forged.owner = "alice";
  forged.role = "nrr";
  forged.txn_id = txn;
  forged.signer = "bob";
  forged.object_key = "obj-a";
  forged.header = nrr->first;
  forged.header.data_hash = crypto::sha256(to_bytes("substituted payload"));
  forged.data_hash_signature = nrr->second.data_hash_signature;
  forged.header_signature = nrr->second.header_signature;
  wal_->record(RecordType::kEvidence, forged.encode());

  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_),
                       options_with_keys());
  EXPECT_EQ(state.report.evidence_failed, 1u);
  EXPECT_EQ(state.report.evidence_verified, 2u);  // the genuine NRO + NRR
  EXPECT_FALSE(state.report.sound());
}

TEST_F(RecoveryTest, UnknownSignerIsReportedUnverifiableNotFailed) {
  spawn();
  store("obj-a", "payload");

  RecoveryOptions options;  // no keys supplied at all
  options.durable_lsn = wal_->durable_lsn();
  options.last_lsn = wal_->last_lsn();
  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_), options);
  EXPECT_EQ(state.report.evidence_unverifiable, 2u);
  EXPECT_EQ(state.report.evidence_failed, 0u);
  // Unverifiable is a key-distribution problem, not proof of tampering.
  EXPECT_TRUE(state.report.sound());
}

TEST_F(RecoveryTest, EmptyMediaRecoversEmptySoundState) {
  spawn();
  const RecoveredState state =
      Recovery::replay(capture_durable(snapshotter_.get(), *wal_),
                       options_with_keys());
  EXPECT_TRUE(state.report.sound());
  EXPECT_EQ(state.report.wal_records_replayed, 0u);
  EXPECT_EQ(state.report.objects_recovered, 0u);
  EXPECT_EQ(state.ledger.size(), 0u);
}

TEST_F(RecoveryTest, JournaledChunkMutationsReplayToTheCurrentVersion) {
  faults_ = std::make_shared<FaultInjector>(99);
  wal_ = std::make_unique<Wal>(WalOptions{}, faults_);
  dyn::DynClientActor alice("alice", network_, alice_id_, rng_,
                            to_bytes("master"));
  dyn::DynProviderActor bob("bob", network_, bob_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  bob.store().bind_journal(wal_.get());

  // Version 1 is a put; versions 2 to 5 are one mutation of each kind.
  alice.store_dyn("bob", "ttp", "doc", common::Bytes(256, 7), 64);
  network_.run();
  ASSERT_TRUE(alice.update("doc", 1, common::Bytes(64, 1)));
  network_.run();
  ASSERT_TRUE(alice.insert("doc", 0, common::Bytes(64, 2)));
  network_.run();
  ASSERT_TRUE(alice.append_chunk("doc", common::Bytes(10, 3)));
  network_.run();
  ASSERT_TRUE(alice.erase("doc", 2));
  network_.run();
  ASSERT_EQ(bob.store().version_of("doc"), 5u);
  const auto current = bob.store().get("doc");
  ASSERT_TRUE(current.has_value());

  const RecoveredState state =
      Recovery::replay(capture_durable(nullptr, *wal_));
  EXPECT_TRUE(state.report.wal_clean);
  EXPECT_EQ(state.report.wal_records_replayed, 5u);
  ASSERT_EQ(state.objects.count("doc"), 1u);
  const ObjectMeta& meta = state.objects.at("doc");
  EXPECT_EQ(meta.key, "doc");
  EXPECT_EQ(meta.version, 5u);
  EXPECT_EQ(meta.size, current->data.size());
  EXPECT_EQ(meta.size, 4u * 64 + 10);
  EXPECT_EQ(meta.sha256, crypto::sha256(current->data));
}

}  // namespace
}  // namespace tpnr::persist
