// Continuous audit subsystem: AuditorActor + AuditScheduler + AuditReport
// end-to-end against honest, tampering, equivocating and unresponsive
// providers inside the simulated network.
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/report.h"
#include "audit/scheduler.h"
#include "common/serial.h"
#include "crypto/counters.h"
#include "dyn/client.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/chunked.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/ttp.h"

namespace tpnr::audit {
namespace {

constexpr std::size_t kChunkSize = 512;
constexpr std::size_t kChunks = 64;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{60606});
    for (const char* id : {"alice", "bob", "ttp", "auditor"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

class AuditTest : public ::testing::Test {
 protected:
  explicit AuditTest(std::uint64_t network_seed = 404)
      : network_(network_seed),
        rng_(std::uint64_t{505}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")),
        ttp_id_(pooled("ttp")),
        auditor_id_(pooled("auditor")),
        alice_("alice", network_, alice_id_, rng_),
        bob_("bob", network_, bob_id_, rng_),
        ttp_("ttp", network_, ttp_id_, rng_),
        auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    alice_.trust_peer("ttp", ttp_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    bob_.trust_peer("auditor", auditor_id_.public_key());
    ttp_.trust_peer("alice", alice_id_.public_key());
    ttp_.trust_peer("bob", bob_id_.public_key());
    auditor_.trust_peer("bob", bob_id_.public_key());
  }

  /// Stores a chunked object, completes the store exchange, and registers
  /// it with the auditor. Returns (txn, data).
  std::pair<std::string, Bytes> watched_object() {
    crypto::Drbg data_rng(std::uint64_t{kChunks * kChunkSize});
    Bytes data = data_rng.bytes(kChunkSize * kChunks - kChunkSize / 2);
    const std::string txn =
        alice_.store_chunked("bob", "ttp", "audited-object", data, kChunkSize);
    network_.run();
    EXPECT_TRUE(auditor_.watch(alice_, txn));
    return {txn, std::move(data)};
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  pki::Identity ttp_id_;
  pki::Identity auditor_id_;
  AuditLedger ledger_;
  nr::ClientActor alice_;
  nr::ProviderActor bob_;
  nr::TtpActor ttp_;
  AuditorActor auditor_;
};

TEST_F(AuditTest, WatchRegistersSignedRootFromEvidence) {
  auto [txn, data] = watched_object();
  ASSERT_EQ(auditor_.targets().size(), 1u);
  const AuditTarget& target = auditor_.targets().at(txn);
  EXPECT_EQ(target.provider, "bob");
  EXPECT_EQ(target.object_key, "audited-object");
  EXPECT_EQ(target.chunk_count, kChunks);
  EXPECT_EQ(target.root, crypto::MerkleTree(data, kChunkSize).root());
}

TEST_F(AuditTest, WatchRejectsFlatUnknownAndUntrusted) {
  crypto::Drbg data_rng(std::uint64_t{11});
  const std::string flat =
      alice_.store("bob", "ttp", "flat", data_rng.bytes(1000));
  network_.run();
  EXPECT_FALSE(auditor_.watch(alice_, flat));       // flat: nothing to sample
  EXPECT_FALSE(auditor_.watch(alice_, "no-such"));  // unknown txn

  // An auditor that does not hold the provider's key cannot verify the
  // receipt the root came from — registration is refused.
  AuditLedger other_ledger;
  crypto::Drbg other_rng(std::uint64_t{12});
  pki::Identity blind_id = pooled("auditor");
  AuditorActor blind("auditor2", network_, blind_id, other_rng, other_ledger);
  const std::string txn =
      alice_.store_chunked("bob", "ttp", "obj", data_rng.bytes(4096), 512);
  network_.run();
  EXPECT_FALSE(blind.watch(alice_, txn));
  EXPECT_TRUE(blind.targets().empty());
}

TEST_F(AuditTest, HonestProviderProducesZeroFalsePositives) {
  auto [txn, data] = watched_object();
  AuditScheduler scheduler(network_, auditor_,
                           {.period = common::kSecond,
                            .sampling_rate = 0.10,
                            .max_outstanding = 64,
                            .seed = 7,
                            .max_rounds = 5});
  scheduler.start();
  network_.run();

  EXPECT_EQ(scheduler.rounds(), 5u);
  EXPECT_FALSE(scheduler.running());
  EXPECT_GT(auditor_.counters().challenges, 0u);
  EXPECT_EQ(auditor_.outstanding(), 0u);
  // Zero false positives: every concluded audit verified.
  EXPECT_EQ(auditor_.counters().flagged, 0u);
  EXPECT_EQ(auditor_.counters().no_responses, 0u);
  EXPECT_EQ(auditor_.counters().verified, auditor_.counters().challenges);
  ASSERT_EQ(ledger_.size(), auditor_.counters().challenges);
  EXPECT_TRUE(ledger_.verify_chain());
  for (const AuditEntry& entry : ledger_.entries()) {
    EXPECT_EQ(entry.verdict, AuditVerdict::kVerified);
    EXPECT_GT(entry.concluded_at, entry.challenged_at);
  }
}

// A provider that recomputes proofs over its tampered store fails every
// audit, so the FIRST scheduled sample detects the tamper.
TEST_F(AuditTest, TamperingProviderDetectedWithinSamplingBudget) {
  auto [txn, data] = watched_object();
  Bytes tampered = data;
  tampered[20 * kChunkSize + 3] ^= 0x01;
  ASSERT_TRUE(bob_.tamper(txn, tampered));

  AuditScheduler scheduler(network_, auditor_,
                           {.sampling_rate = 0.02,  // one chunk per round
                            .seed = 9,
                            .max_rounds = 1});
  scheduler.start();
  network_.run();

  EXPECT_EQ(auditor_.counters().challenges, 1u);
  EXPECT_EQ(auditor_.counters().flagged, 1u);
  ASSERT_EQ(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries()[0].verdict, AuditVerdict::kMismatch);
}

// The provider serves proofs from its Merkle cache. Prime the cache with a
// full round of clean audits FIRST, then tamper: every post-tamper audit
// must still flag a mismatch — a hit on the pre-tamper tree would serve
// stale clean proofs and mask the fault.
TEST_F(AuditTest, PrimedMerkleCacheDoesNotMaskLaterTamper) {
  auto [txn, data] = watched_object();

  for (std::size_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(auditor_.challenge(txn, i));
    network_.run();
  }
  EXPECT_EQ(auditor_.counters().verified, kChunks);
  // The clean round was served from the cache after the store-time build.
  EXPECT_GE(bob_.merkle_cache().hits(), kChunks - 1);

  Bytes tampered = data;
  tampered[9 * kChunkSize + 5] ^= 0x80;
  ASSERT_TRUE(bob_.tamper(txn, tampered));

  for (std::size_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(auditor_.challenge(txn, i));
    network_.run();
  }
  // Post-tamper, the provider rebuilds over the tampered bytes: the root no
  // longer matches the signed root, so EVERY chunk fails — nothing is
  // served from the stale tree.
  EXPECT_EQ(auditor_.counters().verified, kChunks);
  EXPECT_EQ(auditor_.counters().flagged, kChunks);
  for (std::size_t i = kChunks; i < 2 * kChunks; ++i) {
    EXPECT_EQ(ledger_.entries()[i].verdict, AuditVerdict::kMismatch);
  }
}

TEST_F(AuditTest, EquivocatingProviderPassesCleanChunksFailsTampered) {
  nr::ProviderBehavior behavior;
  behavior.equivocate_chunk_proofs = true;
  bob_.set_behavior(behavior);

  auto [txn, data] = watched_object();
  Bytes tampered = data;
  const std::set<std::size_t> bad = {5, 21, 40};
  for (std::size_t c : bad) tampered[c * kChunkSize + 2] ^= 0xff;
  ASSERT_TRUE(bob_.tamper(txn, tampered));

  // Direct sweep of every chunk: the equivocator's cached-tree proofs make
  // untampered chunks verify; only the corrupted chunks are flagged.
  for (std::size_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(auditor_.challenge(txn, i));
  }
  network_.run();

  ASSERT_EQ(ledger_.size(), kChunks);
  std::set<std::size_t> flagged;
  for (const AuditEntry& entry : ledger_.entries()) {
    if (entry.verdict != AuditVerdict::kVerified) {
      EXPECT_EQ(entry.verdict, AuditVerdict::kMismatch);
      flagged.insert(static_cast<std::size_t>(entry.chunk_index));
    }
  }
  EXPECT_EQ(flagged, bad);
  EXPECT_EQ(auditor_.counters().verified, kChunks - bad.size());
}

TEST_F(AuditTest, UnresponsiveProviderTimesOutIntoNoResponseVerdict) {
  auto [txn, data] = watched_object();
  nr::ProviderBehavior behavior;
  behavior.respond_to_fetch = false;  // dead replica
  bob_.set_behavior(behavior);

  ASSERT_TRUE(auditor_.challenge(txn, 0));
  network_.run();

  EXPECT_EQ(auditor_.counters().retries, 1u);  // default max_retries
  EXPECT_EQ(auditor_.counters().no_responses, 1u);
  EXPECT_EQ(auditor_.outstanding(), 0u);
  ASSERT_EQ(ledger_.size(), 1u);
  const AuditEntry& entry = ledger_.entries()[0];
  EXPECT_EQ(entry.verdict, AuditVerdict::kNoResponse);
  EXPECT_EQ(entry.detail, "provider silent through 2 attempt(s)");
  // Two timeout windows elapsed before the verdict.
  EXPECT_GE(entry.concluded_at - entry.challenged_at,
            2 * kChallengeWait.timeout);
}

TEST_F(AuditTest, LostObjectYieldsNoResponseAndFaultLogEntry) {
  auto [txn, data] = watched_object();
  bob_.store().set_fault_policy(
      {storage::FaultKind::kLoss, /*probability=*/1.0});

  ASSERT_TRUE(auditor_.challenge(txn, 3));
  network_.run();

  // The provider's read lost the object; it could not answer at all.
  ASSERT_EQ(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries()[0].verdict, AuditVerdict::kNoResponse);
  const auto faults = bob_.store().fault_log_for("audited-object");
  ASSERT_FALSE(faults.empty());
  EXPECT_EQ(faults[0].kind, storage::FaultKind::kLoss);
  EXPECT_GT(faults[0].at, 0);
  EXPECT_LE(faults[0].at, ledger_.entries()[0].concluded_at);
}

TEST_F(AuditTest, GarbledResponseRecordedAsMalformed) {
  auto [txn, data] = watched_object();
  // The adversary keeps the message well-formed but destroys the payload.
  network_.set_adversary("bob", "auditor", [](const net::Envelope& envelope) {
    nr::NrMessage message = nr::NrMessage::decode(envelope.payload);
    message.payload = Bytes{0x01, 0x02, 0x03};  // too short for the index
    net::AdversaryAction action;
    action.kind = net::AdversaryAction::Kind::kModify;
    action.modified_payload = message.encode();
    return action;
  });

  ASSERT_TRUE(auditor_.challenge(txn, 0));
  network_.run();

  ASSERT_GE(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries()[0].verdict, AuditVerdict::kMalformed);
  EXPECT_EQ(ledger_.entries()[0].detail, "response payload undecodable");
}

TEST_F(AuditTest, ChunkSubstitutionInFlightRecordedAsBadEvidence) {
  auto [txn, data] = watched_object();
  // The adversary swaps the served chunk bytes; the provider's signature
  // covers the hash of the REAL chunk, so the evidence check catches it.
  network_.set_adversary("bob", "auditor", [](const net::Envelope& envelope) {
    nr::NrMessage message = nr::NrMessage::decode(envelope.payload);
    common::BinaryReader r(message.payload);
    const std::uint64_t index = r.u64();
    Bytes chunk = r.bytes();
    const Bytes proof = r.bytes();
    chunk[0] ^= 0x80;
    common::BinaryWriter w;
    w.u64(index);
    w.bytes(chunk);
    w.bytes(proof);
    message.payload = w.take();
    net::AdversaryAction action;
    action.kind = net::AdversaryAction::Kind::kModify;
    action.modified_payload = message.encode();
    return action;
  });

  ASSERT_TRUE(auditor_.challenge(txn, 7));
  network_.run();

  ASSERT_EQ(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries()[0].verdict, AuditVerdict::kBadEvidence);
}

TEST_F(AuditTest, DuplicateAndOutOfRangeChallengesRefused) {
  auto [txn, data] = watched_object();
  EXPECT_FALSE(auditor_.challenge("unknown-txn", 0));
  EXPECT_FALSE(auditor_.challenge(txn, kChunks));  // out of range
  EXPECT_TRUE(auditor_.challenge(txn, 1));
  EXPECT_FALSE(auditor_.challenge(txn, 1));  // already in flight
  network_.run();
  EXPECT_TRUE(auditor_.challenge(txn, 1));  // concluded: may re-challenge
  network_.run();
  EXPECT_EQ(auditor_.counters().verified, 2u);
}

TEST_F(AuditTest, SchedulerRespectsConcurrencyCap) {
  auto [txn, data] = watched_object();
  AuditScheduler scheduler(network_, auditor_,
                           {.sampling_rate = 1.0,  // wants all 64 each round
                            .max_outstanding = 4,
                            .seed = 13,
                            .max_rounds = 1});
  scheduler.start();
  network_.run();

  EXPECT_LE(scheduler.challenges_issued(), 4u);
  EXPECT_GT(scheduler.challenges_suppressed(), 0u);
  EXPECT_EQ(scheduler.challenges_issued() + scheduler.challenges_suppressed(),
            kChunks);
}

TEST_F(AuditTest, SchedulerStopAbandonsArmedTimer) {
  auto [txn, data] = watched_object();
  AuditScheduler scheduler(network_, auditor_, {.sampling_rate = 0.05});
  scheduler.start();
  scheduler.stop();
  network_.run();
  EXPECT_EQ(scheduler.rounds(), 0u);
  EXPECT_EQ(ledger_.size(), 0u);
}

TEST_F(AuditTest, ReportAggregatesDetectionAndTraffic) {
  auto [txn, data] = watched_object();
  Bytes tampered = data;
  tampered[8 * kChunkSize] ^= 0x10;
  ASSERT_TRUE(bob_.tamper(txn, tampered));
  const SimTime tampered_at = network_.now();

  AuditScheduler scheduler(network_, auditor_,
                           {.sampling_rate = 0.05, .seed = 3,
                            .max_rounds = 3});
  scheduler.start();
  network_.run();

  const AuditReport report = build_report(ledger_, bob_.store().fault_log(),
                                          network_.stats());
  EXPECT_EQ(report.entries, ledger_.size());
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.faults_detected, 1u);  // recomputed proofs: any sample
  EXPECT_DOUBLE_EQ(report.detection_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.false_negative_rate, 0.0);
  EXPECT_EQ(report.injected_by_kind.at("admin-tamper"), 1u);
  EXPECT_EQ(report.detected_by_kind.at("admin-tamper"), 1u);
  ASSERT_EQ(report.detection_latency.count, 1u);
  EXPECT_GT(report.detection_latency.p50_ms, 0.0);

  // Traffic attribution: challenges + responses on "nr.audit", the store
  // exchange on "nr"; the overhead ratio relates the two.
  EXPECT_GT(report.audit_messages, 0u);
  EXPECT_GT(report.audit_bytes, 0u);
  EXPECT_GT(report.protocol_bytes, 0u);
  EXPECT_GT(report.audit_overhead, 0.0);
  const net::TopicStats audit_topic = network_.stats().topic("nr.audit");
  EXPECT_EQ(report.audit_bytes, audit_topic.bytes_sent);
  EXPECT_EQ(network_.stats().bytes_sent,
            report.audit_bytes + report.protocol_bytes);

  // Detection latency measured from the logged injection time.
  const AuditEntry& first_flag = ledger_.entries()[0];
  EXPECT_GE(first_flag.concluded_at, tampered_at);
}

/// A dynamic object under aggregate audit: the client's α vector and the
/// auditor's must be one and the same.
class DynAuditTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDynChunk = 64;
  static constexpr std::size_t kDynChunks = 40;

  DynAuditTest()
      : network_(std::uint64_t{707}),
        rng_(std::uint64_t{708}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")),
        auditor_id_(pooled("auditor")),
        alice_("alice", network_, alice_id_, rng_,
               crypto::Drbg(std::uint64_t{709}).bytes(32)),
        bob_("bob", network_, bob_id_, rng_),
        auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    bob_.trust_peer("auditor", auditor_id_.public_key());
    auditor_.trust_peer("bob", bob_id_.public_key());
    crypto::Drbg data_rng(std::uint64_t{710});
    alice_.store_dyn("bob", "", "dyn-doc",
                     data_rng.bytes(kDynChunks * kDynChunk), kDynChunk);
    network_.run();
  }

  const dyn::DynClientActor::DynObject& object() const {
    return *alice_.object("dyn-doc");
  }

  /// A target built from the client's pieces, α left to the caller.
  DynAuditTarget target_without_alphas() const {
    DynAuditTarget target;
    target.txn_id = object().txn_id;
    target.provider = "bob";
    target.object_key = "dyn-doc";
    target.chunk_size = kDynChunk;
    target.tag_key = object().tag_key;
    target.chain = &object().chain;
    return target;
  }

  /// Challenges the object once and returns the verdict recorded for it.
  AuditVerdict audit_once() {
    EXPECT_TRUE(auditor_.challenge_aggregate(object().txn_id, 16));
    network_.run();
    EXPECT_FALSE(ledger_.entries().empty());
    return ledger_.entries().back().verdict;
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  pki::Identity auditor_id_;
  AuditLedger ledger_;
  dyn::DynClientActor alice_;
  dyn::DynProviderActor bob_;
  AuditorActor auditor_;
};

TEST_F(DynAuditTest, AggregateAuditsStayVerifiedAcrossMutations) {
  ASSERT_TRUE(auditor_.watch_dyn(alice_, "dyn-doc"));
  // The auditor holds the client's α vector, not a second derivation.
  const DynAuditTarget& target = auditor_.dyn_targets().at(object().txn_id);
  ASSERT_NE(object().alphas, nullptr);
  EXPECT_EQ(target.alphas, object().alphas);
  EXPECT_EQ(object().alphas->size(), dyn::sectors_per_chunk(kDynChunk));

  EXPECT_EQ(audit_once(), AuditVerdict::kVerified);
  crypto::Drbg data_rng(std::uint64_t{711});
  ASSERT_TRUE(alice_.update("dyn-doc", 7, data_rng.bytes(kDynChunk)));
  network_.run();
  EXPECT_EQ(audit_once(), AuditVerdict::kVerified);
  ASSERT_TRUE(alice_.insert("dyn-doc", 20, data_rng.bytes(kDynChunk)));
  network_.run();
  EXPECT_EQ(audit_once(), AuditVerdict::kVerified);
  ASSERT_TRUE(alice_.erase("dyn-doc", 3));
  network_.run();
  EXPECT_EQ(audit_once(), AuditVerdict::kVerified);
  ASSERT_TRUE(alice_.append_chunk("dyn-doc", data_rng.bytes(kDynChunk / 2)));
  network_.run();
  EXPECT_EQ(audit_once(), AuditVerdict::kVerified);
  EXPECT_EQ(object().chain.head_version(), 5u);
  EXPECT_EQ(auditor_.counters().verified, 5u);
  EXPECT_EQ(auditor_.counters().flagged, 0u);

  // A tampered store is still caught, every chunk challenged.
  auto record = bob_.store().get("dyn-doc");
  ASSERT_TRUE(record.has_value());
  Bytes tampered = record->data.to_bytes();
  tampered[11 * kDynChunk + 2] ^= 0x01;
  ASSERT_TRUE(bob_.store().tamper("dyn-doc", tampered));
  ASSERT_TRUE(auditor_.challenge_aggregate(object().txn_id, kDynChunks));
  network_.run();
  EXPECT_EQ(ledger_.entries().back().verdict, AuditVerdict::kMismatch);
  EXPECT_EQ(auditor_.counters().flagged, 1u);
}

TEST_F(DynAuditTest, RegistrationDerivesAlphasOnlyWhenNoneSupplied) {
  // None supplied: the auditor derives the same vector itself.
  ASSERT_TRUE(auditor_.register_dyn_target(target_without_alphas()));
  const DynAuditTarget& derived = auditor_.dyn_targets().at(object().txn_id);
  ASSERT_NE(derived.alphas, nullptr);
  EXPECT_NE(derived.alphas, object().alphas);
  EXPECT_EQ(*derived.alphas, *object().alphas);
  EXPECT_EQ(audit_once(), AuditVerdict::kVerified);

  // Supplied: kept as given.
  DynAuditTarget shared = target_without_alphas();
  shared.alphas = object().alphas;
  ASSERT_TRUE(auditor_.register_dyn_target(shared));
  EXPECT_EQ(auditor_.dyn_targets().at(object().txn_id).alphas,
            object().alphas);

  // A vector for another chunk size is refused.
  DynAuditTarget wrong = target_without_alphas();
  wrong.alphas = std::make_shared<const std::vector<std::uint64_t>>(
      object().tag_key.alphas(dyn::sectors_per_chunk(2 * kDynChunk)));
  EXPECT_FALSE(auditor_.register_dyn_target(wrong));
  EXPECT_EQ(auditor_.dyn_targets().at(object().txn_id).alphas,
            object().alphas);
}

TEST(AuditReportTest, VerdictTalliesSumToEntries) {
  AuditLedger ledger;
  for (std::uint8_t v = 1; v <= 8; ++v) {
    AuditEntry entry;
    entry.verdict = static_cast<AuditVerdict>(v);
    ledger.append(entry);
  }
  const AuditReport r = build_report(ledger, {}, net::NetworkStats{});
  EXPECT_EQ(r.entries, 8u);
  EXPECT_EQ(r.verified + r.mismatches + r.bad_evidence + r.malformed +
                r.no_responses + r.stale_versions + r.rollbacks + r.forks,
            r.entries);
  EXPECT_EQ(r.forks, 1u);
}

// Two independently constructed worlds with identical seeds replay the
// same challenges and reach byte-identical ledger heads.
TEST(AuditDeterminismTest, IdenticalSeedsProduceIdenticalLedgers) {
  const auto run_world = [] {
    net::Network network(404);
    crypto::Drbg rng(std::uint64_t{505});
    pki::Identity alice_id = pooled("alice");
    pki::Identity bob_id = pooled("bob");
    pki::Identity ttp_id = pooled("ttp");
    pki::Identity auditor_id = pooled("auditor");
    AuditLedger ledger;
    nr::ClientActor alice("alice", network, alice_id, rng);
    nr::ProviderActor bob("bob", network, bob_id, rng);
    nr::TtpActor ttp("ttp", network, ttp_id, rng);
    AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
    alice.trust_peer("bob", bob_id.public_key());
    alice.trust_peer("ttp", ttp_id.public_key());
    bob.trust_peer("alice", alice_id.public_key());
    bob.trust_peer("auditor", auditor_id.public_key());
    ttp.trust_peer("alice", alice_id.public_key());
    ttp.trust_peer("bob", bob_id.public_key());
    auditor.trust_peer("bob", bob_id.public_key());

    crypto::Drbg data_rng(std::uint64_t{kChunks * kChunkSize});
    const Bytes data = data_rng.bytes(kChunkSize * kChunks);
    const std::string txn =
        alice.store_chunked("bob", "ttp", "det-object", data, kChunkSize);
    network.run();
    EXPECT_TRUE(auditor.watch(alice, txn));
    AuditScheduler scheduler(network, auditor,
                             {.sampling_rate = 0.10, .seed = 21,
                              .max_rounds = 4});
    scheduler.start();
    network.run();
    return std::make_pair(ledger.head(), ledger.size());
  };
  const auto [head_a, size_a] = run_world();
  const auto [head_b, size_b] = run_world();
  EXPECT_GT(size_a, 0u);
  EXPECT_EQ(size_a, size_b);
  EXPECT_EQ(head_a, head_b);
}

// Fault-log timestamps are the executing event's time, so a fault-kind
// world run with parallel rounds logs the same injections at the same
// instants — and reports the same detection latencies — as the serial run.
TEST(AuditDeterminismTest, FaultLogAndReportInvariantAcrossShardsAndWorkers) {
  const auto run_world = [](net::NetworkOptions options) {
    net::Network network(404, options);
    crypto::Drbg rng(std::uint64_t{505});
    pki::Identity alice_id = pooled("alice");
    pki::Identity bob_id = pooled("bob");
    pki::Identity auditor_id = pooled("auditor");
    AuditLedger ledger;
    nr::ClientActor alice("alice", network, alice_id, rng);
    nr::ProviderActor bob("bob", network, bob_id, rng);
    AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
    alice.trust_peer("bob", bob_id.public_key());
    bob.trust_peer("alice", alice_id.public_key());
    bob.trust_peer("auditor", auditor_id.public_key());
    auditor.trust_peer("bob", bob_id.public_key());

    for (int i = 0; i < 3; ++i) {
      crypto::Drbg data_rng(std::uint64_t{100u + static_cast<unsigned>(i)});
      const std::string txn = alice.store_chunked(
          "bob", "", "obj-" + std::to_string(i),
          data_rng.bytes(kChunkSize * 16), kChunkSize);
      network.run();
      EXPECT_TRUE(auditor.watch(alice, txn));
    }
    bob.store().set_fault_policy({storage::FaultKind::kBitFlip, 0.5});
    AuditScheduler scheduler(network, auditor,
                             {.period = common::kSecond,
                              .sampling_rate = 0.25,
                              .max_outstanding = 64,
                              .seed = 17,
                              .max_rounds = 4});
    scheduler.start();
    network.run();

    std::vector<std::string> lines;
    for (const storage::FaultEvent& fault : bob.store().fault_log()) {
      lines.push_back(fault.key + "/v" + std::to_string(fault.version) +
                      "@" + std::to_string(fault.at));
    }
    const AuditReport r =
        build_report(ledger, bob.store().fault_log(), network.stats());
    lines.push_back("detected " + std::to_string(r.faults_detected) + "/" +
                    std::to_string(r.faults_injected) + " p50 " +
                    std::to_string(r.detection_latency.p50_ms) + " p99 " +
                    std::to_string(r.detection_latency.p99_ms) + " max " +
                    std::to_string(r.detection_latency.max_ms));
    return lines;
  };
  const std::vector<std::string> serial = run_world({1, 1});
  ASSERT_GT(serial.size(), 1u);  // at least one fault plus the report line
  EXPECT_EQ(run_world({2, 2}), serial);
}

}  // namespace
}  // namespace tpnr::audit
