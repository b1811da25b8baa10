// Continuous-audit detection experiment: how fast does the audit subsystem
// (src/audit/) catch at-rest faults, at what bandwidth cost?
//
// Sweeps sampling rate × object count against an admin-tampered provider,
// reporting detection-latency percentiles and bytes-on-wire vs the naive
// baseline of re-downloading every object every round; then measures the
// per-FaultKind detection rate and the false-negative behaviour of the
// equivocating provider under bounded sampling.
#include <benchmark/benchmark.h>

#include "audit/auditor.h"
#include "audit/report.h"
#include "audit/scheduler.h"
#include "bench_util.h"
#include "crypto/counters.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/ttp.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kChunkSize = 2 << 10;  // 2 KiB
constexpr std::size_t kChunks = 32;          // 64 KiB objects
constexpr std::size_t kObjectSize = kChunkSize * kChunks;
constexpr std::uint64_t kRounds = 8;

struct AuditWorld {
  explicit AuditWorld(std::uint64_t seed)
      : network(seed, bench::options_from_env()),
        rng(seed + 1),
        alice_id(bench::identity("alice")),
        bob_id(bench::identity("bob")),
        auditor_id(bench::identity("auditor")),
        alice("alice", network, alice_id, rng),
        bob("bob", network, bob_id, rng),
        auditor("auditor", network, auditor_id, rng, ledger) {
    alice.trust_peer("bob", bob_id.public_key());
    bob.trust_peer("alice", alice_id.public_key());
    bob.trust_peer("auditor", auditor_id.public_key());
    auditor.trust_peer("bob", bob_id.public_key());
  }

  /// Stores `count` chunked objects and watches each. Returns the txn ids.
  std::vector<std::string> populate(std::size_t count,
                                    std::size_t versions = 1) {
    std::vector<std::string> txns;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string key = "obj-" + std::to_string(i);
      std::string txn;
      for (std::size_t v = 0; v < versions; ++v) {
        crypto::Drbg data_rng(std::uint64_t{100 * i + v});
        txn = alice.store_chunked("bob", "", key,
                                  data_rng.bytes(kObjectSize), kChunkSize);
        network.run();
      }
      if (!auditor.watch(alice, txn)) {
        std::fprintf(stderr, "watch failed for %s\n", key.c_str());
      }
      txns.push_back(txn);
    }
    return txns;
  }

  /// Rewrites one byte of the object behind `txn` (admin tamper).
  void tamper_one_byte(const std::string& txn) {
    const auto* record = bob.transaction(txn);
    auto stored = bob.store().get(record->object_key);
    common::Bytes tampered = stored->data.to_bytes();
    tampered[tampered.size() / 2] ^= 0x01;
    bob.tamper(txn, tampered);
  }

  net::Network network;  // constructed with options_from_env() above
  crypto::Drbg rng;
  pki::Identity alice_id;
  pki::Identity bob_id;
  pki::Identity auditor_id;
  audit::AuditLedger ledger;
  nr::ClientActor alice;
  nr::ProviderActor bob;
  audit::AuditorActor auditor;
};

audit::AuditReport run_sweep_point(double sampling_rate,
                                   std::size_t object_count) {
  AuditWorld world(11);
  const auto txns = world.populate(object_count);
  world.tamper_one_byte(txns[0]);

  audit::AuditScheduler scheduler(world.network, world.auditor,
                                  {.period = common::kSecond,
                                   .sampling_rate = sampling_rate,
                                   .max_outstanding = 256,
                                   .seed = 17,
                                   .max_rounds = kRounds});
  scheduler.start();
  world.network.run();
  return audit::build_report(world.ledger, world.bob.store().fault_log(),
                             world.network.stats());
}

void print_sampling_sweep() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"sampling", "objects", "challenges", "p50 (ms)", "p99 (ms)",
                  "detect rate", "audit KB", "full-download KB", "ratio"});
  for (const double rate : {0.05, 0.25}) {
    for (const std::size_t objects : {std::size_t{1}, std::size_t{4}}) {
      const audit::AuditReport r = run_sweep_point(rate, objects);
      // The naive alternative: re-download every object every round.
      const auto full_download_bytes =
          static_cast<std::uint64_t>(kRounds * objects * kObjectSize);
      const double ratio = static_cast<double>(r.audit_bytes) /
                           static_cast<double>(full_download_bytes);
      rows.push_back({bench::fmt(rate), std::to_string(objects),
                      std::to_string(r.entries),
                      bench::fmt(r.detection_latency.p50_ms),
                      bench::fmt(r.detection_latency.p99_ms),
                      bench::fmt(r.detection_rate),
                      bench::fmt(static_cast<double>(r.audit_bytes) / 1024.0,
                                 1),
                      bench::fmt(static_cast<double>(full_download_bytes) /
                                     1024.0,
                                 1),
                      bench::fmt(ratio, 4)});
      bench::JsonLine("audit_detection")
          .field("sampling_rate", rate)
          .field("objects", static_cast<std::uint64_t>(objects))
          .field("rounds", kRounds)
          .field("challenges", r.entries)
          .field("detection_p50_ms", r.detection_latency.p50_ms, 2)
          .field("detection_p99_ms", r.detection_latency.p99_ms, 2)
          .field("detection_rate", r.detection_rate)
          .field("audit_bytes", r.audit_bytes)
          .field("full_download_bytes", full_download_bytes)
          .field("audit_vs_full_download", ratio)
          .print();
    }
  }
  bench::print_table(
      "audit detection sweep: 1-byte admin tamper, 64 KiB objects, " +
          std::to_string(kRounds) + " rounds at 1 s period",
      rows);
}

void print_fault_kind_rates() {
  struct Scenario {
    const char* label;
    storage::FaultKind kind;
  };
  const std::vector<Scenario> scenarios = {
      {"bit-flip", storage::FaultKind::kBitFlip},
      {"truncate", storage::FaultKind::kTruncate},
      {"overwrite", storage::FaultKind::kOverwrite},
      {"stale-version", storage::FaultKind::kStaleVersion},
      {"loss", storage::FaultKind::kLoss},
  };
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"fault kind", "injected", "detected", "rate", "p50 (ms)"});
  for (const Scenario& s : scenarios) {
    AuditWorld world(23);
    // Two stored versions so kStaleVersion has history to roll back to.
    world.populate(1, /*versions=*/2);
    world.bob.store().set_fault_policy({s.kind, /*probability=*/0.5});
    audit::AuditScheduler scheduler(world.network, world.auditor,
                                    {.sampling_rate = 0.25,
                                     .seed = 29,
                                     .max_rounds = kRounds});
    scheduler.start();
    world.network.run();
    const audit::AuditReport r = audit::build_report(
        world.ledger, world.bob.store().fault_log(), world.network.stats());
    rows.push_back({s.label, std::to_string(r.faults_injected),
                    std::to_string(r.faults_detected),
                    bench::fmt(r.detection_rate),
                    bench::fmt(r.detection_latency.p50_ms)});
    bench::JsonLine("audit_detection")
        .field("fault_kind", s.label)
        .field("fault_probability", 0.5)
        .field("faults_injected", r.faults_injected)
        .field("faults_detected", r.faults_detected)
        .field("detection_rate", r.detection_rate)
        .field("detection_p50_ms", r.detection_latency.p50_ms, 2)
        .print();
  }
  bench::print_table(
      "per-FaultKind detection (p=0.5 per read, 25% sampling, 8 rounds)",
      rows);
}

void print_equivocation_false_negatives() {
  // The strongest audit adversary: proofs served from the original tree, so
  // only samples that LAND on the tampered chunk flag it. With one bad
  // chunk in 32 and 25% sampling, some bounded runs miss it — exactly the
  // false-negative budget the sampling rate buys.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"sampling", "runs", "detected runs", "false-negative rate"});
  for (const double rate : {0.05, 0.25, 1.0}) {
    int detected_runs = 0;
    constexpr int kRuns = 10;
    for (int run = 0; run < kRuns; ++run) {
      AuditWorld world(31 + static_cast<std::uint64_t>(run));
      nr::ProviderBehavior behavior;
      behavior.equivocate_chunk_proofs = true;
      world.bob.set_behavior(behavior);
      const auto txns = world.populate(1);
      world.tamper_one_byte(txns[0]);
      audit::AuditScheduler scheduler(
          world.network, world.auditor,
          {.sampling_rate = rate,
           .seed = 37 + static_cast<std::uint64_t>(run),
           .max_rounds = 4});
      scheduler.start();
      world.network.run();
      if (world.auditor.counters().flagged > 0) ++detected_runs;
    }
    rows.push_back({bench::fmt(rate), std::to_string(kRuns),
                    std::to_string(detected_runs),
                    bench::fmt(1.0 - static_cast<double>(detected_runs) /
                                         kRuns)});
    bench::JsonLine("audit_detection")
        .field("scenario", "equivocating_provider")
        .field("sampling_rate", rate)
        .field("runs", kRuns)
        .field("detected_runs", detected_runs)
        .field("false_negative_rate",
               1.0 - static_cast<double>(detected_runs) / kRuns)
        .print();
  }
  bench::print_table(
      "equivocating provider: 1 tampered chunk of 32, 4 rounds, 10 seeds",
      rows);
}

void BM_ChallengeVerifyRoundTrip(benchmark::State& state) {
  AuditWorld world(41);
  const auto txns = world.populate(1);
  std::size_t i = 0;
  for (auto _ : state) {
    world.auditor.challenge(txns[0], i++ % kChunks);
    world.network.run();
  }
  state.SetLabel("RSA-1024 evidence + Merkle proof per audit");
}
BENCHMARK(BM_ChallengeVerifyRoundTrip);

void BM_LedgerAppend(benchmark::State& state) {
  audit::AuditLedger ledger;
  audit::AuditEntry entry;
  entry.auditor = "auditor";
  entry.provider = "bob";
  entry.txn_id = "txn";
  entry.object_key = "obj";
  entry.verdict = audit::AuditVerdict::kVerified;
  entry.detail = "chunk verified against the signed root";
  for (auto _ : state) {
    ledger.append(entry);
    benchmark::DoNotOptimize(ledger.head());
  }
}
BENCHMARK(BM_LedgerAppend);

void BM_LedgerVerifyChain(benchmark::State& state) {
  audit::AuditLedger ledger;
  audit::AuditEntry entry;
  entry.verdict = audit::AuditVerdict::kVerified;
  for (int i = 0; i < 1000; ++i) ledger.append(entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.verify_chain());
  }
  state.SetLabel("1000 entries");
}
BENCHMARK(BM_LedgerVerifyChain);

// Crypto-acceleration accounting for everything the experiments above did.
// Deliberately a SEPARATE record from "audit_detection": those records are
// determinism-gated (byte-diffed against tests/golden/ and across shard and
// worker counts) and counter values are timing-free but config-dependent,
// so they must never be folded into a gated record.
void print_crypto_counters() {
  const crypto::CounterSnapshot snap = crypto::counters().snapshot();
  bench::JsonLine json("crypto_counters");
  json.field("scalar_blocks", snap.scalar_blocks);
  json.field("mb_lane_blocks", snap.mb_lane_blocks);
  json.field("mb_batches", snap.mb_batches);
  json.field("hmac_midstate_hits", snap.hmac_midstate_hits);
  json.field("tree_builds", snap.tree_builds);
  json.field("tree_rebuilds_avoided", snap.tree_rebuilds_avoided);
  json.field("verify_memo_hits", snap.verify_memo_hits);
  json.print();
}

}  // namespace

int main(int argc, char** argv) {
  print_sampling_sweep();
  print_fault_kind_rates();
  print_equivocation_false_negatives();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_crypto_counters();
  tpnr::bench::emit_process_meta("audit_detection");
  return 0;
}
