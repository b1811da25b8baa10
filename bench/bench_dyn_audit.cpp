// Dynamic-data audit experiment: what do compact aggregated proofs buy over
// legacy per-chunk audits, and what does a chunk-level mutation cost against
// the static protocol's only alternative (re-uploading the whole object)?
//
// Sweeps object size × challenge mode with a fixed mutation mix in between,
// reporting bytes on the audit topic (challenge + response + evidence) and
// on the mutation path. The aggregated mode answers c challenged chunks
// with ONE (σ, μ) pair plus one batched Merkle proof, so its response size
// is near-constant in the chunk size — the headline reduction the CI gate
// enforces (see .github/workflows/ci.yml: agg ≤ 0.05× legacy at n ≥ 64,
// ≥ 20× reduction on the 1024-chunk object).
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "audit/auditor.h"
#include "audit/report.h"
#include "audit/scheduler.h"
#include "bench_util.h"
#include "dyn/client.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/provider.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using common::Bytes;

constexpr std::size_t kChunkSize = 8 << 10;  // 8 KiB, the acceptance object
constexpr std::uint64_t kChallenged = 64;    // c: chunks per audit round
constexpr std::uint64_t kRounds = 4;

/// The mutation mix both modes pay for between store and audit:
/// 3 updates, 3 appends, 2 erases (net chunk count unchanged +1).
constexpr std::size_t kUpdates = 3;
constexpr std::size_t kAppends = 3;
constexpr std::size_t kErases = 2;

Bytes object_bytes(std::size_t chunks, std::uint64_t seed) {
  crypto::Drbg rng(seed);
  return rng.bytes(chunks * kChunkSize);
}

struct ModeResult {
  std::uint64_t store_bytes = 0;     ///< initial upload traffic
  std::uint64_t mutation_bytes = 0;  ///< the mix (or legacy re-uploads)
  std::uint64_t audit_bytes = 0;     ///< nr.audit topic, all rounds
  std::uint64_t challenges = 0;
  std::uint64_t verified = 0;
  std::uint64_t flagged = 0;
};

/// Aggregate mode: DynClientActor/DynProviderActor, chunk-level mutations,
/// one compact aggregated challenge per round through the AuditorActor.
ModeResult run_aggregate(std::size_t chunks) {
  net::Network network(std::uint64_t{1201}, bench::options_from_env());
  crypto::Drbg rng(std::uint64_t{1202});
  pki::Identity alice_id = bench::pooled_identity("alice", "alice");
  pki::Identity bob_id = bench::pooled_identity("bob", "bob");
  pki::Identity auditor_id = bench::pooled_identity("auditor", "auditor");
  audit::AuditLedger ledger;
  dyn::DynClientActor alice("alice", network, alice_id, rng,
                            crypto::Drbg(std::uint64_t{1203}).bytes(32));
  dyn::DynProviderActor bob("bob", network, bob_id, rng);
  audit::AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
  alice.trust_peer("bob", bob_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("auditor", auditor_id.public_key());
  auditor.trust_peer("bob", bob_id.public_key());

  ModeResult result;
  alice.store_dyn("bob", "", "obj", object_bytes(chunks, chunks), kChunkSize);
  network.run();
  result.store_bytes = network.stats().bytes_delivered;

  crypto::Drbg mix(std::uint64_t{chunks + 1});
  for (std::size_t i = 0; i < kUpdates; ++i) {
    alice.update("obj", mix.uniform(chunks), mix.bytes(kChunkSize));
    network.run();
  }
  for (std::size_t i = 0; i < kAppends; ++i) {
    alice.append_chunk("obj", mix.bytes(kChunkSize));
    network.run();
  }
  for (std::size_t i = 0; i < kErases; ++i) {
    alice.erase("obj", mix.uniform(chunks));
    network.run();
  }
  result.mutation_bytes =
      network.stats().bytes_delivered - result.store_bytes;

  auditor.watch_dyn(alice, "obj");
  const std::string txn = alice.object("obj")->txn_id;
  audit::AuditScheduler scheduler(network, auditor,
                                  {.period = common::kSecond,
                                   .max_outstanding = 16,
                                   .seed = 1204,
                                   .max_rounds = kRounds,
                                   .aggregate_count = kChallenged});
  scheduler.start();
  network.run();

  result.audit_bytes = network.stats().topic("nr.audit").bytes_delivered;
  result.challenges = auditor.counters().challenges;
  result.verified = auditor.counters().verified;
  result.flagged = auditor.counters().flagged;
  return result;
}

/// Legacy mode: the static chunked protocol over the SAME data. A mutation
/// can only be a full re-upload, and each audit round fetches c chunks with
/// one chunk + one Merkle path each.
ModeResult run_legacy(std::size_t chunks) {
  net::Network network(std::uint64_t{1301}, bench::options_from_env());
  crypto::Drbg rng(std::uint64_t{1302});
  pki::Identity alice_id = bench::pooled_identity("alice", "alice");
  pki::Identity bob_id = bench::pooled_identity("bob", "bob");
  pki::Identity auditor_id = bench::pooled_identity("auditor", "auditor");
  audit::AuditLedger ledger;
  nr::ClientActor alice("alice", network, alice_id, rng);
  nr::ProviderActor bob("bob", network, bob_id, rng);
  audit::AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
  alice.trust_peer("bob", bob_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("auditor", auditor_id.public_key());
  auditor.trust_peer("bob", bob_id.public_key());

  ModeResult result;
  Bytes data = object_bytes(chunks, chunks);
  alice.store_chunked("bob", "", "obj", data, kChunkSize);
  network.run();
  result.store_bytes = network.stats().bytes_delivered;

  // The same mix, as the static protocol must express it: every mutation is
  // a fresh store of the whole object (chunk-level ops do not exist).
  crypto::Drbg mix(std::uint64_t{chunks + 1});
  std::string txn;
  for (std::size_t i = 0; i < kUpdates + kAppends + kErases; ++i) {
    // Cheapest possible edit (keep the object size; content differs).
    data[mix.uniform(data.size())] ^= 0x01;
    txn = alice.store_chunked("bob", "", "obj", data, kChunkSize);
    network.run();
  }
  result.mutation_bytes =
      network.stats().bytes_delivered - result.store_bytes;

  auditor.watch(alice, txn);
  // c distinct chunk challenges per round, strided over the object so every
  // round covers the same count the aggregate mode samples.
  const std::size_t stride = chunks / kChallenged;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kChallenged; ++i) {
      auditor.challenge(txn, (i * stride + round) % chunks);
    }
    network.run();
  }

  result.audit_bytes = network.stats().topic("nr.audit").bytes_delivered;
  result.challenges = auditor.counters().challenges;
  result.verified = auditor.counters().verified;
  result.flagged = auditor.counters().flagged;
  return result;
}

void print_mode_sweep() {
  // TPNR_DYN_MAX_CHUNKS caps the sweep (the determinism regression runs the
  // small instance 5x; determinism does not depend on workload size).
  std::size_t max_chunks = 1024;
  if (const char* env = std::getenv("TPNR_DYN_MAX_CHUNKS")) {
    max_chunks = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"chunks", "object MB", "mode", "mutate KB", "audit KB",
                  "audit KB/round", "reduction", "verified"});
  for (const std::size_t chunks :
       {std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
    if (chunks > max_chunks) continue;
    const ModeResult legacy = run_legacy(chunks);
    const ModeResult agg = run_aggregate(chunks);
    const double reduction = static_cast<double>(legacy.audit_bytes) /
                             static_cast<double>(agg.audit_bytes);
    const double object_mb =
        static_cast<double>(chunks * kChunkSize) / (1024.0 * 1024.0);
    const auto emit_row = [&](const char* mode, const ModeResult& r,
                              const std::string& red) {
      rows.push_back(
          {std::to_string(chunks), bench::fmt(object_mb, 1), mode,
           bench::fmt(static_cast<double>(r.mutation_bytes) / 1024.0, 1),
           bench::fmt(static_cast<double>(r.audit_bytes) / 1024.0, 1),
           bench::fmt(static_cast<double>(r.audit_bytes) / kRounds / 1024.0,
                      1),
           red, std::to_string(r.verified)});
    };
    emit_row("legacy", legacy, "1.0x");
    emit_row("aggregate", agg, bench::fmt(reduction, 1) + "x");

    bench::JsonLine("dyn_audit")
        .field("chunks", static_cast<std::uint64_t>(chunks))
        .field("chunk_size", static_cast<std::uint64_t>(kChunkSize))
        .field("challenged_per_round", kChallenged)
        .field("rounds", kRounds)
        .field("legacy_audit_bytes", legacy.audit_bytes)
        .field("agg_audit_bytes", agg.audit_bytes)
        .field("agg_vs_legacy", static_cast<double>(agg.audit_bytes) /
                                    static_cast<double>(legacy.audit_bytes))
        .field("reduction_x", reduction, 1)
        .field("legacy_mutation_bytes", legacy.mutation_bytes)
        .field("dyn_mutation_bytes", agg.mutation_bytes)
        .field("mutation_reduction_x",
               static_cast<double>(legacy.mutation_bytes) /
                   static_cast<double>(agg.mutation_bytes),
               1)
        .field("legacy_verified", legacy.verified)
        .field("agg_verified", agg.verified)
        .field("legacy_flagged", legacy.flagged)
        .field("agg_flagged", agg.flagged)
        // CI acceptance gates (ci.yml greps these booleans).
        .field("meets_compact_gate", agg.audit_bytes * 20 <=
                                         legacy.audit_bytes)  // <= 0.05x
        .field("meets_20x", reduction >= 20.0)
        .print();
  }
  bench::print_table(
      "dynamic audit sweep: c=" + std::to_string(kChallenged) +
          " challenged chunks x " + std::to_string(kRounds) +
          " rounds, 8 KiB chunks, mutation mix 3 upd + 3 app + 2 del",
      rows);
}

void BM_AggregateAuditRoundTrip(benchmark::State& state) {
  net::Network network(std::uint64_t{1401}, bench::options_from_env());
  crypto::Drbg rng(std::uint64_t{1402});
  pki::Identity alice_id = bench::pooled_identity("alice", "alice");
  pki::Identity bob_id = bench::pooled_identity("bob", "bob");
  pki::Identity auditor_id = bench::pooled_identity("auditor", "auditor");
  audit::AuditLedger ledger;
  dyn::DynClientActor alice("alice", network, alice_id, rng,
                            crypto::Drbg(std::uint64_t{1403}).bytes(32));
  dyn::DynProviderActor bob("bob", network, bob_id, rng);
  audit::AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
  alice.trust_peer("bob", bob_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("auditor", auditor_id.public_key());
  auditor.trust_peer("bob", bob_id.public_key());
  alice.store_dyn("bob", "", "obj", object_bytes(256, 256), kChunkSize);
  network.run();
  auditor.watch_dyn(alice, "obj");
  const std::string txn = alice.object("obj")->txn_id;
  for (auto _ : state) {
    auditor.challenge_aggregate(txn, kChallenged);
    network.run();
  }
  state.SetLabel("256x8KiB object, c=64: challenge+verify incl. evidence");
}
BENCHMARK(BM_AggregateAuditRoundTrip);

void BM_DynMutationRoundTrip(benchmark::State& state) {
  net::Network network(std::uint64_t{1501}, bench::options_from_env());
  crypto::Drbg rng(std::uint64_t{1502});
  pki::Identity alice_id = bench::pooled_identity("alice", "alice");
  pki::Identity bob_id = bench::pooled_identity("bob", "bob");
  dyn::DynClientActor alice("alice", network, alice_id, rng,
                            crypto::Drbg(std::uint64_t{1503}).bytes(32));
  dyn::DynProviderActor bob("bob", network, bob_id, rng);
  alice.trust_peer("bob", bob_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  alice.store_dyn("bob", "", "obj", object_bytes(256, 256), kChunkSize);
  network.run();
  crypto::Drbg mix(std::uint64_t{1504});
  for (auto _ : state) {
    alice.update("obj", mix.uniform(256), mix.bytes(kChunkSize));
    network.run();
  }
  state.SetLabel("one 8 KiB chunk update: sign, commit, countersign");
}
BENCHMARK(BM_DynMutationRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  print_mode_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("dyn_audit");
  return 0;
}
