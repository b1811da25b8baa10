// Dynamic data end to end — the src/dyn/ extension in one narrated run.
//
// A client stores a chunked object under a client-signed, provider-
// countersigned VersionRecord, mutates it chunk-by-chunk (each op advances
// the hash-linked version chain), and an auditor spot-checks the provider
// with compact aggregated challenges: one (σ, μ) pair plus one batched
// Merkle proof per audit, regardless of how many chunks are sampled. The
// provider then mounts a rollback attack — old bytes under a version number
// claiming currency — which the next audit classifies, and the TTP settles
// both a freshness dispute and a repudiation attempt by walking the chain.
//
// Build & run:  ./build/examples/dynamic_objects
#include <cstdio>

#include "audit/auditor.h"
#include "audit/scheduler.h"
#include "dyn/client.h"
#include "dyn/dispute.h"
#include "dyn/provider.h"
#include "net/network.h"

int main() {
  using namespace tpnr;  // NOLINT(google-build-using-namespace)

  net::Network network(4242);
  crypto::Drbg rng(std::uint64_t{1});

  std::printf("generating identities (client, provider, auditor)...\n");
  pki::Identity alice_id("alice", 1024, rng);
  pki::Identity bob_id("bob", 1024, rng);
  pki::Identity auditor_id("auditor", 1024, rng);
  dyn::DynClientActor alice("alice", network, alice_id, rng,
                            crypto::Drbg(std::uint64_t{2}).bytes(32));
  dyn::DynProviderActor bob("bob", network, bob_id, rng);
  audit::AuditLedger ledger;
  audit::AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
  alice.trust_peer("bob", bob_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("auditor", auditor_id.public_key());
  auditor.trust_peer("bob", bob_id.public_key());

  // --- 1. Store: version 1, chunk tags, both signatures. ------------------
  constexpr std::size_t kChunkSize = 4 << 10;
  crypto::Drbg data_rng(std::uint64_t{7});
  alice.store_dyn("bob", "", "notebook", data_rng.bytes(96 * kChunkSize),
                  kChunkSize);
  network.run();
  const auto* obj = alice.object("notebook");
  std::printf("stored 'notebook': %zu chunks x %zu KiB, version %llu, "
              "countersigned\n",
              obj->chunks.size(), kChunkSize >> 10,
              static_cast<unsigned long long>(obj->chain.head_version()));

  // --- 2. Mutate chunk-by-chunk; every op extends the version chain. ------
  alice.append_chunk("notebook", data_rng.bytes(kChunkSize));
  network.run();
  alice.update("notebook", 17, data_rng.bytes(kChunkSize));
  network.run();
  alice.insert("notebook", 40, data_rng.bytes(kChunkSize));
  network.run();
  std::printf("after append+update+insert: version %llu, %zu chunks, "
              "%llu receipts (each ~one chunk on the wire, not %zu)\n",
              static_cast<unsigned long long>(obj->chain.head_version()),
              obj->chunks.size(),
              static_cast<unsigned long long>(obj->receipts),
              obj->chunks.size());

  // --- 3. Compact audits: c chunks vouched for in one constant-size proof.
  if (!auditor.watch_dyn(alice, "notebook")) {
    std::printf("auditor refused the dynamic target\n");
    return 1;
  }
  audit::AuditScheduler scheduler(network, auditor,
                                  {.period = common::kSecond,
                                   .max_outstanding = 8,
                                   .seed = 99,
                                   .max_rounds = 3,
                                   .aggregate_count = 64});
  scheduler.start();
  network.run();
  std::printf("3 aggregate rounds (64 chunks each): %llu verified, "
              "%llu flagged\n",
              static_cast<unsigned long long>(auditor.counters().verified),
              static_cast<unsigned long long>(auditor.counters().flagged));

  // --- 4. The rollback attack: old bytes, current version number. ---------
  // A second, update-only object: its archived payloads rebuild to exactly
  // the roots committed in the chain, so a rollback is not just detected but
  // CLASSIFIED — the served root is recognized as a specific older version.
  alice.store_dyn("bob", "", "wallet", data_rng.bytes(8 * kChunkSize),
                  kChunkSize);
  network.run();
  alice.update("wallet", 3, data_rng.bytes(kChunkSize));
  network.run();
  const auto* wallet = alice.object("wallet");
  auditor.watch_dyn(alice, "wallet");
  bob.store().rollback_attack("wallet");
  std::printf("\n[t=%lld ms] provider silently reverts 'wallet' to the "
              "version-1 payload (version still claims %llu)\n",
              static_cast<long long>(network.now() / common::kMillisecond),
              static_cast<unsigned long long>(
                  bob.store().version_of("wallet")));
  auditor.challenge_aggregate(wallet->txn_id, 8);
  network.run();
  const audit::AuditEntry& caught = ledger.entries().back();
  std::printf("next audit: verdict=%s (%s)\n",
              audit::audit_verdict_name(caught.verdict).c_str(),
              caught.detail.c_str());

  // --- 5. The TTP walks the chain: freshness, then repudiation. -----------
  dyn::DynDisputeCase dispute;
  dispute.object_key = "wallet";
  dispute.client_key = alice_id.public_key();
  dispute.provider_key = bob_id.public_key();
  dispute.chain = wallet->chain.records();
  const auto record = bob.store().get("wallet");
  const dyn::DynMerkleTree served = dyn::DynMerkleTree::build(
      dyn::chunk_views(dyn::split_chunks(record->data, kChunkSize)));
  dispute.served_version = record->version;
  dispute.served_root = served.root();
  const dyn::DynRuling freshness = dyn::resolve_dyn_dispute(dispute);
  std::printf("\nTTP, freshness dispute over 'wallet': %s\n  %s\n",
              dyn::dyn_ruling_name(freshness.kind).c_str(),
              freshness.rationale.c_str());

  dispute.object_key = "notebook";
  dispute.served_version.reset();
  dispute.served_root.reset();
  dispute.chain = bob.object_state("notebook")->chain.records();
  dispute.repudiated_version = obj->chain.head_version();
  const dyn::DynRuling repudiation = dyn::resolve_dyn_dispute(dispute);
  std::printf("TTP, client repudiates 'notebook' v%llu: %s\n  %s\n",
              static_cast<unsigned long long>(obj->chain.head_version()),
              dyn::dyn_ruling_name(repudiation.kind).c_str(),
              repudiation.rationale.c_str());
  return 0;
}
