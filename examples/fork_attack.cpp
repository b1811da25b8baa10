// The equivocation (fork) attack end to end — src/consistency/ in one
// narrated run.
//
// Two clients share one provider-held object whose every committed
// operation the provider countersigns into a hash-chained ViewCommitment:
// ONE promised global order. The provider then forks the object — each
// victim gets its own perfectly countersigned branch, invisible from the
// inside. One round of out-of-band client↔client gossip later, a client
// holds an EquivocationProof (two provider signatures over incompatible
// histories), reports it to the auditing TTP, and the multi-party
// arbitration convicts the provider without trusting either client.
//
// Build & run:  ./build/examples/fork_attack
#include <cstdio>

#include "audit/auditor.h"
#include "consistency/arbitration.h"
#include "consistency/client.h"
#include "consistency/provider.h"
#include "net/network.h"

int main() {
  using namespace tpnr;  // NOLINT(google-build-using-namespace)
  using common::kSecond;

  net::Network network(31337);
  crypto::Drbg rng(std::uint64_t{1});

  std::printf("generating identities (2 clients, provider, auditor)...\n");
  pki::Identity alice_id("alice", 1024, rng);
  pki::Identity carol_id("carol", 1024, rng);
  pki::Identity bob_id("bob", 1024, rng);
  pki::Identity auditor_id("auditor", 1024, rng);
  consistency::ConsClientActor alice("alice", network, alice_id, rng);
  consistency::ConsClientActor carol("carol", network, carol_id, rng);
  consistency::ConsProviderActor bob("bob", network, bob_id, rng);
  audit::AuditLedger ledger;
  audit::AuditorActor auditor("auditor", network, auditor_id, rng, ledger);
  alice.trust_peer("bob", bob_id.public_key());
  alice.trust_peer("carol", carol_id.public_key());
  alice.trust_peer("auditor", auditor_id.public_key());
  carol.trust_peer("bob", bob_id.public_key());
  carol.trust_peer("alice", alice_id.public_key());
  carol.trust_peer("auditor", auditor_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("carol", carol_id.public_key());
  auditor.trust_peer("alice", alice_id.public_key());
  auditor.trust_peer("carol", carol_id.public_key());
  auditor.trust_peer("bob", bob_id.public_key());

  // --- 1. A shared object: one provider-signed global order. --------------
  constexpr std::size_t kChunkSize = 256;
  crypto::Drbg data_rng(std::uint64_t{7});
  alice.store_shared("bob", "auditor", "ledger.db",
                     data_rng.bytes(8 * kChunkSize), kChunkSize);
  network.run();
  carol.open_shared("bob", "auditor", "ledger.db");
  network.run();
  alice.update("ledger.db", 0, data_rng.bytes(kChunkSize));
  network.run();
  carol.update("ledger.db", 1, data_rng.bytes(kChunkSize));
  network.run();
  const auto* alice_obj = alice.object("ledger.db");
  const auto* carol_obj = carol.object("ledger.db");
  std::printf("shared 'ledger.db': both clients at version %llu, one "
              "commitment chain (head seq %llu), roots match: %s\n",
              static_cast<unsigned long long>(
                  alice_obj->chain.head_version()),
              static_cast<unsigned long long>(
                  alice_obj->checker->view().head_seq()),
              alice_obj->tree.root() == carol_obj->tree.root() ? "yes"
                                                               : "NO");

  // --- 2. The fork: per-victim branches, each internally perfect. ---------
  std::printf("\nprovider forks the object: alice -> branch 0, "
              "carol -> branch 1...\n");
  bob.fork_object("ledger.db", {{"alice", 0}, {"carol", 1}});
  alice.update("ledger.db", 2, data_rng.bytes(kChunkSize));
  network.run();
  carol.update("ledger.db", 2, data_rng.bytes(kChunkSize));
  network.run();
  std::printf("both clients got countersigned commits for global seq %llu "
              "— different contents, neither suspects a thing "
              "(forks detected: alice %llu, carol %llu)\n",
              static_cast<unsigned long long>(
                  alice_obj->checker->view().head_seq()),
              static_cast<unsigned long long>(alice.forks_detected()),
              static_cast<unsigned long long>(carol.forks_detected()));

  // --- 3. Out-of-band gossip: the fork is provable in one exchange. -------
  std::printf("\nclients compare notes on the cons.gossip topic...\n");
  consistency::GossipOptions gossip;
  gossip.period = 2 * kSecond;
  gossip.rounds = 4;
  gossip.arbiter = "auditor";  // report any latched proof to the TTP
  alice.add_gossip_peer("carol");
  carol.add_gossip_peer("alice");
  alice.enable_gossip(gossip);
  carol.enable_gossip(gossip);
  network.run();

  const consistency::EquivocationProof* proof =
      alice.fork_proof("ledger.db");
  if (proof == nullptr) proof = carol.fork_proof("ledger.db");
  if (proof == nullptr) {
    std::printf("no proof latched — unexpected\n");
    return 1;
  }
  std::printf("FORK DETECTED (alice %llu, carol %llu): %s\n",
              static_cast<unsigned long long>(alice.forks_detected()),
              static_cast<unsigned long long>(carol.forks_detected()),
              proof->describe().c_str());
  std::printf("proof verifies under bob's key alone: %s\n",
              proof->valid(bob_id.public_key()) ? "yes" : "no");

  // --- 4. The TTP side: the kForkReport already landed in the ledger. -----
  std::printf("\nauditor: %llu fork report(s) accepted, %llu rejected\n",
              static_cast<unsigned long long>(
                  auditor.counters().forks_detected),
              static_cast<unsigned long long>(
                  auditor.counters().fork_reports_rejected));
  for (const auto& entry : ledger.entries()) {
    if (entry.verdict == audit::AuditVerdict::kForkDetected) {
      std::printf("ledger: [%s] provider=%s object=%s seq=%llu\n",
                  audit::audit_verdict_name(entry.verdict).c_str(),
                  entry.provider.c_str(), entry.object_key.c_str(),
                  static_cast<unsigned long long>(entry.chunk_index));
    }
  }
  std::printf("ledger hash chain verifies: %s\n",
              ledger.verify_chain() ? "yes" : "NO");

  // --- 5. Multi-party arbitration: the §2.4 table, extended. --------------
  std::printf("\narbitration walk (client vs client vs provider):\n");
  consistency::ForkDisputeCase dispute;
  dispute.object_key = "ledger.db";
  dispute.provider_key = bob_id.public_key();
  dispute.proof = *proof;
  auto ruling = consistency::resolve_fork_dispute(dispute);
  std::printf("  with proof:        %s — %s\n",
              consistency::fork_ruling_name(ruling.kind).c_str(),
              ruling.rationale.c_str());

  dispute.proof.reset();
  dispute.accuser_view =
      alice.object("ledger.db")->checker->view().commitments();
  ruling = consistency::resolve_fork_dispute(dispute);
  std::printf("  view alone:        %s — %s\n",
              consistency::fork_ruling_name(ruling.kind).c_str(),
              ruling.rationale.c_str());

  dispute.counter_view =
      carol.object("ledger.db")->checker->view().commitments();
  ruling = consistency::resolve_fork_dispute(dispute);
  std::printf("  both views:        %s — %s\n",
              consistency::fork_ruling_name(ruling.kind).c_str(),
              ruling.rationale.c_str());

  const bool convicted =
      ruling.kind == consistency::ForkRulingKind::kProviderConvicted;
  std::printf("\n%s\n", convicted
                            ? "provider convicted by its own signatures — "
                              "no client testimony was trusted."
                            : "UNEXPECTED: provider not convicted");
  return convicted ? 0 : 1;
}
