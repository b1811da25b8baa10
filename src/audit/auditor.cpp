#include "audit/auditor.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/payload.h"
#include "common/serial.h"
#include "crypto/sha256.h"
#include "dyn/client.h"
#include "nr/chunked.h"
#include "nr/evidence.h"
#include "runtime/crypto_service.h"

namespace tpnr::audit {

AuditorActor::AuditorActor(std::string id, net::Network& network,
                           pki::Identity& identity, crypto::Drbg& rng,
                           AuditLedger& ledger)
    : NrActor(std::move(id), network, identity, rng), ledger_(&ledger) {
  // Audit traffic travels on its own topic so net::TopicStats can separate
  // audit overhead from protocol traffic.
  set_default_topic("nr.audit");
}

bool AuditorActor::watch(const nr::ClientActor& client,
                         const std::string& txn_id) {
  const nr::ClientActor::Txn* txn = client.transaction(txn_id);
  if (txn == nullptr || txn->chunk_size == 0 || txn->chunk_count == 0) {
    return false;  // unknown or flat: nothing to challenge chunk-wise
  }
  const crypto::RsaPublicKey* provider_key = peer_key(txn->provider);
  if (provider_key == nullptr) return false;
  // The root we audit against must be the SIGNED one. When the client holds
  // the provider's receipt, re-verify it: a receipt that does not verify,
  // or covers a different hash, is no basis for an audit.
  if (txn->nrr.has_value() && txn->nrr_header.has_value()) {
    if (txn->nrr_header->data_hash != txn->data_hash ||
        !nr::verify_evidence_signatures(*provider_key, *txn->nrr_header,
                                        *txn->nrr)) {
      return false;
    }
  }
  AuditTarget target;
  target.txn_id = txn_id;
  target.provider = txn->provider;
  target.object_key = txn->object_key;
  target.root = txn->data_hash;
  target.chunk_size = txn->chunk_size;
  target.chunk_count = txn->chunk_count;
  return register_target(std::move(target));
}

bool AuditorActor::register_target(AuditTarget target) {
  if (target.txn_id.empty() || target.provider.empty() ||
      target.chunk_size == 0 || target.chunk_count == 0 ||
      target.root.empty()) {
    return false;
  }
  target.registered_at = network_->now();
  targets_[target.txn_id] = std::move(target);
  return true;
}

bool AuditorActor::watch_dyn(const dyn::DynClientActor& client,
                             const std::string& object_key) {
  const dyn::DynClientActor::DynObject* obj = client.object(object_key);
  if (obj == nullptr || obj->chain.empty()) return false;
  DynAuditTarget target;
  target.txn_id = obj->txn_id;
  target.provider = obj->provider;
  target.object_key = obj->object_key;
  target.chunk_size = obj->chunk_size;
  target.tag_key = obj->tag_key;
  target.chain = &obj->chain;
  return register_dyn_target(std::move(target));
}

bool AuditorActor::register_dyn_target(DynAuditTarget target) {
  if (target.txn_id.empty() || target.provider.empty() ||
      target.chunk_size == 0 || target.chain == nullptr ||
      target.chain->empty() || peer_key(target.provider) == nullptr) {
    return false;
  }
  target.registered_at = network_->now();
  dyn_targets_[target.txn_id] = std::move(target);
  return true;
}

bool AuditorActor::challenge_aggregate(const std::string& txn_id,
                                       std::uint64_t count) {
  const auto it = dyn_targets_.find(txn_id);
  if (it == dyn_targets_.end() || count == 0 ||
      it->second.chain->head_chunk_count() == 0) {
    return false;
  }
  const PendingKey key{txn_id, kAggregateIndex};
  if (pending_.contains(key)) return false;  // one aggregate per txn

  dyn::AggChallenge challenge;
  challenge.seed = rng_->next_u64();
  challenge.count = count;
  agg_inflight_[txn_id] = challenge;

  pending_[key].challenged_at = network_->now();
  ++counters_.challenges;
  transmit(key, 1);
  return true;
}

bool AuditorActor::challenge(const std::string& txn_id,
                             std::size_t chunk_index) {
  const auto it = targets_.find(txn_id);
  if (it == targets_.end() || chunk_index >= it->second.chunk_count) {
    return false;
  }
  const PendingKey key{txn_id, chunk_index};
  if (pending_.contains(key)) return false;  // already in flight

  pending_[key].challenged_at = network_->now();
  ++counters_.challenges;
  transmit(key, 1);
  return true;
}

void AuditorActor::transmit(const PendingKey& key, std::size_t attempt) {
  common::BinaryWriter payload;
  if (key.second == kAggregateIndex) {
    // Every attempt sends the SAME expanded challenge: the provider's answer
    // is a pure function of (seed, count, object), so a retry is idempotent.
    const auto target_it = dyn_targets_.find(key.first);
    const auto challenge_it = agg_inflight_.find(key.first);
    if (target_it != dyn_targets_.end() &&
        challenge_it != agg_inflight_.end()) {
      const DynAuditTarget& target = target_it->second;
      payload.str(target.object_key);
      payload.u64(challenge_it->second.seed);
      payload.u64(challenge_it->second.count);
      // data_hash pins the header to the freshness reference at challenge
      // time: the chain head root the response will be judged against.
      send(next_header(nr::MsgType::kAggChallenge, target.provider,
                       /*ttp=*/"", target.txn_id, target.chain->head_root(),
                       network_->now() + nr::kRequestWindow),
           payload.take());
    }
  } else if (const auto target_it = targets_.find(key.first);
             target_it != targets_.end()) {
    const AuditTarget& target = target_it->second;
    payload.u64(key.second);
    send(next_header(nr::MsgType::kChunkRequest, target.provider, /*ttp=*/"",
                     target.txn_id, target.root,
                     network_->now() + nr::kRequestWindow),
         payload.take());
  }
  await_reply(
      kChallengeWait, attempt, key,
      [this](const PendingKey& k) -> std::uint64_t* {
        const auto it = pending_.find(k);
        return it == pending_.end() ? nullptr : &it->second.wait;
      },
      [this](const PendingKey& k, std::size_t next) {
        ++counters_.retries;
        transmit(k, next);
      },
      [this](const PendingKey& k) {
        conclude(k, pending_.at(k), AuditVerdict::kNoResponse,
                 "provider silent through " +
                     std::to_string(1 + kChallengeWait.retries) +
                     " attempt(s)");
      });
}

void AuditorActor::conclude(const PendingKey& key, const Pending& pending,
                            AuditVerdict verdict, std::string detail) {
  AuditEntry entry;
  entry.challenged_at = pending.challenged_at;
  entry.concluded_at = network_->now();
  entry.auditor = id();
  entry.txn_id = key.first;
  entry.chunk_index = key.second;
  entry.verdict = verdict;
  entry.detail = std::move(detail);
  if (const auto it = targets_.find(key.first); it != targets_.end()) {
    entry.provider = it->second.provider;
    entry.object_key = it->second.object_key;
  } else if (const auto dyn_it = dyn_targets_.find(key.first);
             dyn_it != dyn_targets_.end()) {
    entry.provider = dyn_it->second.provider;
    entry.object_key = dyn_it->second.object_key;
  }
  ledger_->append(std::move(entry));

  switch (verdict) {
    case AuditVerdict::kVerified:
      ++counters_.verified;
      break;
    case AuditVerdict::kNoResponse:
      ++counters_.no_responses;
      break;
    default:
      ++counters_.flagged;
      break;
  }
  pending_.erase(key);
  if (key.second == kAggregateIndex) agg_inflight_.erase(key.first);
}

void AuditorActor::on_message(const nr::NrMessage& message) {
  if (message.header.flag == nr::MsgType::kChunkResponse) {
    handle_chunk_response(message);
  } else if (message.header.flag == nr::MsgType::kAggResponse) {
    handle_agg_response(message);
  } else if (message.header.flag == nr::MsgType::kForkReport) {
    handle_fork_report(message);
  }
}

void AuditorActor::handle_fork_report(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  common::BinaryReader r(message.payload);
  const std::string provider = r.str();
  const std::string object_key = r.str();
  const std::string txn_id = r.str();
  const Bytes proof_bytes = r.bytes();
  r.expect_done();
  if (h.data_hash != crypto::sha256(proof_bytes)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  consistency::EquivocationProof proof =
      consistency::EquivocationProof::decode(proof_bytes);
  std::shared_ptr<const crypto::RsaPublicKey> reporter_key =
      peer_key_shared(h.sender);
  if (reporter_key == nullptr) return;
  const auto opened =
      nr::open_evidence_unverified(*identity_, h, message.evidence);
  if (!opened.has_value()) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  // The reporter's evidence signatures go through the crypto service; the
  // proof itself is judged in the completion (its two provider signatures
  // ride the per-key verify memo and Montgomery fast path).
  std::vector<runtime::VerifyJob> sigs(2);
  sigs[0].key = reporter_key;
  sigs[0].message = h.data_hash;
  sigs[0].signature = opened->data_hash_signature;
  sigs[1].key = reporter_key;
  sigs[1].message = h.encode();
  sigs[1].signature = opened->header_signature;
  crypto_service().submit_verifies(
      std::move(sigs),
      [this, provider, txn_id, object_key, proof = std::move(proof),
       reporter = h.sender](std::vector<bool> ok) {
        if (!ok[0] || !ok[1]) {
          ++stats_.rejected_bad_evidence;
          return;
        }
        report_fork(provider, txn_id, object_key, proof, reporter);
      });
}

bool AuditorActor::report_fork(const std::string& provider,
                               const std::string& txn_id,
                               const std::string& object_key,
                               const consistency::EquivocationProof& proof,
                               const std::string& reporter) {
  const SimTime now = network_->now();
  const crypto::RsaPublicKey* provider_key = peer_key(provider);
  std::string why;
  const bool convicts =
      provider_key != nullptr && proof.object_key == object_key &&
      proof.valid(*provider_key, &why);
  if (!convicts) {
    // A proof that does not verify proves nothing against anyone; count it
    // but keep the ledger to facts.
    ++counters_.fork_reports_rejected;
    return false;
  }
  ++counters_.forks_detected;
  ++counters_.flagged;
  AuditEntry entry;
  entry.challenged_at = now;
  entry.concluded_at = now;
  entry.auditor = id();
  entry.provider = provider;
  entry.txn_id = txn_id;
  entry.object_key = object_key;
  entry.chunk_index = proof.a.view.global_seq;
  entry.verdict = AuditVerdict::kForkDetected;
  entry.detail = (reporter.empty() ? std::string("local report")
                                   : "reported by " + reporter) +
                 ": " + proof.describe();
  ledger_->append(std::move(entry));
  return true;
}

void AuditorActor::handle_agg_response(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const auto target_it = dyn_targets_.find(h.txn_id);
  if (target_it == dyn_targets_.end()) return;
  const DynAuditTarget& target = target_it->second;
  if (h.sender != target.provider) return;

  const PendingKey key{h.txn_id, kAggregateIndex};
  const auto pending_it = pending_.find(key);
  const auto challenge_it = agg_inflight_.find(h.txn_id);
  if (pending_it == pending_.end() || challenge_it == agg_inflight_.end()) {
    return;  // late duplicate or unsolicited
  }
  const Pending pending = pending_it->second;
  const dyn::AggChallenge challenge = challenge_it->second;

  Bytes response_bytes;
  dyn::AggResponse response;
  try {
    common::BinaryReader r(message.payload);
    if (r.str() != target.object_key) {
      conclude(key, pending, AuditVerdict::kMalformed,
               "response names a different object");
      return;
    }
    response_bytes = r.bytes();
    r.expect_done();
    response = dyn::AggResponse::decode(response_bytes);
  } catch (const common::SerialError&) {
    conclude(key, pending, AuditVerdict::kMalformed,
             "aggregated response undecodable");
    return;
  }

  // Evidence first: the provider signed the hash of this exact response,
  // so whatever (version, root, σ, μ) it claims is non-repudiable. The
  // digest and both evidence signatures run through the crypto service.
  std::shared_ptr<const crypto::RsaPublicKey> provider_key =
      peer_key_shared(target.provider);
  const auto opened =
      nr::open_evidence_unverified(*identity_, h, message.evidence);
  if (provider_key == nullptr || !opened.has_value()) {
    ++stats_.rejected_bad_evidence;
    conclude(key, pending, AuditVerdict::kBadEvidence,
             "response evidence failed verification");
    return;
  }

  // The freshness reference is pinned NOW, at response-execution time: the
  // completion judges against the chain head as it stood when the response
  // event ran, exactly as the inline path would.
  const dyn::VersionChain& chain = *target.chain;
  const std::uint64_t head_version = chain.head_version();
  const Bytes head_root = chain.head_root();
  const std::size_t head_chunk_count = chain.head_chunk_count();
  const auto older = chain.version_of_root(response.root);

  std::vector<runtime::DigestJob> jobs(1);
  jobs[0].message = common::Payload::copy_of(response_bytes);
  crypto_service().submit_digests(
      std::move(jobs),
      [this, h, key, pending, provider_key, opened = *opened, challenge,
       response = std::move(response), tag_key = target.tag_key,
       chunk_size = target.chunk_size, head_version, head_root,
       head_chunk_count, older](std::vector<Bytes> digests) {
        if (!pending_.contains(key)) return;  // concluded meanwhile
        if (digests[0] != h.data_hash) {
          ++stats_.rejected_bad_evidence;
          conclude(key, pending, AuditVerdict::kBadEvidence,
                   "response evidence failed verification");
          return;
        }
        std::vector<runtime::VerifyJob> sigs(2);
        sigs[0].key = provider_key;
        sigs[0].message = h.data_hash;
        sigs[0].signature = opened.data_hash_signature;
        sigs[1].key = provider_key;
        sigs[1].message = h.encode();
        sigs[1].signature = opened.header_signature;
        crypto_service().submit_verifies(
            std::move(sigs),
            [this, key, pending, challenge, response, tag_key, chunk_size,
             head_version, head_root, head_chunk_count,
             older](std::vector<bool> ok) {
              if (!pending_.contains(key)) return;
              if (!ok[0] || !ok[1]) {
                ++stats_.rejected_bad_evidence;
                conclude(key, pending, AuditVerdict::kBadEvidence,
                         "response evidence failed verification");
                return;
              }
              // Freshness against the client's chain head BEFORE any
              // algebra: a stale or rolled-back head is a verdict of its
              // own, not a mere mismatch.
              if (response.version < head_version) {
                conclude(key, pending, AuditVerdict::kStaleVersion,
                         "provider served version " +
                             std::to_string(response.version) +
                             " but the countersigned head is version " +
                             std::to_string(head_version));
                return;
              }
              if (!common::constant_time_equal(response.root, head_root)) {
                if (older.has_value() && *older < head_version) {
                  conclude(key, pending, AuditVerdict::kRollback,
                           "root matches committed version " +
                               std::to_string(*older) +
                               " while claiming version " +
                               std::to_string(response.version) + " (head " +
                               std::to_string(head_version) + ")");
                } else {
                  conclude(key, pending, AuditVerdict::kMismatch,
                           "root matches no committed version");
                }
                return;
              }
              const bool holds = dyn::verify_agg_response(
                  challenge, response, tag_key, head_chunk_count, chunk_size,
                  head_root);
              conclude(key, pending,
                       holds ? AuditVerdict::kVerified
                             : AuditVerdict::kMismatch,
                       holds ? "aggregated proof verified against the chain "
                               "head"
                             : "aggregated proof failed verification");
            });
      });
}

void AuditorActor::handle_chunk_response(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const auto target_it = targets_.find(h.txn_id);
  if (target_it == targets_.end()) return;
  const AuditTarget& target = target_it->second;
  if (h.sender != target.provider) return;

  // Stage 1: the chunk index, to correlate with the outstanding challenge.
  std::uint64_t chunk_index = 0;
  common::BinaryReader reader(message.payload);
  try {
    chunk_index = reader.u64();
  } catch (const common::SerialError&) {
    // Undecodable beyond recovery. If exactly one challenge is in flight
    // for this transaction the response can still be attributed; otherwise
    // the timeout path will record the non-response.
    PendingKey only{};
    std::size_t matches = 0;
    for (const auto& [key, pending] : pending_) {
      if (key.first == h.txn_id) {
        only = key;
        ++matches;
      }
    }
    if (matches == 1) {
      conclude(only, pending_.at(only), AuditVerdict::kMalformed,
               "response payload undecodable");
    }
    return;
  }
  const PendingKey key{h.txn_id, chunk_index};
  const auto pending_it = pending_.find(key);
  if (pending_it == pending_.end()) return;  // late duplicate or unsolicited
  const Pending pending = pending_it->second;

  // Stage 2: the chunk and its inclusion proof.
  Bytes chunk;
  crypto::MerkleProof proof;
  try {
    chunk = reader.bytes();
    proof = nr::decode_proof(reader.bytes());
    reader.expect_done();
  } catch (const common::SerialError&) {
    conclude(key, pending, AuditVerdict::kMalformed,
             "chunk or proof undecodable");
    return;
  }

  // Stages 3 and 4 each hash the full chunk — the evidence digest (flat
  // SHA-256) and the Merkle leaf (0x00-tagged SHA-256). Both go through the
  // crypto service as one two-job submission, so concurrent audits in the
  // shard coalesce into full multi-buffer dispatches and the chunk's blocks
  // stream through the compressor once, two lanes wide.
  std::shared_ptr<const crypto::RsaPublicKey> provider_key =
      peer_key_shared(target.provider);
  const auto opened =
      nr::open_evidence_unverified(*identity_, h, message.evidence);
  if (provider_key == nullptr || !opened.has_value()) {
    ++stats_.rejected_bad_evidence;
    conclude(key, pending, AuditVerdict::kBadEvidence,
             "response evidence failed verification");
    return;
  }
  const common::Payload chunk_payload = common::Payload::copy_of(chunk);
  std::vector<runtime::DigestJob> jobs(2);
  jobs[0].message = chunk_payload;  // evidence digest
  jobs[1].message = chunk_payload;  // Merkle leaf
  jobs[1].tag = 0x00;
  crypto_service().submit_digests(
      std::move(jobs),
      [this, h, key, pending, provider_key, opened = *opened,
       proof = std::move(proof), chunk_index,
       chunk_count = target.chunk_count,
       root = target.root](std::vector<Bytes> digests) {
        if (!pending_.contains(key)) return;  // concluded meanwhile

        // Stage 3: the response evidence — the provider signed the hash of
        // the chunk it served NOW, so it cannot later repudiate this audit
        // answer.
        if (digests[0] != h.data_hash) {
          ++stats_.rejected_bad_evidence;
          conclude(key, pending, AuditVerdict::kBadEvidence,
                   "response evidence failed verification");
          return;
        }
        std::vector<runtime::VerifyJob> sigs(2);
        sigs[0].key = provider_key;
        sigs[0].message = h.data_hash;
        sigs[0].signature = opened.data_hash_signature;
        sigs[1].key = provider_key;
        sigs[1].message = h.encode();
        sigs[1].signature = opened.header_signature;
        crypto_service().submit_verifies(
            std::move(sigs),
            [this, key, pending, proof, chunk_index, chunk_count, root,
             leaf = std::move(digests[1])](std::vector<bool> ok) {
              if (!pending_.contains(key)) return;
              if (!ok[0] || !ok[1]) {
                ++stats_.rejected_bad_evidence;
                conclude(key, pending, AuditVerdict::kBadEvidence,
                         "response evidence failed verification");
                return;
              }
              // Stage 4: the audit proper — does the served chunk chain to
              // the Merkle root both parties signed at store time?
              const bool chains =
                  proof.leaf_index == chunk_index &&
                  proof.leaf_count == chunk_count &&
                  crypto::MerkleTree::verify_from_leaf(leaf, proof, root);
              conclude(key, pending,
                       chains ? AuditVerdict::kVerified
                              : AuditVerdict::kMismatch,
                       chains ? "chunk verified against the signed root"
                              : "proof does not chain to the signed root");
            });
      });
}

}  // namespace tpnr::audit
