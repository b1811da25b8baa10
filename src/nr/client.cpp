#include "nr/client.h"

#include <algorithm>

#include "common/serial.h"
#include "nr/ttp.h"
#include "runtime/crypto_service.h"

namespace tpnr::nr {

namespace {

/// Packed history entry: (at << 8) | state. SimTime is microseconds, so the
/// 55 usable bits cover ~1100 years of sim time.
std::int64_t pack_history(common::SimTime at, TxnState state) {
  return (at << 8) | static_cast<std::int64_t>(state);
}

}  // namespace

std::string txn_state_name(TxnState state) {
  switch (state) {
    case TxnState::kStorePending:
      return "store-pending";
    case TxnState::kCompleted:
      return "completed";
    case TxnState::kAbortPending:
      return "abort-pending";
    case TxnState::kAborted:
      return "aborted";
    case TxnState::kAbortRejected:
      return "abort-rejected";
    case TxnState::kAbortErrored:
      return "abort-errored";
    case TxnState::kResolvePending:
      return "resolve-pending";
    case TxnState::kResolveRetrying:
      return "resolve-retrying";
    case TxnState::kResolvedCompleted:
      return "resolved-completed";
    case TxnState::kResolvedFailed:
      return "resolved-failed";
    case TxnState::kTtpUnreachable:
      return "ttp-unreachable";
    case TxnState::kTimedOut:
      return "timed-out";
  }
  return "unknown";
}

ClientActor::ClientActor(std::string id, net::Network& network,
                         pki::Identity& identity, crypto::Drbg& rng,
                         ClientOptions options)
    : NrActor(std::move(id), network, identity, rng),
      options_(options),
      txn_ids_(rng.next_u64()) {}

const ClientActor::Txn* ClientActor::transaction(
    const std::string& txn_id) const {
  const auto it = txns_.find(txn_id);
  return it == txns_.end() ? nullptr : &it->second;
}

std::optional<std::pair<MessageHeader, OpenedEvidence>>
ClientActor::present_nrr(const std::string& txn_id) const {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || !it->second.nrr || !it->second.nrr_header) {
    return std::nullopt;
  }
  return std::make_pair(*it->second.nrr_header, *it->second.nrr);
}

std::string ClientActor::store(const std::string& provider,
                               const std::string& ttp,
                               const std::string& object_key, BytesView data) {
  return store_impl(provider, ttp, object_key, data, /*chunk_size=*/0);
}

std::string ClientActor::store_chunked(const std::string& provider,
                                       const std::string& ttp,
                                       const std::string& object_key,
                                       BytesView data,
                                       std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw common::ProtocolError(
        "ClientActor::store_chunked: chunk_size must be > 0");
  }
  return store_impl(provider, ttp, object_key, data, chunk_size);
}

void ClientActor::set_state(Txn& txn, TxnState state) {
  txn.state = state;
  txn.history.push_back(pack_history(network_->now(), state));
  if (txn_state_terminal(state)) txn.finished_at = network_->now();
}

std::string ClientActor::store_impl(const std::string& provider,
                                    const std::string& ttp,
                                    const std::string& object_key,
                                    BytesView data, std::size_t chunk_size) {
  const crypto::RsaPublicKey* provider_key = peer_key(provider);
  if (provider_key == nullptr) {
    throw common::ProtocolError("ClientActor::store: provider key unknown");
  }
  const std::string txn_id = txn_ids_.next_id("txn");
  // Partitioned-TTP override: the adjudicating instance is a deterministic
  // function of the txn id, so the respondent and the arbitrator derive the
  // same partition without coordination.
  const std::string& ttp_eff =
      ttp_partitions_.empty()
          ? ttp
          : ttp_partitions_[ttp_partition_of(
                txn_id,
                static_cast<std::uint32_t>(ttp_partitions_.size()))];
  // The agreed hash: flat digest, or the Merkle root for chunked objects.
  // The flat digest goes through the crypto batching service below; the
  // Merkle build stays inline (the tree also yields the chunk count).
  std::size_t chunk_count = 0;
  Bytes data_hash;
  if (chunk_size != 0) {
    const crypto::MerkleTree tree(data, chunk_size);
    data_hash = tree.root();
    chunk_count = tree.leaf_count();
  }

  Txn txn;
  txn.provider = provider;
  txn.ttp = ttp_eff;
  txn.object_key = object_key;
  txn.data_hash = data_hash;
  txn.chunk_size = chunk_size;
  txn.chunk_count = chunk_count;
  txn.started_at = network_->now();
  txn.history.push_back(
      pack_history(network_->now(), TxnState::kStorePending));
  // Keep the object bytes only if re-sending the NRO is allowed — the
  // retry path must rebuild the exact payload.
  if (options_.store_retries > 0) {
    txn.retry_data = common::Payload::copy_of(data);
  }
  txns_[txn_id] = std::move(txn);

  if (chunk_size == 0) {
    // Defer the agreed hash: stores submitted across the shard in the same
    // window coalesce into full SHA-256 lane dispatches. The completion
    // fills the hash and transmits; from driver code the service completes
    // before submit returns, so store() keeps its synchronous semantics.
    common::Payload object = !txns_[txn_id].retry_data.empty()
                                 ? txns_[txn_id].retry_data
                                 : common::Payload::copy_of(data);
    std::vector<runtime::DigestJob> jobs(1);
    jobs[0].message = object;
    crypto_service().submit_digests(
        std::move(jobs), [this, txn_id, object](std::vector<Bytes> digests) {
          const auto it = txns_.find(txn_id);
          if (it == txns_.end()) return;
          it->second.data_hash = std::move(digests[0]);
          transmit_store(txn_id, object);
        });
  } else {
    transmit_store(txn_id, data);
  }
  return txn_id;
}

void ClientActor::transmit_store(const std::string& txn_id, BytesView data) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  if (peer_key(txn.provider) == nullptr) return;

  // Every (re-)send carries a fresh header: new nonce/seq so the replay
  // defence stays intact, new time_limit so the deadline is live. The
  // txn_id and data_hash bind it to the same transaction; the provider
  // treats a repeated NRO for a known transaction idempotently.
  auto [header, sealed] =
      make_receipt(MsgType::kStoreRequest, txn.provider, txn.ttp, txn_id,
                   txn.data_hash, network_->now() + options_.reply_window);
  // Wrap the evidence once; the txn record and the outgoing message share
  // the same buffer.
  common::Payload evidence(std::move(sealed));
  txn.store_header = header;
  txn.store_evidence = evidence;
  ++txn.store_attempts;

  common::BinaryWriter payload;
  payload.str(txn.object_key);
  payload.bytes(data);
  payload.u32(static_cast<std::uint32_t>(txn.chunk_size));
  send(std::move(header), payload.take(), std::move(evidence));
  // §4.3: "if Alice has sent the NRO and has not received the NRR before
  // the time out, she can initiate the Resolve mode." With retries
  // configured she first re-sends the NRO (linear backoff) and escalates
  // only once the budget is spent.
  await_reply(
      store_wait(options_.store_retries), txn.store_attempts, txn_id,
      [this](const std::string& id) {
        return wait_slot(id, TxnState::kStorePending);
      },
      [this](const std::string& id, std::size_t) { send_store(id); },
      [this](const std::string& id) {
        Txn& stalled = txns_.at(id);
        if (options_.auto_resolve && !stalled.ttp.empty()) {
          resolve(id, "no NRR before timeout");
        } else {
          set_state(stalled, TxnState::kTimedOut);
        }
      });
}

void ClientActor::send_store(const std::string& txn_id) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.retry_data.empty()) return;
  if (it->second.state != TxnState::kStorePending) {
    set_state(it->second, TxnState::kStorePending);
  }
  transmit_store(txn_id, it->second.retry_data);
}

std::uint64_t* ClientActor::wait_slot(const std::string& txn_id,
                                      TxnState waiting) {
  const auto it = txns_.find(txn_id);
  return it != txns_.end() && it->second.state == waiting ? &it->second.wait
                                                          : nullptr;
}

void ClientActor::abort(const std::string& txn_id) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  set_state(txn, TxnState::kAbortPending);

  // "Alice is only required to send Bob the transaction ID with the NRO."
  common::BinaryWriter payload;
  payload.bytes(txn.store_header.encode());
  payload.bytes(txn.store_evidence);

  send(next_header(MsgType::kAbortRequest, txn.provider, txn.ttp, txn_id,
                   txn.data_hash, network_->now() + options_.reply_window),
       payload.take());
}

void ClientActor::fetch(const std::string& txn_id) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;

  common::BinaryWriter payload;
  payload.str(txn.object_key);

  send(next_header(MsgType::kFetchRequest, txn.provider, txn.ttp, txn_id,
                   txn.data_hash, network_->now() + options_.reply_window),
       payload.take());
}

void ClientActor::audit(const std::string& txn_id, std::size_t chunk_index) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.chunk_size == 0) return;
  Txn& txn = it->second;

  common::BinaryWriter payload;
  payload.u64(chunk_index);

  send(next_header(MsgType::kChunkRequest, txn.provider, txn.ttp, txn_id,
                   txn.data_hash, network_->now() + options_.reply_window),
       payload.take());
}

void ClientActor::audit_sample(const std::string& txn_id, std::size_t count) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.chunk_count == 0) return;
  for (std::size_t i = 0; i < count; ++i) {
    audit(txn_id, static_cast<std::size_t>(
                      rng_->uniform(it->second.chunk_count)));
  }
}

void ClientActor::resolve(const std::string& txn_id,
                          const std::string& report) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  if (txn.ttp.empty()) return;

  // "Alice sends the transaction ID, the NRO, and a report of anomalies to
  // TTP." The original header travels too, plus Alice's signature over it
  // so the TTP can check genuineness without opening the (Bob-encrypted)
  // NRO.
  common::BinaryWriter payload;
  payload.str(txn.provider);
  payload.str(report);
  payload.bytes(txn.store_header.encode());
  payload.bytes(identity_->sign(txn.store_header.encode()));
  payload.bytes(txn.store_evidence);

  NrMessage message;
  message.header =
      next_header(MsgType::kResolveRequest, txn.ttp, txn.ttp, txn_id,
                  txn.data_hash, network_->now() + options_.reply_window);
  message.payload = payload.take();

  // Only an UNSETTLED transaction escalates: a resolve of a transaction
  // that already completed or aborted still sends the request (the TTP
  // will answer and log it), but must not un-settle local state — a late
  // verdict for it is ignored by the state guard in
  // handle_resolve_verdict. This is what keeps a stray timer or caller
  // from turning held evidence into a contradictory outcome.
  switch (txn.state) {
    case TxnState::kStorePending:
    case TxnState::kResolvePending:
    case TxnState::kResolveRetrying:
    case TxnState::kTimedOut:
      if (txn.state != TxnState::kResolvePending) {
        set_state(txn, TxnState::kResolvePending);
      }
      ++txn.resolve_attempts;
      send(txn.ttp, std::move(message));
      // No resolve retries is the paper's mode: wait for the verdict forever.
      if (options_.resolve_retries == 0) break;
      await_reply(
          resolve_wait(options_.resolve_retries), txn.resolve_attempts, txn_id,
          [this](const std::string& id) {
            return wait_slot(id, TxnState::kResolvePending);
          },
          [this](const std::string& id, std::size_t) {
            // Back off and re-resolve: this rides out a TTP down-window.
            set_state(txns_.at(id), TxnState::kResolveRetrying);
            resolve(id, "re-resolve: no verdict before timeout");
          },
          [this](const std::string& id) {
            // Every attempt went unanswered: the TTP is unreachable, and the
            // txn parks in a degraded terminal state the caller can count.
            set_state(txns_.at(id), TxnState::kTtpUnreachable);
          });
      break;
    default:
      send(txn.ttp, std::move(message));
      break;
  }
}

void ClientActor::on_message(const NrMessage& message) {
  switch (message.header.flag) {
    case MsgType::kStoreReceipt:
      handle_store_receipt(message);
      break;
    case MsgType::kFetchResponse:
      handle_fetch_response(message);
      break;
    case MsgType::kChunkResponse:
      handle_chunk_response(message);
      break;
    case MsgType::kAbortAccept:
    case MsgType::kAbortReject:
    case MsgType::kAbortError:
      handle_abort_reply(message);
      break;
    case MsgType::kResolveVerdict:
      handle_resolve_verdict(message);
      break;
    case MsgType::kResolveQuery:
      handle_resolve_query(message);
      break;
    case MsgType::kDirReply:
      handle_dir_reply(message);
      break;
    default:
      break;
  }
}

std::string ClientActor::store_routed(const std::string& ttp,
                                      const std::string& object_key,
                                      BytesView data) {
  // Owner by the shared ring if we hold one; else by the lookup-miss cache.
  const std::string* owner = nullptr;
  if (placement_ != nullptr && !placement_->empty()) {
    owner = &placement_->owner(object_key);
  } else {
    const auto it = owner_cache_.find(object_key);
    if (it != owner_cache_.end()) owner = &it->second;
  }
  // A usable route needs the owner's authenticated key, too: knowing the
  // name without the key cannot build the NRO's sealed evidence.
  if (owner == nullptr || peer_key(*owner) == nullptr) {
    defer_store(ttp, object_key, data);
    return "";
  }
  const std::string txn_id = store_impl(*owner, ttp, object_key, data,
                                        /*chunk_size=*/0);
  routed_txns_.push_back(txn_id);
  return txn_id;
}

void ClientActor::defer_store(const std::string& ttp,
                              const std::string& object_key, BytesView data) {
  if (directory_.empty()) {
    throw common::ProtocolError(
        "ClientActor::store_routed: owner unknown and no directory set");
  }
  PendingStore pending;
  pending.ttp = ttp;
  pending.object_key = object_key;
  pending.data = common::Payload::copy_of(data);
  pending_stores_.push_back(std::move(pending));

  common::BinaryWriter payload;
  payload.str(object_key);

  // All of one client's lookups share the pseudo-txn "dir": the per-txn
  // sequence check still sees a strictly increasing stream per sender.
  send(next_header(MsgType::kDirLookup, directory_, /*ttp=*/"", "dir",
                   crypto::sha256(common::BytesView{}),
                   network_->now() + options_.reply_window),
       payload.take());
}

void ClientActor::handle_dir_reply(const NrMessage& message) {
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  const std::string owner = r.str();
  crypto::RsaPublicKey owner_key = crypto::RsaPublicKey::decode(r.bytes());
  r.u64();  // ring version (informational; a later reply may re-route)
  r.expect_done();
  // The reply came through screen(), so it is from the trusted directory —
  // adopting the key it vouches for is the §5.1 out-of-band key channel.
  owner_cache_[object_key] = owner;
  trust_peer(owner, std::move(owner_key));

  // Issue every store parked on this key, in original call order.
  auto parked = std::stable_partition(
      pending_stores_.begin(), pending_stores_.end(),
      [&](const PendingStore& p) { return p.object_key != object_key; });
  std::vector<PendingStore> ready(std::make_move_iterator(parked),
                                  std::make_move_iterator(
                                      pending_stores_.end()));
  pending_stores_.erase(parked, pending_stores_.end());
  for (PendingStore& p : ready) {
    const std::string txn_id =
        store_impl(owner, p.ttp, p.object_key, p.data, /*chunk_size=*/0);
    routed_txns_.push_back(txn_id);
  }
}

void ClientActor::handle_resolve_query(const NrMessage& message) {
  // Bob-initiated Resolve (§4.3): the TTP asks whether we received Bob's
  // receipt. If we hold the NRR for that exact header, acknowledge it by
  // signing the header; otherwise ask for a restart.
  const MessageHeader& h = message.header;  // sender == TTP
  common::BinaryReader r(message.payload);
  const MessageHeader queried_header = MessageHeader::decode(r.bytes());
  r.expect_done();

  const auto it = txns_.find(h.txn_id);
  const bool acknowledged =
      it != txns_.end() && it->second.nrr_header.has_value() &&
      it->second.nrr_header->encode() == queried_header.encode();

  common::BinaryWriter payload;
  payload.str(acknowledged ? "continue" : "restart");
  payload.bytes(queried_header.encode());
  payload.bytes(acknowledged ? identity_->sign(queried_header.encode())
                             : Bytes{});

  send(next_header(MsgType::kResolveResponse, h.sender, h.ttp, h.txn_id,
                   queried_header.data_hash,
                   network_->now() + options_.reply_window),
       payload.take());
}

void ClientActor::handle_store_receipt(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  // A receipt settles the txn from any still-waiting state — including
  // mid-escalation, when a delayed NRR overtakes the TTP verdict. Any
  // other state (already completed, aborted, settled by verdict) makes
  // this a duplicate or a straggler: drop it without touching state or the
  // journal.
  if (txn.state != TxnState::kStorePending &&
      txn.state != TxnState::kResolvePending &&
      txn.state != TxnState::kResolveRetrying) {
    return;
  }
  if (h.sender != txn.provider || h.data_hash != txn.data_hash) {
    ++stats_.rejected_bad_hash;
    return;
  }
  std::shared_ptr<const crypto::RsaPublicKey> provider_key =
      peer_key_shared(txn.provider);
  const auto nrr =
      open_evidence_unverified(*identity_, h, message.evidence);
  if (!nrr) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  // Defer the two NRR signature checks to the crypto service: receipts
  // land across the shard in the same latency window, so their verifies
  // batch under each provider's key (one Montgomery context per provider).
  // The flush rules guarantee no event at this endpoint can observe the
  // txn before the completion settles it.
  std::vector<runtime::VerifyJob> jobs(2);
  jobs[0].key = provider_key;
  jobs[0].message = h.data_hash;
  jobs[0].signature = nrr->data_hash_signature;
  jobs[1].key = provider_key;
  jobs[1].message = h.encode();
  jobs[1].signature = nrr->header_signature;
  crypto_service().submit_verifies(
      std::move(jobs),
      [this, h, opened = *nrr](std::vector<bool> verdicts) {
        const auto txn_it = txns_.find(h.txn_id);
        if (txn_it == txns_.end()) return;
        Txn& pending_txn = txn_it->second;
        if (!verdicts[0] || !verdicts[1]) {
          ++stats_.rejected_bad_evidence;
          return;
        }
        pending_txn.nrr_header = h;
        pending_txn.nrr = opened;
        set_state(pending_txn, TxnState::kCompleted);
        // The NRR is the artifact §4.4 arbitration depends on: journal it
        // the moment it is verified so it survives a crash.
        journal_evidence("nrr", h.txn_id, pending_txn.provider,
                         pending_txn.object_key, pending_txn.chunk_size, h,
                         opened);
      });
}

void ClientActor::handle_fetch_response(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  const crypto::RsaPublicKey* provider_key = peer_key(txn.provider);

  // The response header's data_hash covers what Bob serves NOW; his
  // evidence must verify over it (he cannot deny serving these bytes).
  if (crypto::sha256(message.payload) != h.data_hash) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (!open_evidence(*identity_, *provider_key, h, message.evidence)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  txn.fetched = true;
  txn.fetched_data = message.payload;
  // The upload-to-download integrity link: what was served vs the hash both
  // parties signed at store time. For chunked objects the signed hash is
  // the Merkle root, so recompute the root over the served bytes.
  if (txn.chunk_size == 0) {
    txn.fetch_integrity_ok = (h.data_hash == txn.data_hash);
  } else {
    const crypto::MerkleTree tree(txn.fetched_data, txn.chunk_size);
    txn.fetch_integrity_ok = (tree.root() == txn.data_hash);
  }
}

void ClientActor::handle_chunk_response(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end() || it->second.chunk_size == 0) return;
  Txn& txn = it->second;

  ChunkAuditResult result;
  Bytes chunk;
  crypto::MerkleProof proof;
  try {
    common::BinaryReader r(message.payload);
    result.chunk_index = r.u64();
    chunk = r.bytes();
    proof = decode_proof(r.bytes());
    r.expect_done();
  } catch (const common::SerialError&) {
    result.verified = false;
    result.detail = "malformed chunk response";
    txn.audits.push_back(std::move(result));
    return;
  }

  // The provider signed the hash of the chunk it served.
  const crypto::RsaPublicKey* provider_key = peer_key(txn.provider);
  if (crypto::sha256(chunk) != h.data_hash ||
      !open_evidence(*identity_, *provider_key, h, message.evidence)) {
    ++stats_.rejected_bad_evidence;
    result.verified = false;
    result.detail = "chunk evidence failed verification";
    txn.audits.push_back(std::move(result));
    return;
  }

  // The audit proper: does the served chunk chain to the Merkle root both
  // parties signed at store time?
  result.verified = proof.leaf_index == result.chunk_index &&
                    crypto::MerkleTree::verify(chunk, proof, txn.data_hash);
  result.detail = result.verified
                      ? "chunk verified against the signed root"
                      : "proof does not chain to the signed root: chunk "
                        "tampered or substituted";
  txn.audits.push_back(std::move(result));
}

void ClientActor::handle_abort_reply(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  if (txn.state != TxnState::kAbortPending) return;

  if (h.flag == MsgType::kAbortError) {
    set_state(txn, TxnState::kAbortErrored);
    return;
  }
  const crypto::RsaPublicKey* provider_key = peer_key(txn.provider);
  const auto receipt =
      open_evidence(*identity_, *provider_key, h, message.evidence);
  if (!receipt) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  txn.abort_receipt_header = h;
  txn.abort_receipt = *receipt;
  set_state(txn, h.flag == MsgType::kAbortAccept ? TxnState::kAborted
                                                 : TxnState::kAbortRejected);
  journal_evidence("abort-receipt", h.txn_id, txn.provider, txn.object_key,
                   txn.chunk_size, h, *receipt);
}

void ClientActor::handle_resolve_verdict(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  // Only a txn still waiting on the TTP may be settled by a verdict. A
  // duplicate (or a verdict overtaken by the real NRR, or one provoked by
  // a post-settlement resolve call) must not move the state or append
  // evidence again.
  if (txn.state != TxnState::kResolvePending &&
      txn.state != TxnState::kResolveRetrying) {
    return;
  }

  common::BinaryReader r(message.payload);
  const std::string outcome = r.str();
  const Bytes receipt_header_bytes = r.bytes();
  const Bytes receipt_evidence = r.bytes();
  const Bytes ttp_statement = r.bytes();
  const Bytes ttp_signature = r.bytes();
  r.expect_done();

  if (outcome == "continued" && !receipt_evidence.empty()) {
    const crypto::RsaPublicKey* provider_key = peer_key(txn.provider);
    const MessageHeader receipt_header =
        MessageHeader::decode(receipt_header_bytes);
    const auto nrr = open_evidence(*identity_, *provider_key, receipt_header,
                                   receipt_evidence);
    if (nrr) {
      txn.nrr_header = receipt_header;
      txn.nrr = *nrr;
      set_state(txn, TxnState::kResolvedCompleted);
      journal_evidence("nrr", h.txn_id, txn.provider, txn.object_key,
                       txn.chunk_size, receipt_header, *nrr);
      return;
    }
  }
  // "If Bob does not reply the Resolve query ... the TTP will respond to
  // Alice by telling her that this session is failed and Bob did not
  // respond." The TTP statement is itself signed evidence.
  const crypto::RsaPublicKey* ttp_key = peer_key(txn.ttp);
  if (ttp_key != nullptr && !ttp_statement.empty() &&
      pki::Identity::verify(*ttp_key, ttp_statement, ttp_signature)) {
    txn.ttp_statement = ttp_statement;
    txn.ttp_statement_signature = ttp_signature;
  }
  // A "restart" verdict means the provider asked to redo the exchange
  // (§4.3). If the retry budget still has room and the object bytes were
  // kept, re-send the NRO instead of failing the session.
  if (outcome == "restart" && !txn.retry_data.empty() &&
      txn.store_attempts < 1 + options_.store_retries) {
    send_store(h.txn_id);
    return;
  }
  set_state(txn, TxnState::kResolvedFailed);
}

}  // namespace tpnr::nr
