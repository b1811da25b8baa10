#include "nr/provider.h"

#include "common/serial.h"
#include "consistency/view_identity.h"
#include "nr/chunked.h"

namespace tpnr::nr {

namespace {

// The cache key proofs for `object_key` are served under. Equivocating
// service keeps its pre-tamper snapshot in a separate view (the shared
// "<key>#orig" convention from consistency/view_identity.h) so the
// original tree and the honest current-bytes tree don't evict each other.
std::string proof_cache_key(const std::string& object_key,
                            bool equivocating) {
  return consistency::view_key(
      object_key, equivocating ? consistency::kEquivocationSnapshotView
                               : consistency::kPrimaryView);
}

}  // namespace

ProviderActor::ProviderActor(std::string id, net::Network& network,
                             pki::Identity& identity, crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng) {
  // Fault events in the store carry simulated injection times, which is
  // what lets an auditor's detection latency be measured.
  store_.bind_clock([&network] { return network.now(); });
}

const ProviderActor::TxnRecord* ProviderActor::transaction(
    const std::string& txn_id) const {
  const auto it = txns_.find(txn_id);
  return it == txns_.end() ? nullptr : &it->second;
}

bool ProviderActor::tamper(const std::string& txn_id, BytesView new_data) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return false;
  // Alias validation already forces a rebuild on the next proof request;
  // dropping the entry also releases the pinned pre-tamper buffer.
  merkle_cache_.invalidate(proof_cache_key(it->second.object_key, false));
  return store_.tamper(it->second.object_key, new_data);
}

std::optional<std::pair<MessageHeader, OpenedEvidence>>
ProviderActor::present_nro(const std::string& txn_id) const {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return std::nullopt;
  return std::make_pair(it->second.nro_header, it->second.nro);
}

std::optional<Bytes> ProviderActor::produce_object(const std::string& txn_id) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end()) return std::nullopt;
  auto record = store_.get(it->second.object_key);
  if (!record) return std::nullopt;
  return record->data.to_bytes();
}

void ProviderActor::on_message(const NrMessage& message) {
  switch (message.header.flag) {
    case MsgType::kStoreRequest:
      handle_store(message);
      break;
    case MsgType::kFetchRequest:
      handle_fetch(message);
      break;
    case MsgType::kChunkRequest:
      handle_chunk_request(message);
      break;
    case MsgType::kAbortRequest:
      handle_abort(message);
      break;
    case MsgType::kResolveQuery:
      handle_resolve_query(message);
      break;
    case MsgType::kResolveVerdict:
      handle_resolve_verdict(message);
      break;
    default:
      break;  // not addressed to the provider role
  }
}

void ProviderActor::handle_store(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  // Payload: object key + object bytes + chunk size (0 = flat object).
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  Bytes data = r.bytes();
  const std::uint32_t chunk_size = r.u32();
  r.expect_done();
  // Wrap the decoded bytes once, up front: hash validation, the txn
  // record's equivocation snapshot and the store's current version all
  // alias this single buffer — and the Merkle tree built for validation is
  // cached against it, so later chunk proofs are served without a rebuild.
  common::Payload stored(std::move(data));
  // "The peers should check the consistency between the hash of the
  // plaintext and the plaintext at first." For chunked objects the agreed
  // hash is the Merkle root over the declared chunking.
  if (chunk_size == 0) {
    if (crypto::sha256(stored) != h.data_hash) {
      ++stats_.rejected_bad_hash;
      return;
    }
  } else {
    // Primed under the version put() is about to assign, so later proof
    // requests (which pass the record's version) hit this entry.
    const auto tree =
        merkle_cache_.get_or_build(proof_cache_key(object_key, false), stored,
                                   chunk_size, store_.version_of(object_key) + 1);
    if (tree->root() != h.data_hash) {
      merkle_cache_.invalidate(proof_cache_key(object_key, false));
      ++stats_.rejected_bad_hash;
      return;
    }
  }
  const auto nro = open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  // Idempotent re-store (§5.5 fault tolerance): a client that lost the
  // receipt re-sends the NRO under a fresh header. Same txn + same agreed
  // hash → nothing is re-stored or re-journalled; only the receipt is
  // re-issued. A different hash under a known txn id is an attack, not a
  // retry.
  auto [it, is_new] = txns_.try_emplace(h.txn_id);
  TxnRecord& txn = it->second;
  if (!is_new) {
    if (h.data_hash != txn.data_hash) {
      ++stats_.rejected_bad_hash;
      return;
    }
    if (txn.state == TxnRecord::State::kAborted) return;  // stays aborted
    ++receipts_resent_;
  } else {
    txn.object_key = object_key;
    txn.data_hash = h.data_hash;
    txn.chunk_size = chunk_size;
    txn.nro_header = h;
    txn.nro = *nro;
    const Bytes data_md5 = crypto::md5(stored);
    if (chunk_size > 0) txn.original_data = stored;
    store_.put(object_key, stored, data_md5, network_->now());
    // The NRO is Bob's proof Alice sent these bytes: journal it with the
    // transaction facts before acknowledging anything.
    journal_evidence("nro", h.txn_id, h.sender, object_key, chunk_size, h,
                     *nro);
  }
  if (!behavior_.send_store_receipts) return;  // the unfair Bob of §4.3

  auto [receipt_header, evidence] =
      make_receipt(MsgType::kStoreReceipt, h.sender, /*ttp=*/"", h.txn_id,
                   h.data_hash, network_->now() + kReplyWindow);
  txn.receipt_header = receipt_header;
  send(std::move(receipt_header), {}, std::move(evidence));
}

void ProviderActor::resolve(const std::string& txn_id,
                            const std::string& ttp) {
  const auto it = txns_.find(txn_id);
  if (it == txns_.end() || !it->second.receipt_header) return;
  const MessageHeader& receipt = *it->second.receipt_header;

  // Same request shape the client uses: the TTP verifies the initiator's
  // signature over the header the resolve concerns.
  common::BinaryWriter payload;
  payload.str(receipt.recipient);  // respondent: the client
  payload.str("no acknowledgment of the NRR before timeout");
  payload.bytes(receipt.encode());
  payload.bytes(identity_->sign(receipt.encode()));
  payload.bytes(Bytes{});

  send(next_header(MsgType::kResolveRequest, ttp, ttp, txn_id,
                   receipt.data_hash, network_->now() + kReplyWindow),
       payload.take());
}

void ProviderActor::handle_resolve_verdict(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end()) return;
  TxnRecord& record = it->second;

  common::BinaryReader r(message.payload);
  const std::string outcome = r.str();
  const Bytes acked_header_bytes = r.bytes();
  const Bytes ack_signature = r.bytes();
  const Bytes ttp_statement = r.bytes();
  const Bytes ttp_signature = r.bytes();
  r.expect_done();

  if (outcome == "continued" && record.receipt_header) {
    // The acknowledgment: the client's signature over Bob's receipt header.
    const crypto::RsaPublicKey* client_key =
        peer_key(record.receipt_header->recipient);
    if (client_key != nullptr &&
        acked_header_bytes == record.receipt_header->encode() &&
        pki::Identity::verify(*client_key, acked_header_bytes,
                              ack_signature)) {
      record.client_acknowledged = true;
      record.ack_signature = ack_signature;
      return;
    }
  }
  // Otherwise keep the TTP's signed statement — Bob's protection when the
  // client goes silent.
  const crypto::RsaPublicKey* ttp_key = peer_key(h.sender);
  if (ttp_key != nullptr && !ttp_statement.empty() &&
      pki::Identity::verify(*ttp_key, ttp_statement, ttp_signature)) {
    record.ttp_statement = ttp_statement;
    record.ttp_statement_signature = ttp_signature;
  }
}

void ProviderActor::handle_fetch(const NrMessage& message) {
  if (!behavior_.respond_to_fetch) return;
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end() || it->second.state != TxnRecord::State::kStored) {
    return;  // nothing to serve
  }
  auto record = store_.get(it->second.object_key);
  if (!record) return;

  // The response evidence signs the hash of what is being served NOW: Bob
  // cannot later deny having served these exact bytes.
  const Bytes served_hash = crypto::sha256(record->data);
  auto [response_header, evidence] =
      make_receipt(MsgType::kFetchResponse, h.sender, /*ttp=*/"", h.txn_id,
                   served_hash, network_->now() + kReplyWindow);
  send(std::move(response_header), std::move(record->data),
       std::move(evidence));
}

void ProviderActor::handle_chunk_request(const NrMessage& message) {
  if (!behavior_.respond_to_fetch) return;  // dead/unresponsive replica
  const MessageHeader& h = message.header;
  const auto it = txns_.find(h.txn_id);
  if (it == txns_.end() || it->second.state != TxnRecord::State::kStored ||
      it->second.chunk_size == 0) {
    return;  // unknown or not a chunked object
  }
  common::BinaryReader r(message.payload);
  const std::uint64_t chunk_index = r.u64();
  r.expect_done();
  auto record = store_.get(it->second.object_key);
  if (!record) return;

  // Honest provider: the tree covers what is in the store NOW — any tamper
  // anywhere makes every recomputed proof fail against the signed root.
  // Equivocating provider: serve proofs from the ORIGINAL tree so audits of
  // clean chunks pass; only the tampered chunks themselves fail. Either way
  // the tree comes from the cache, which validates by buffer identity: a
  // cache hit proves the bytes are the exact bytes the tree was built over,
  // so cached service can never hide a modification.
  const bool equivocating = behavior_.equivocate_chunk_proofs;
  const common::Payload& proof_source =
      equivocating ? it->second.original_data : record->data;
  // Keyed on (object, version): a tree primed before a mutation can never
  // serve a proof for the successor version, even if a buffer were reused.
  // The equivocation snapshot is pinned to the version it was stored at.
  const auto tree = merkle_cache_.get_or_build(
      proof_cache_key(it->second.object_key, equivocating), proof_source,
      it->second.chunk_size, equivocating ? 1 : record->version);
  if (chunk_index >= tree->leaf_count()) return;
  const std::size_t offset = chunk_index * it->second.chunk_size;
  if (offset >= record->data.size()) return;
  const std::size_t len = std::min(it->second.chunk_size,
                                   record->data.size() - offset);
  const Bytes chunk(record->data.begin() + static_cast<std::ptrdiff_t>(offset),
                    record->data.begin() +
                        static_cast<std::ptrdiff_t>(offset + len));

  // Evidence signs the served chunk's hash: Bob cannot later deny what he
  // served for this audit.
  auto [response_header, evidence] =
      make_receipt(MsgType::kChunkResponse, h.sender, /*ttp=*/"", h.txn_id,
                   crypto::sha256(chunk), network_->now() + kReplyWindow);
  common::BinaryWriter payload;
  payload.u64(chunk_index);
  payload.bytes(chunk);
  payload.bytes(encode_proof(tree->prove(chunk_index)));
  send(std::move(response_header), payload.take(), std::move(evidence));
}

void ProviderActor::handle_abort(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  // Payload: the original store header + the NRO evidence, so consistency
  // can be verified even if the store request itself never arrived.
  MessageHeader original_header;
  Bytes nro_evidence;
  bool well_formed = true;
  try {
    common::BinaryReader r(message.payload);
    original_header = MessageHeader::decode(r.bytes());
    nro_evidence = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    well_formed = false;
  }
  if (well_formed) {
    well_formed = original_header.txn_id == h.txn_id &&
                  original_header.sender == h.sender &&
                  open_evidence(*identity_, *sender_key, original_header,
                                nro_evidence)
                      .has_value();
  }
  if (!well_formed) {
    // "Bob will send an Error message that requests Alice double check the
    // parameters ... regenerate it, and re-submit the request."
    send(next_header(MsgType::kAbortError, h.sender, "", h.txn_id, {},
                     network_->now() + kReplyWindow),
         {});
    return;
  }

  const auto it = txns_.find(h.txn_id);
  const bool can_abort =
      it == txns_.end() || it->second.state == TxnRecord::State::kStored;
  MsgType verdict = can_abort ? MsgType::kAbortAccept : MsgType::kAbortReject;
  if (can_abort && it != txns_.end()) {
    it->second.state = TxnRecord::State::kAborted;
    store_.remove(it->second.object_key);
    merkle_cache_.invalidate(proof_cache_key(it->second.object_key, false));
    merkle_cache_.invalidate(proof_cache_key(it->second.object_key, true));
  }
  auto [reply_header, evidence] =
      make_receipt(verdict, h.sender, /*ttp=*/"", h.txn_id,
                   original_header.data_hash, network_->now() + kReplyWindow);
  send(std::move(reply_header), {}, std::move(evidence));
}

void ProviderActor::handle_resolve_query(const NrMessage& message) {
  if (!behavior_.respond_to_resolve) return;  // malicious silence
  const MessageHeader& h = message.header;  // sender == TTP

  common::BinaryReader r(message.payload);
  const MessageHeader original_header = MessageHeader::decode(r.bytes());
  r.expect_done();
  const auto it = txns_.find(h.txn_id);
  const std::string action =
      it != txns_.end() ? "continue" : "restart";  // §4.3's two outcomes

  // Bob's receipt travels to Alice through the TTP; it is encrypted for
  // Alice (the initiator), not for the TTP.
  const std::string initiator = original_header.sender;
  auto [receipt_header, evidence] =
      make_receipt(MsgType::kStoreReceipt, initiator, /*ttp=*/"", h.txn_id,
                   original_header.data_hash, network_->now() + kReplyWindow);
  // If Bob never saw the transaction he still answers, but with no receipt
  // evidence — the TTP reports "restart".
  common::BinaryWriter payload;
  payload.str(action);
  payload.bytes(receipt_header.encode());
  payload.bytes(it != txns_.end() ? evidence : Bytes{});

  send(next_header(MsgType::kResolveResponse, h.sender, h.ttp, h.txn_id,
                   original_header.data_hash, network_->now() + kReplyWindow),
       payload.take());
}

}  // namespace tpnr::nr
