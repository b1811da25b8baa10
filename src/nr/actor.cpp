#include "nr/actor.h"

#include "persist/records.h"
#include "pki/key_intern.h"
#include "runtime/engine.h"

namespace tpnr::nr {

NrActor::NrActor(std::string id, net::Network& network,
                 pki::Identity& identity, crypto::Drbg& rng)
    : network_(&network), identity_(&identity), rng_(&rng),
      id_(std::move(id)) {
  network_->attach(id_, [this](const net::Envelope& envelope) {
    receive(envelope);
  });
  self_id_ = network_->endpoint_id(id_);
}

void NrActor::receive(const net::Envelope& envelope) {
  ++stats_.received;
  try {
    const NrMessage message = NrMessage::decode(envelope.payload);
    if (!screen(message)) return;
    ++stats_.accepted;
    // Replies sent from inside on_message stay on the inbound topic, so a
    // whole conversation is accounted under one topic.
    reply_topic_ = envelope.topic;
    on_message(message);
  } catch (const common::SerialError&) {
    // Handlers read their whole payload before their first state change,
    // so a rejected message leaves no trace beyond this count.
    ++stats_.rejected_bad_hash;
  }
  reply_topic_.clear();
}

void NrActor::use_reliable(std::uint64_t seed, net::ReliableOptions options) {
  channel_ = std::make_unique<net::ReliableChannel>(*network_, id_, seed,
                                                    options);
  // The channel takes over the network endpoint; deduped app payloads come
  // back through the same screening path.
  channel_->attach([this](const net::Envelope& envelope) {
    receive(envelope);
  });
}

void NrActor::trust_peer(const std::string& peer_id,
                         crypto::RsaPublicKey key) {
  peers_[peer_id] = pki::intern_public_key(std::move(key));
}

const crypto::RsaPublicKey* NrActor::peer_key(
    const std::string& peer_id) const {
  const auto it = peers_.find(peer_id);
  return it == peers_.end() ? nullptr : it->second.get();
}

bool NrActor::screen(const NrMessage& message) {
  const MessageHeader& h = message.header;
  // Reflection defence (§5.2): a message must name this actor as its
  // recipient; our own messages bounced back are rejected here.
  if (policy_.check_addressee && h.recipient != id_) {
    ++stats_.rejected_wrong_addressee;
    return false;
  }
  if (peer_key(h.sender) == nullptr) {
    ++stats_.rejected_unknown_sender;
    return false;
  }
  // Timeliness (§5.5): each message carries an absolute deadline.
  if (policy_.check_time_limit && h.time_limit != 0 &&
      network_->now() > h.time_limit) {
    ++stats_.rejected_expired;
    return false;
  }
  // Replay defence (§5.4): nonces are single-use.
  if (policy_.check_nonce && !h.nonce.empty() &&
      !seen_nonces_.insert(h.nonce).second) {
    ++stats_.rejected_replay;
    return false;
  }
  // Interleaving defence (§5.3): the sequence number must strictly increase
  // per (transaction, sender) — per sender, because a lost message must not
  // burn a number the peer will use (e.g. a dropped receipt followed by an
  // abort request).
  auto [it, inserted] =
      txn_last_seq_.try_emplace(h.txn_id + "|" + h.sender, 0);
  if (policy_.check_sequence && h.seq_no <= it->second) {
    ++stats_.rejected_bad_sequence;
    return false;
  }
  if (it->second < h.seq_no) it->second = h.seq_no;
  // Keep our emit counter ahead of whatever we have now seen.
  auto& next = txn_next_seq_[h.txn_id];
  if (next < h.seq_no) next = h.seq_no;
  return true;
}

void NrActor::send(const std::string& to, NrMessage message) {
  send_on_topic(to, reply_topic_.empty() ? default_topic_ : reply_topic_,
                std::move(message));
}

void NrActor::send(MessageHeader header, common::Payload payload,
                   common::Payload evidence) {
  NrMessage message;
  message.header = std::move(header);
  message.payload = std::move(payload);
  message.evidence = std::move(evidence);
  const std::string to = message.header.recipient;
  send(to, std::move(message));
}

void NrActor::send_on_topic(const std::string& to, const std::string& topic,
                            NrMessage message) {
  ++stats_.sent;
  if (channel_ != nullptr) {
    channel_->send(to, topic, message.encode());
  } else {
    network_->send(self_id_, network_->endpoint_id(to),
                   network_->topic_id(topic), message.encode());
  }
}

void NrActor::journal_evidence(const std::string& role,
                               const std::string& txn_id,
                               const std::string& signer,
                               const std::string& object_key,
                               std::size_t chunk_size,
                               const MessageHeader& header,
                               const OpenedEvidence& opened) {
  if (journal_ == nullptr) return;
  persist::EvidenceRecord record;
  record.owner = id_;
  record.role = role;
  record.txn_id = txn_id;
  record.signer = signer;
  record.object_key = object_key;
  record.chunk_size = chunk_size;
  record.header = header;
  record.data_hash_signature = opened.data_hash_signature;
  record.header_signature = opened.header_signature;
  journal_->record(persist::RecordType::kEvidence, record.encode());
}

MessageHeader NrActor::next_header(MsgType flag, const std::string& recipient,
                                   const std::string& ttp,
                                   const std::string& txn_id,
                                   BytesView data_hash,
                                   common::SimTime time_limit) {
  MessageHeader h;
  h.flag = flag;
  h.sender = id_;
  h.recipient = recipient;
  h.ttp = ttp;
  h.txn_id = txn_id;
  h.seq_no = ++txn_next_seq_[txn_id];
  h.nonce = rng_->bytes(16);
  h.time_limit = time_limit;
  h.data_hash = Bytes(data_hash.begin(), data_hash.end());
  return h;
}

std::pair<MessageHeader, Bytes> NrActor::make_receipt(
    MsgType flag, const std::string& recipient, const std::string& ttp,
    const std::string& txn_id, BytesView data_hash,
    common::SimTime time_limit) {
  const crypto::RsaPublicKey* recipient_key = peer_key(recipient);
  MessageHeader header =
      next_header(flag, recipient, ttp, txn_id, data_hash, time_limit);
  Bytes evidence;
  if (recipient_key != nullptr) {
    evidence = make_evidence(*identity_, *recipient_key, header, *rng_);
  }
  return {std::move(header), std::move(evidence)};
}

}  // namespace tpnr::nr
