#include "nr/ttp.h"

#include "common/serial.h"

namespace tpnr::nr {

std::uint32_t ttp_partition_of(const std::string& txn_id,
                               std::uint32_t partitions) {
  if (partitions <= 1) return 0;
  // FNV-1a 64. Not a crypto hash — it only needs to be a fixed, documented
  // function every party computes identically; an adversary steering txns
  // to one partition gains nothing (partitions are equally trusted).
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : txn_id) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<std::uint32_t>(h % partitions);
}

std::string ttp_partition_name(const std::string& base, std::uint32_t index) {
  return base + ".p" + std::to_string(index);
}

TtpActor::TtpActor(std::string id, net::Network& network,
                   pki::Identity& identity, crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng) {}

std::optional<TtpVerdictRecord> TtpActor::verdict_for(
    const std::string& txn_id) const {
  // Search from the back: the most recent verdict governs.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->txn_id == txn_id) return *it;
  }
  return std::nullopt;
}

void TtpActor::on_message(const NrMessage& message) {
  switch (message.header.flag) {
    case MsgType::kResolveRequest:
      handle_resolve_request(message);
      break;
    case MsgType::kResolveResponse:
      handle_resolve_response(message);
      break;
    default:
      break;
  }
}

void TtpActor::handle_resolve_request(const NrMessage& message) {
  const MessageHeader& h = message.header;

  common::BinaryReader r(message.payload);
  const std::string respondent = r.str();
  const std::string report = r.str();
  const Bytes original_header_bytes = r.bytes();
  const Bytes header_signature = r.bytes();
  r.bytes();  // NRO evidence, sealed for the respondent
  r.expect_done();

  // Genuineness: the initiator must prove the original header is theirs.
  MessageHeader original_header;
  bool genuine = pki::Identity::verify(
      *peer_key(h.sender), original_header_bytes, header_signature);
  if (genuine) {
    try {
      original_header = MessageHeader::decode(original_header_bytes);
    } catch (const common::SerialError&) {
      genuine = false;
    }
  }
  // Consistency: the resolve must concern a transaction between the
  // initiator and the named respondent.
  if (genuine) {
    genuine = original_header.txn_id == h.txn_id &&
              original_header.sender == h.sender &&
              original_header.recipient == respondent &&
              peer_key(respondent) != nullptr;
  }
  // Idempotence: a repeated genuine request for a transaction we already
  // handled does not re-open the case. Settled → re-send the cached
  // verdict (the client's retry means the first copy was lost); still
  // in-flight → the respondent query and its timer are already armed, so
  // the duplicate is simply dropped.
  const PendingResolve* existing = pending_.find(h.txn_id);
  if (genuine && existing != nullptr && existing->initiator == h.sender) {
    if (existing->settled) resend_verdict(h.txn_id);
    return;
  }
  PendingResolve pending;
  pending.initiator = h.sender;
  pending.respondent = respondent;
  if (!genuine) {
    pending_.open(h.txn_id, std::move(pending));
    deliver_verdict(h.txn_id, "invalid-request", {}, {});
    return;
  }
  pending.original_header = original_header;
  pending.report = report;
  pending_.open(h.txn_id, std::move(pending));

  // "the TTP will generate the Resolve request to the recipient along with
  // a time stamp" — the header's time_limit carries the deadline.
  common::BinaryWriter payload;
  payload.bytes(original_header_bytes);

  send(next_header(MsgType::kResolveQuery, respondent, id(), h.txn_id,
                   original_header.data_hash,
                   network_->now() + kRequestWindow),
       payload.take());

  await_reply(
      pending_, kRespondentWait, 1, h.txn_id,
      [](const std::string&, std::size_t) {},  // no retries: never re-queries
      [this](const std::string& txn_id) {
        deliver_verdict(txn_id, "no-response", {}, {});
      });
}

void TtpActor::handle_resolve_response(const NrMessage& message) {
  const MessageHeader& h = message.header;
  const PendingResolve* pending = pending_.find(h.txn_id);
  if (pending == nullptr || pending->settled) return;
  if (h.sender != pending->respondent) return;

  common::BinaryReader r(message.payload);
  const std::string action = r.str();
  const Bytes receipt_header = r.bytes();
  const Bytes receipt_evidence = r.bytes();
  r.expect_done();
  const std::string outcome =
      (action == "continue" && !receipt_evidence.empty()) ? "continued"
                                                          : "restart";
  deliver_verdict(h.txn_id, outcome, receipt_header, receipt_evidence);
}

void TtpActor::deliver_verdict(const std::string& txn_id,
                               const std::string& outcome,
                               BytesView receipt_header,
                               BytesView receipt_evidence) {
  PendingResolve* pending = pending_.find(txn_id);
  if (pending == nullptr || pending->settled) return;
  pending->settled = true;
  pending_.settle(txn_id);  // settling the case ends its respondent wait

  // The signed statement: outcome bound to txn, parties and time.
  common::BinaryWriter statement;
  statement.str(outcome);
  statement.str(txn_id);
  statement.str(pending->initiator);
  statement.str(pending->respondent);
  statement.i64(network_->now());
  const Bytes statement_bytes = statement.take();
  const Bytes signature = identity_->sign(statement_bytes);

  TtpVerdictRecord record;
  record.txn_id = txn_id;
  record.initiator = pending->initiator;
  record.respondent = pending->respondent;
  record.outcome = outcome;
  record.decided_at = network_->now();
  record.statement = statement_bytes;
  record.statement_signature = signature;
  log_.push_back(record);

  // Cache everything a duplicate request needs answered verbatim. The
  // statement embeds the decision time, so re-signing on resend would
  // produce a DIFFERENT statement for the same verdict — the cache keeps
  // the evidence canonical.
  pending->outcome = outcome;
  pending->receipt_header =
      Bytes(receipt_header.begin(), receipt_header.end());
  pending->receipt_evidence =
      Bytes(receipt_evidence.begin(), receipt_evidence.end());
  pending->statement = statement_bytes;
  pending->statement_signature = signature;
  send_verdict(txn_id, *pending);
}

void TtpActor::resend_verdict(const std::string& txn_id) {
  const PendingResolve* pending = pending_.find(txn_id);
  if (pending == nullptr || !pending->settled) return;
  ++verdicts_resent_;
  send_verdict(txn_id, *pending);
}

void TtpActor::send_verdict(const std::string& txn_id,
                            const PendingResolve& resolve) {
  common::BinaryWriter payload;
  payload.str(resolve.outcome);
  payload.bytes(resolve.receipt_header);
  payload.bytes(resolve.receipt_evidence);
  payload.bytes(resolve.statement);
  payload.bytes(resolve.statement_signature);
  // A fresh header (new nonce/seq, live deadline) over the cached verdict
  // bytes: a resend passes the peer's replay screen, the decision is
  // unchanged.
  send(next_header(MsgType::kResolveVerdict, resolve.initiator, id(), txn_id,
                   resolve.original_header.data_hash,
                   network_->now() + kRequestWindow),
       payload.take());
}

}  // namespace tpnr::nr
