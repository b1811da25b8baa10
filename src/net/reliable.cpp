#include "net/reliable.h"

#include "common/serial.h"

namespace tpnr::net {

namespace {
constexpr std::uint8_t kDataFrame = 1;
constexpr std::uint8_t kAckFrame = 2;
}  // namespace

std::string channel_event_name(ChannelEvent::Kind kind) {
  switch (kind) {
    case ChannelEvent::Kind::kSend:
      return "send";
    case ChannelEvent::Kind::kRetransmit:
      return "retransmit";
    case ChannelEvent::Kind::kAckSent:
      return "ack-sent";
    case ChannelEvent::Kind::kAckReceived:
      return "ack-received";
    case ChannelEvent::Kind::kDupSuppressed:
      return "dup-suppressed";
    case ChannelEvent::Kind::kUnreachable:
      return "unreachable";
  }
  return "unknown";
}

ReliableChannel::ReliableChannel(Network& network, std::string endpoint,
                                 std::uint64_t seed, ReliableOptions options)
    : network_(&network),
      endpoint_(std::move(endpoint)),
      self_id_(network.endpoint_id(endpoint_)),
      ack_topic_id_(network.topic_id(kAckTopic)),
      rng_(seed),
      options_(options) {}

void ReliableChannel::attach(DeliverHandler handler) {
  handler_ = std::move(handler);
  network_->attach(endpoint_, [this](const Envelope& envelope) {
    on_envelope(envelope);
  });
}

std::uint64_t ReliableChannel::send(const std::string& to,
                                    const std::string& topic,
                                    BytesView payload) {
  const std::uint64_t seq = next_seq_++;
  common::BinaryWriter frame;
  frame.u8(kDataFrame);
  frame.u64(seq);
  frame.bytes(payload);

  Pending pending;
  pending.to = to;
  pending.topic = topic;
  pending.to_id = network_->endpoint_id(to);
  pending.topic_id = network_->topic_id(topic);
  pending.frame = frame.take();
  pending.rto = options_.initial_rto;
  pending_[seq] = std::move(pending);
  ++stats_.accepted;
  transmit(seq);
  return seq;
}

DeliveryStatus ReliableChannel::status(std::uint64_t seq) const {
  if (settled_.contains(seq)) return DeliveryStatus::kAcked;
  if (unreachable_seqs_.contains(seq)) return DeliveryStatus::kUnreachable;
  return DeliveryStatus::kPending;
}

void ReliableChannel::transmit(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  ++p.attempts;
  ++stats_.transmissions;
  if (p.attempts > 1) {
    ++stats_.retransmissions;
    stats_.bytes_retransmitted += p.frame.size();
  }
  record(p.attempts > 1 ? ChannelEvent::Kind::kRetransmit
                        : ChannelEvent::Kind::kSend,
         p.to, seq, p.attempts);
  network_->send(self_id_, p.to_id, p.topic_id, p.frame);

  common::SimTime delay = p.rto;
  if (options_.rto_jitter > 0) {
    delay += static_cast<common::SimTime>(rng_.uniform(
        static_cast<std::uint64_t>(options_.rto_jitter) + 1));
  }
  p.rto = static_cast<common::SimTime>(static_cast<double>(p.rto) *
                                       options_.backoff);
  if (p.rto > options_.max_rto) p.rto = options_.max_rto;
  arm_timer(seq, delay);
}

void ReliableChannel::arm_timer(std::uint64_t seq, common::SimTime delay) {
  network_->schedule(delay, [this, seq] {
    const auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // acked meanwhile
    if (it->second.attempts >= static_cast<std::uint32_t>(
                                   options_.max_attempts)) {
      ++stats_.unreachable;
      record(ChannelEvent::Kind::kUnreachable, it->second.to, seq,
             it->second.attempts);
      Pending dead = std::move(it->second);
      pending_.erase(it);
      unreachable_seqs_.insert(seq);
      while (unreachable_seqs_.size() > options_.dedup_window) {
        unreachable_seqs_.erase(unreachable_seqs_.begin());
      }
      if (unreachable_handler_) {
        unreachable_handler_(dead.to, dead.topic, seq);
      }
      return;
    }
    transmit(seq);
  });
}

bool ReliableChannel::note_received(const std::string& peer,
                                    std::uint64_t seq) {
  PeerRecv& state = recv_[peer];
  if (seq <= state.floor || state.seen.contains(seq)) return false;
  state.seen.insert(seq);
  // Compact contiguous prefixes into the floor, then cap the window.
  while (state.seen.contains(state.floor + 1)) {
    ++state.floor;
    state.seen.erase(state.floor);
  }
  while (state.seen.size() > options_.dedup_window) {
    const std::uint64_t lowest = *state.seen.begin();
    if (lowest > state.floor) state.floor = lowest;
    state.seen.erase(state.seen.begin());
  }
  return true;
}

void ReliableChannel::on_envelope(const Envelope& envelope) {
  std::uint8_t kind = 0;
  std::uint64_t seq = 0;
  Bytes app_payload;
  bool framed = true;
  try {
    common::BinaryReader r(envelope.payload);
    kind = r.u8();
    seq = r.u64();
    if (kind == kDataFrame) {
      app_payload = r.bytes();
      r.expect_done();
    } else if (kind == kAckFrame) {
      r.expect_done();
    } else {
      framed = false;
    }
  } catch (const common::SerialError&) {
    framed = false;
  }
  if (!framed) {
    // Raw traffic from a peer without a channel: pass through untouched.
    if (handler_) handler_(envelope);
    return;
  }

  if (kind == kAckFrame) {
    ++stats_.acks_received;
    record(ChannelEvent::Kind::kAckReceived, envelope.from, seq, 0);
    const auto it = pending_.find(seq);
    if (it == pending_.end()) {
      ++stats_.dup_acks;
      const auto settled = settled_.find(seq);
      if (settled != settled_.end() && settled->second) {
        ++stats_.spurious_retransmissions;
      }
      return;
    }
    settled_[seq] = it->second.attempts > 1;
    while (settled_.size() > options_.dedup_window) {
      settled_.erase(settled_.begin());
    }
    pending_.erase(it);
    return;
  }

  // Data frame: ack EVERY copy (our previous ack may have been lost), but
  // deliver at most once.
  common::BinaryWriter ack;
  ack.u8(kAckFrame);
  ack.u64(seq);
  ++stats_.acks_sent;
  record(ChannelEvent::Kind::kAckSent, envelope.from, seq, 0);
  network_->send(self_id_, network_->endpoint_id(envelope.from),
                 ack_topic_id_, ack.take());

  if (!note_received(envelope.from, seq)) {
    ++stats_.dups_suppressed;
    record(ChannelEvent::Kind::kDupSuppressed, envelope.from, seq, 0);
    return;
  }
  if (handler_) {
    // Field-by-field: copying the whole envelope would pointlessly alias the
    // framed payload we are about to replace.
    Envelope unwrapped;
    unwrapped.id = envelope.id;
    unwrapped.from = envelope.from;
    unwrapped.to = envelope.to;
    unwrapped.topic = envelope.topic;
    unwrapped.sent_at = envelope.sent_at;
    unwrapped.delivered_at = envelope.delivered_at;
    unwrapped.payload = std::move(app_payload);
    handler_(unwrapped);
  }
}

void ReliableChannel::record(ChannelEvent::Kind kind, const std::string& peer,
                             std::uint64_t seq, std::uint32_t attempt) {
  if (!options_.trace) return;
  ChannelEvent event;
  event.kind = kind;
  event.at = network_->now();
  event.peer = peer;
  event.seq = seq;
  event.attempt = attempt;
  trace_.push_back(std::move(event));
}

}  // namespace tpnr::net
