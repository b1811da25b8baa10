// Reliable delivery over the lossy simulated network.
//
// A ReliableChannel wraps one endpoint's traffic with sequence numbers,
// positive acks, RTO-based retransmission (exponential backoff + jitter, a
// max-attempt cap that surfaces kUnreachable) and receiver-side dedup, so
// the layers above see at-most-once delivery of each message no matter how
// the link below loses, duplicates or reorders frames. Retransmission
// timers ride the network's event queue; all jitter comes from a seeded
// Drbg, so runs are bit-reproducible.
//
// Wire framing (common/serial canonical encoding):
//   data := u8(1) u64(seq) bytes(app_payload)   — on the caller's topic
//   ack  := u8(2) u64(seq)                      — on topic "rel.ack"
// Inbound envelopes that do not parse as either frame are handed to the
// delivery handler untouched, so a channel-using endpoint still interops
// with peers sending raw (unreliable) traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "net/network.h"

namespace tpnr::net {

/// Retransmission policy. Defaults suit the simulator's millisecond links.
struct ReliableOptions {
  common::SimTime initial_rto = 200 * common::kMillisecond;
  double backoff = 2.0;  ///< RTO multiplier per retransmission
  common::SimTime max_rto = 8 * common::kSecond;
  /// Uniform extra in [0, rto_jitter] added to every armed timer, so
  /// synchronized senders do not retransmit in lockstep.
  common::SimTime rto_jitter = 25 * common::kMillisecond;
  std::size_t max_attempts = 8;  ///< total transmissions including the first
  /// Per-peer count of remembered received seqs; duplicates inside the
  /// window are suppressed exactly, older ones conservatively (seqs at or
  /// below the compaction floor count as seen).
  std::size_t dedup_window = 1024;
  bool trace = false;  ///< record a ChannelEvent timeline (examples, tests)
};

/// Fate of one send() as observable through status().
enum class DeliveryStatus : std::uint8_t {
  kPending = 0,   ///< in flight (or never submitted)
  kAcked,         ///< positively acknowledged by the peer
  kUnreachable,   ///< gave up after max_attempts transmissions
};

/// Per-channel delivery/retry accounting.
struct RetryStats {
  std::uint64_t accepted = 0;         ///< app messages submitted to send()
  std::uint64_t transmissions = 0;    ///< data frames put on the wire
  std::uint64_t retransmissions = 0;  ///< transmissions beyond each first
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t dup_acks = 0;  ///< acks for already-settled seqs
  /// Dup acks for seqs this sender had retransmitted: the retransmission
  /// was unnecessary (the original — or an earlier copy — got through).
  std::uint64_t spurious_retransmissions = 0;
  std::uint64_t dups_suppressed = 0;  ///< receiver-side duplicate data frames
  std::uint64_t unreachable = 0;      ///< sends that exhausted max_attempts
};

/// One entry of the optional channel timeline (ReliableOptions::trace).
struct ChannelEvent {
  enum class Kind : std::uint8_t {
    kSend = 1,
    kRetransmit,
    kAckSent,
    kAckReceived,
    kDupSuppressed,
    kUnreachable,
  };
  Kind kind = Kind::kSend;
  common::SimTime at = 0;
  std::string peer;
  std::uint64_t seq = 0;
  std::uint32_t attempt = 0;  ///< transmissions so far for this seq
};

std::string channel_event_name(ChannelEvent::Kind kind);

class ReliableChannel {
 public:
  using DeliverHandler = std::function<void(const Envelope&)>;
  /// Called once when a send exhausts max_attempts (peer, topic, seq).
  using UnreachableHandler = std::function<void(
      const std::string&, const std::string&, std::uint64_t)>;

  /// Does NOT attach to the network yet — call attach() with the upstream
  /// delivery handler first.
  ReliableChannel(Network& network, std::string endpoint, std::uint64_t seed,
                  ReliableOptions options = ReliableOptions{});

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Registers this channel as the network handler for the endpoint; data
  /// frames are deduped, acked, unwrapped and passed to `handler` (with the
  /// envelope's payload replaced by the app payload).
  void attach(DeliverHandler handler);

  void set_unreachable_handler(UnreachableHandler handler) {
    unreachable_handler_ = std::move(handler);
  }

  /// Queues `payload` for reliable delivery; returns the channel sequence
  /// number (use with status()).
  std::uint64_t send(const std::string& to, const std::string& topic,
                     BytesView payload);

  [[nodiscard]] DeliveryStatus status(std::uint64_t seq) const;
  [[nodiscard]] const RetryStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<ChannelEvent>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] const ReliableOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }

  /// Topic acks travel on, so retransmit/ack overhead is attributable via
  /// net::TopicStats separately from app traffic.
  static constexpr const char* kAckTopic = "rel.ack";

 private:
  struct Pending {
    std::string to;             ///< peer name (events, unreachable handler)
    std::string topic;
    EndpointId to_id = 0;       ///< interned once; retransmits skip strings
    TopicId topic_id = 0;
    /// Encoded data frame, retransmitted byte-identically. COW: every
    /// transmission shares this buffer with the in-flight envelope.
    common::Payload frame;
    std::uint32_t attempts = 0;
    common::SimTime rto = 0;  ///< next backoff step
  };
  /// Receiver-side per-peer dedup state: `floor` plus the set of seen seqs
  /// above it; the set is compacted into the floor as it becomes contiguous
  /// and capped at dedup_window by raising the floor.
  struct PeerRecv {
    std::uint64_t floor = 0;  ///< every seq <= floor counts as seen
    std::set<std::uint64_t> seen;
  };

  void on_envelope(const Envelope& envelope);
  void transmit(std::uint64_t seq);
  void arm_timer(std::uint64_t seq, common::SimTime delay);
  void record(ChannelEvent::Kind kind, const std::string& peer,
              std::uint64_t seq, std::uint32_t attempt);
  bool note_received(const std::string& peer, std::uint64_t seq);

  Network* network_;
  std::string endpoint_;
  EndpointId self_id_;      ///< interned once in the constructor
  TopicId ack_topic_id_;
  crypto::Drbg rng_;
  ReliableOptions options_;
  DeliverHandler handler_;
  UnreachableHandler unreachable_handler_;
  RetryStats stats_;
  std::vector<ChannelEvent> trace_;
  std::map<std::uint64_t, Pending> pending_;
  /// Recently settled seqs -> whether they had been retransmitted (for
  /// dup-ack / spurious-retransmission accounting); bounded by dedup_window.
  std::map<std::uint64_t, bool> settled_;
  std::map<std::string, PeerRecv> recv_;
  /// Recently given-up seqs (for status()); bounded by dedup_window, the
  /// oldest evicted first, as in settled_.
  std::set<std::uint64_t> unreachable_seqs_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace tpnr::net
