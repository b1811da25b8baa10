// Base machinery shared by the TPNR actors (client Alice, provider Bob,
// TTP): authenticated peer-key directory, replay/uniqueness bookkeeping,
// send helpers and counters. Actors are endpoints on the simulated network;
// every message is an encoded NrMessage on topic "nr".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "crypto/drbg.h"
#include "crypto/hash.h"
#include "net/network.h"
#include "net/reliable.h"
#include "nr/evidence.h"
#include "nr/message.h"
#include "persist/journal.h"
#include "pki/identity.h"

namespace tpnr::runtime {
class CryptoService;
}  // namespace tpnr::runtime

namespace tpnr::nr {

/// How long a provider's reply stays actionable: the time limit (§5.5) on
/// every receipt, response and error a provider sends.
inline constexpr common::SimTime kReplyWindow = 30 * common::kSecond;
/// The time limit (§5.5) on every request, query and verdict a client,
/// auditor, TTP or directory sends.
inline constexpr common::SimTime kRequestWindow = 10 * common::kSecond;

/// How long a party waits for a reply (§5.5) before it re-sends or gives
/// up: attempt n (from 1) waits timeout + backoff·(n−1), and `retries`
/// re-sends may follow the first send. NrActor::await_reply runs it.
struct RetryPolicy {
  common::SimTime timeout = 0;
  common::SimTime backoff = 0;
  std::size_t retries = 0;

  [[nodiscard]] constexpr common::SimTime wait(std::size_t attempt) const {
    return timeout + backoff * static_cast<common::SimTime>(attempt - 1);
  }
};

/// Why an inbound message was rejected (accumulated per actor; the attack
/// benches read these to show WHICH defence fired).
struct ActorStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_unknown_sender = 0;
  std::uint64_t rejected_expired = 0;       ///< past the time limit (§5.5)
  std::uint64_t rejected_replay = 0;        ///< nonce or stale seq (§5.4)
  std::uint64_t rejected_bad_sequence = 0;  ///< out-of-order seq (§5.3)
  std::uint64_t rejected_bad_hash = 0;      ///< payload/hash inconsistency
  std::uint64_t rejected_bad_evidence = 0;  ///< decryption/signature failure
  std::uint64_t rejected_wrong_addressee = 0;  ///< reflected message (§5.2)
};

/// Which of the generic §5 defences are active. All on by default; the
/// attack benches switch individual ones off to demonstrate that each
/// defence is load-bearing.
struct ScreeningPolicy {
  bool check_addressee = true;  ///< §5.2 reflection
  bool check_nonce = true;      ///< §5.4 replay
  bool check_sequence = true;   ///< §5.3 interleaving
  bool check_time_limit = true; ///< §5.5 timeliness
};

class NrActor {
 public:
  NrActor(std::string id, net::Network& network, pki::Identity& identity,
          crypto::Drbg& rng);
  virtual ~NrActor() = default;

  NrActor(const NrActor&) = delete;
  NrActor& operator=(const NrActor&) = delete;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const ActorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] pki::Identity& identity() noexcept { return *identity_; }

  /// Records an authenticated peer key (obtained via certificates out of
  /// band; §5.1 requires keys to be authenticated before use).
  void trust_peer(const std::string& peer_id, crypto::RsaPublicKey key);

  void set_screening_policy(ScreeningPolicy policy) noexcept {
    policy_ = policy;
  }
  [[nodiscard]] const ScreeningPolicy& screening_policy() const noexcept {
    return policy_;
  }

  /// Journals the evidence this actor accepts (NRO/NRR/abort receipts)
  /// through the durability seam, so it survives to arbitration across a
  /// crash. nullptr (the default) keeps the actor memory-only.
  void set_journal(persist::Journal* journal) noexcept { journal_ = journal; }
  [[nodiscard]] persist::Journal* journal() const noexcept {
    return journal_;
  }

  /// Puts this actor's traffic behind a ReliableChannel: everything it
  /// sends is sequenced/acked/retransmitted, and inbound duplicates are
  /// suppressed below the protocol layer. Raw inbound traffic from peers
  /// without a channel still gets through (frame passthrough).
  void use_reliable(std::uint64_t seed,
                    net::ReliableOptions options = net::ReliableOptions{});
  [[nodiscard]] net::ReliableChannel* reliable_channel() noexcept {
    return channel_.get();
  }

 protected:
  /// Subclass dispatch for an already-screened message.
  virtual void on_message(const NrMessage& message) = 0;

  /// Generic screening every inbound message passes first: addressee check
  /// (reflection), sender known, time limit, nonce freshness, per-txn
  /// monotone sequence. Returns false (and bumps a counter) on violation.
  bool screen(const NrMessage& message);

  void send(const std::string& to, NrMessage message);
  /// send() to header.recipient.
  void send(MessageHeader header, common::Payload payload,
            common::Payload evidence = {});

  /// send() with an explicit topic, overriding the default/reply topic.
  /// Out-of-band conversations (the consistency layer's client↔client
  /// gossip on "cons.gossip") use this so their traffic never masquerades
  /// as protocol traffic in the per-topic stats.
  void send_on_topic(const std::string& to, const std::string& topic,
                     NrMessage message);

  /// Topic for messages this actor ORIGINATES. Replies sent while handling
  /// an inbound message inherit that message's topic instead, so an entire
  /// challenge/response conversation lands on one topic and
  /// net::TopicStats can attribute its traffic (protocol "nr" vs audit
  /// "nr.audit").
  void set_default_topic(std::string topic) {
    default_topic_ = std::move(topic);
  }

  [[nodiscard]] const crypto::RsaPublicKey* peer_key(
      const std::string& peer_id) const;

  /// The interned shared key for `peer_id` (nullptr when untrusted). A
  /// deferred CryptoService verify job holds this, keeping the key — and
  /// its cached Montgomery context — alive past the submitting handler.
  [[nodiscard]] std::shared_ptr<const crypto::RsaPublicKey> peer_key_shared(
      const std::string& peer_id) const;

  /// The engine's crypto batching service (digest/verify submission).
  [[nodiscard]] runtime::CryptoService& crypto_service();

  /// Builds a header with fresh nonce and next sequence number for `txn`.
  MessageHeader next_header(MsgType flag, const std::string& recipient,
                            const std::string& ttp, const std::string& txn_id,
                            BytesView data_hash, common::SimTime time_limit);

  /// next_header() plus the evidence sealed for `recipient` over it — or
  /// no evidence when `recipient`'s key is unknown. The draw order is fixed:
  /// the header's nonce first, then the evidence.
  std::pair<MessageHeader, Bytes> make_receipt(
      MsgType flag, const std::string& recipient, const std::string& ttp,
      const std::string& txn_id, BytesView data_hash,
      common::SimTime time_limit);

  /// The one reply wait (§4.3, §5.5): every request that re-sends or gives
  /// up on a silent peer goes through here. It stamps the request's wait
  /// slot — `slot(key)` returns the request's token field, or nullptr once
  /// the request is gone or no longer waiting — with a fresh per-actor
  /// token, and waits policy.wait(attempt). Only a timer whose token is
  /// still in the slot acts: it calls retry(key, attempt + 1) while
  /// attempt <= policy.retries, and give_up(key) after. A re-send or a new
  /// request re-stamps the slot, so a superseded timer never fires on it.
  template <typename Key, typename Slot, typename Retry, typename GiveUp>
  void await_reply(const RetryPolicy& policy, std::size_t attempt, Key key,
                   Slot slot, Retry retry, GiveUp give_up) {
    const std::uint64_t token = ++last_wait_token_;
    if (std::uint64_t* live = slot(key)) *live = token;
    network_->schedule(policy.wait(attempt),
                       [policy, attempt, token, key = std::move(key), slot,
                        retry, give_up] {
                         const std::uint64_t* live = slot(key);
                         if (live == nullptr || *live != token) return;
                         if (attempt <= policy.retries) {
                           retry(key, attempt + 1);
                         } else {
                           give_up(key);
                         }
                       });
  }

  /// Encodes and journals one piece of accepted evidence; no-op without a
  /// bound journal. Defined in actor.cpp.
  void journal_evidence(const std::string& role, const std::string& txn_id,
                        const std::string& signer,
                        const std::string& object_key, std::size_t chunk_size,
                        const MessageHeader& header,
                        const OpenedEvidence& opened);

  net::Network* network_;
  pki::Identity* identity_;
  crypto::Drbg* rng_;
  ActorStats stats_;
  persist::Journal* journal_ = nullptr;

 private:
  /// The shared inbound path (decode, screen, dispatch) — reached directly
  /// from the network, or through the reliable channel's dedup when one is
  /// installed. It owns the malformed-payload rule: a SerialError from the
  /// message decode or from any handler's payload reads rejects the message
  /// as rejected_bad_hash, so handlers read their fields without a catch.
  void receive(const net::Envelope& envelope);

  std::unique_ptr<net::ReliableChannel> channel_;
  std::string id_;
  net::EndpointId self_id_ = 0;  ///< interned once; sends skip string hashing
  std::string default_topic_ = "nr";
  std::string reply_topic_;  ///< topic of the message currently being handled
  ScreeningPolicy policy_;
  std::uint64_t last_wait_token_ = 0;  ///< await_reply's token counter
  /// Peer keys are interned process-wide (pki/key_intern.h): a fleet's
  /// (actor, peer) trust edges share one immutable copy per distinct key
  /// instead of duplicating BigInts per actor.
  std::unordered_map<std::string, std::shared_ptr<const crypto::RsaPublicKey>>
      peers_;
  std::unordered_set<Bytes, common::BytesHash> seen_nonces_;
  /// Highest sequence seen, keyed "txn|sender".
  std::unordered_map<std::string, std::uint64_t> txn_last_seq_;
  /// Next sequence to emit, keyed by txn (advanced past anything received).
  std::unordered_map<std::string, std::uint64_t> txn_next_seq_;
};

}  // namespace tpnr::nr
