// The Trusted Third Party (§4.3, Fig. 6(c)): invoked only when the two-party
// exchange stalls ("initiated as the last course"). On a resolve request it
// verifies genuineness, queries the respondent with a timestamped query, and
// either relays the receipt back or — on timeout — issues a signed
// "session failed, respondent did not respond" statement. All verdicts are
// logged for the arbitrator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nr/actor.h"

namespace tpnr::nr {

/// A logged TTP decision, queryable by the arbitrator.
struct TtpVerdictRecord {
  std::string txn_id;
  std::string initiator;
  std::string respondent;
  std::string outcome;  ///< "continued" / "restart" / "no-response" / "invalid-request"
  common::SimTime decided_at = 0;
  Bytes statement;            ///< canonical statement bytes
  Bytes statement_signature;  ///< Sign_TTP(statement)
};

/// How long the TTP waits for the respondent's answer to its resolve query
/// before it decides "no-response" (one query, no re-send).
inline constexpr RetryPolicy kRespondentWait{10 * common::kSecond};

/// Which of `partitions` TTP instances adjudicates `txn_id` (FNV-1a 64 of
/// the id, mod the partition count). Every party — the client escalating,
/// the provider resolving, the arbitrator replaying — computes the same
/// partition from the txn id alone, so a fleet's resolve traffic spreads
/// over N independent signers without any coordination message.
[[nodiscard]] std::uint32_t ttp_partition_of(const std::string& txn_id,
                                             std::uint32_t partitions);

/// Canonical name of partition `index` of the TTP fleet rooted at `base`
/// ("ttp" -> "ttp.p0", "ttp.p1", ...). One name per independent PKI
/// identity/signer.
[[nodiscard]] std::string ttp_partition_name(const std::string& base,
                                             std::uint32_t index);

class TtpActor final : public NrActor {
 public:
  TtpActor(std::string id, net::Network& network, pki::Identity& identity,
           crypto::Drbg& rng);

  [[nodiscard]] const std::vector<TtpVerdictRecord>& log() const noexcept {
    return log_;
  }
  /// Latest verdict for a transaction, if any.
  [[nodiscard]] std::optional<TtpVerdictRecord> verdict_for(
      const std::string& txn_id) const;
  /// How many duplicate resolve requests were answered from the cached
  /// verdict instead of being re-adjudicated (idempotence accounting).
  [[nodiscard]] std::uint64_t verdicts_resent() const noexcept {
    return verdicts_resent_;
  }

 protected:
  void on_message(const NrMessage& message) override;

 private:
  struct PendingResolve {
    std::string initiator;
    std::string respondent;
    MessageHeader original_header;
    std::string report;
    bool settled = false;
    // Cached verdict material, kept so a duplicate resolve request (client
    // retry after a lost verdict) gets the SAME decision re-sent — same
    // statement bytes, same signature — instead of being re-adjudicated.
    std::string outcome;
    Bytes receipt_header;
    Bytes receipt_evidence;
    Bytes statement;
    Bytes statement_signature;
  };

  void handle_resolve_request(const NrMessage& message);
  void handle_resolve_response(const NrMessage& message);
  void deliver_verdict(const std::string& txn_id, const std::string& outcome,
                       BytesView receipt_header, BytesView receipt_evidence);
  /// Re-sends the cached verdict under a fresh header; no new log entry.
  void resend_verdict(const std::string& txn_id);
  /// Sends `resolve`'s cached verdict to its initiator under a fresh header.
  void send_verdict(const std::string& txn_id, const PendingResolve& resolve);

  RequestTable<std::string, PendingResolve> pending_;
  std::vector<TtpVerdictRecord> log_;
  std::uint64_t verdicts_resent_ = 0;
};

}  // namespace tpnr::nr
