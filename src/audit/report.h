// Aggregation of an audit run into the numbers the paper's argument needs:
// how fast at-rest faults are detected, what fraction slips through, and
// what the continuous audit costs on the wire relative to protocol traffic.
//
// Inputs are the three observability surfaces this subsystem added:
//   * the AuditLedger (every challenge and its verdict, with times),
//   * the ObjectStore fault log (every injected fault, with times),
//   * net::NetworkStats per-topic counters (audit vs protocol traffic).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/ledger.h"
#include "net/network.h"
#include "storage/object_store.h"

namespace tpnr::audit {

/// Percentiles over a sample of simulated durations, in milliseconds.
struct LatencyStats {
  std::size_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Computes count/p50/p99/max over `latencies` (simulated microseconds).
LatencyStats summarize_latencies(std::vector<SimTime> latencies);

struct AuditReport {
  // Verdict tallies from the ledger.
  std::uint64_t entries = 0;
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t bad_evidence = 0;
  std::uint64_t malformed = 0;
  std::uint64_t no_responses = 0;
  std::uint64_t stale_versions = 0;  ///< aggregate mode: outdated version served
  std::uint64_t rollbacks = 0;       ///< aggregate mode: silent revert detected
  std::uint64_t forks = 0;           ///< verified equivocation proofs

  // Fault detection, matched per injected fault: a fault on key K at time t
  // counts as detected by the first flagging ledger entry (any verdict but
  // kVerified) for K concluded at or after t. Latency = conclusion − t.
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_detected = 0;
  double detection_rate = 0.0;       ///< detected / injected (1.0 if none)
  double false_negative_rate = 0.0;  ///< 1 − detection_rate
  LatencyStats detection_latency;
  std::map<std::string, std::uint64_t> injected_by_kind;
  std::map<std::string, std::uint64_t> detected_by_kind;

  // Traffic attribution.
  std::uint64_t audit_messages = 0;
  std::uint64_t audit_bytes = 0;
  std::uint64_t protocol_bytes = 0;
  double audit_overhead = 0.0;  ///< audit_bytes / protocol_bytes
};

/// Builds the report. `audit_topic` must match the auditor's send topic.
AuditReport build_report(const AuditLedger& ledger,
                         const std::vector<storage::FaultEvent>& faults,
                         const net::NetworkStats& stats,
                         const std::string& audit_topic = "nr.audit");

}  // namespace tpnr::audit
