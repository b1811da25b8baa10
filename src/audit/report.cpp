#include "audit/report.h"

#include <algorithm>

namespace tpnr::audit {

namespace {

double percentile(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[index]);
}

}  // namespace

LatencyStats summarize_latencies(std::vector<SimTime> latencies) {
  LatencyStats stats;
  stats.count = latencies.size();
  if (latencies.empty()) return stats;
  std::sort(latencies.begin(), latencies.end());
  const double to_ms = 1.0 / static_cast<double>(common::kMillisecond);
  stats.p50_ms = percentile(latencies, 0.50) * to_ms;
  stats.p99_ms = percentile(latencies, 0.99) * to_ms;
  stats.max_ms = static_cast<double>(latencies.back()) * to_ms;
  return stats;
}

AuditReport build_report(const AuditLedger& ledger,
                         const std::vector<storage::FaultEvent>& faults,
                         const net::NetworkStats& stats,
                         const std::string& audit_topic) {
  AuditReport report;
  report.entries = ledger.size();
  for (const AuditEntry& entry : ledger.entries()) {
    switch (entry.verdict) {
      case AuditVerdict::kVerified:
        ++report.verified;
        break;
      case AuditVerdict::kMismatch:
        ++report.mismatches;
        break;
      case AuditVerdict::kBadEvidence:
        ++report.bad_evidence;
        break;
      case AuditVerdict::kMalformed:
        ++report.malformed;
        break;
      case AuditVerdict::kNoResponse:
        ++report.no_responses;
        break;
      case AuditVerdict::kStaleVersion:
        ++report.stale_versions;
        break;
      case AuditVerdict::kRollback:
        ++report.rollbacks;
        break;
      case AuditVerdict::kForkDetected:
        ++report.forks;
        break;
    }
  }

  // Per-fault detection matching. Ledger entries are in conclusion order,
  // so a linear scan per fault finds the earliest qualifying flag.
  std::vector<SimTime> latencies;
  report.faults_injected = faults.size();
  for (const storage::FaultEvent& fault : faults) {
    ++report.injected_by_kind[storage::fault_kind_name(fault.kind)];
    for (const AuditEntry& entry : ledger.entries()) {
      if (entry.object_key != fault.key ||
          !verdict_flags_provider(entry.verdict) ||
          entry.concluded_at < fault.at) {
        continue;
      }
      ++report.faults_detected;
      ++report.detected_by_kind[storage::fault_kind_name(fault.kind)];
      latencies.push_back(entry.concluded_at - fault.at);
      break;
    }
  }
  report.detection_rate =
      report.faults_injected == 0
          ? 1.0
          : static_cast<double>(report.faults_detected) /
                static_cast<double>(report.faults_injected);
  report.false_negative_rate = 1.0 - report.detection_rate;
  report.detection_latency = summarize_latencies(std::move(latencies));

  const net::TopicStats audit = stats.topic(audit_topic);
  report.audit_messages = audit.messages_sent;
  report.audit_bytes = audit.bytes_sent;
  report.protocol_bytes = stats.bytes_sent - audit.bytes_sent;
  report.audit_overhead =
      report.protocol_bytes == 0
          ? 0.0
          : static_cast<double>(report.audit_bytes) /
                static_cast<double>(report.protocol_bytes);
  return report;
}

}  // namespace tpnr::audit
