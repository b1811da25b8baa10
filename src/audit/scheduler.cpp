#include "audit/scheduler.h"

#include <algorithm>
#include <cmath>

namespace tpnr::audit {

AuditScheduler::AuditScheduler(net::Network& network, AuditorActor& auditor,
                               SchedulerConfig config)
    : network_(&network),
      auditor_(&auditor),
      config_(config),
      rng_(config.seed) {}

void AuditScheduler::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  arm();
}

void AuditScheduler::stop() { running_ = false; }

void AuditScheduler::arm() {
  const std::uint64_t generation = generation_;
  network_->schedule(config_.period, [this, generation] {
    if (!running_ || generation != generation_) return;
    tick();
    if (config_.max_rounds != 0 && rounds_ >= config_.max_rounds) {
      running_ = false;
      return;
    }
    arm();
  });
}

void AuditScheduler::tick() {
  ++rounds_;
  for (const auto& [txn_id, target] : auditor_->targets()) {
    const auto budget = static_cast<std::size_t>(std::max(
        1.0,
        std::round(config_.sampling_rate *
                   static_cast<double>(target.chunk_count))));
    for (std::size_t i = 0; i < budget; ++i) {
      // Draw before the cap check so the sampling sequence — and therefore
      // the whole run — does not depend on response timing.
      const auto chunk = static_cast<std::size_t>(
          rng_.uniform(target.chunk_count));
      if (auditor_->outstanding() >= config_.max_outstanding) {
        ++suppressed_;
        continue;
      }
      if (auditor_->challenge(txn_id, chunk)) {
        ++issued_;
      } else {
        ++suppressed_;  // identical challenge already in flight
      }
    }
  }
  // One aggregated challenge per dynamic target per round — constant-size
  // responses make a per-round cadence cheap regardless of object size.
  for (const auto& [txn_id, target] : auditor_->dyn_targets()) {
    if (auditor_->outstanding() >= config_.max_outstanding) {
      ++suppressed_;
      continue;
    }
    if (auditor_->challenge_aggregate(txn_id, config_.aggregate_count)) {
      ++issued_;
    } else {
      ++suppressed_;  // an aggregate for this txn is still in flight
    }
  }
}

}  // namespace tpnr::audit
