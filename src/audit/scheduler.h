// Periodic randomized challenge scheduling on top of AuditorActor.
//
// Runs entirely inside the simulated network: each round is a
// Network::schedule timer that samples (target, chunk) pairs from a seeded
// Drbg — so a whole continuous-audit run is bit-reproducible — and issues
// them through AuditorActor::challenge, bounded by a concurrency cap. Each
// round also issues one aggregated challenge per registered dyn target
// (AuditorActor::challenge_aggregate): a dyn object's freshness lives in its
// version chain, so it is never challenged chunk by chunk. The
// knobs (period, sampling rate, cap) are exactly the detection-latency /
// bandwidth trade-off bench_audit_detection sweeps.
#pragma once

#include <cstdint>

#include "audit/auditor.h"
#include "crypto/drbg.h"
#include "net/network.h"

namespace tpnr::audit {

struct SchedulerConfig {
  /// Time between audit rounds.
  SimTime period = common::kSecond;
  /// Fraction of each target's chunks challenged per round; every target
  /// gets at least one challenge per round. 1.0 audits every chunk of
  /// every object every round.
  double sampling_rate = 0.05;
  /// Cap on challenges in flight (scheduler-issued and retries alike);
  /// a round stops issuing when the auditor reaches it.
  std::size_t max_outstanding = 16;
  /// Seed for the round-local sampling Drbg.
  std::uint64_t seed = 42;
  /// Stop after this many rounds (0 = run until stop()). Bounded runs let
  /// Network::run() drain to idle — tests and benches set this.
  std::uint64_t max_rounds = 0;
  /// Chunks sampled per aggregated challenge. Each round issues one per
  /// registered dyn target; static targets get per-chunk challenges.
  std::uint64_t aggregate_count = 64;
};

class AuditScheduler {
 public:
  AuditScheduler(net::Network& network, AuditorActor& auditor,
                 SchedulerConfig config = SchedulerConfig{});

  /// Arms the first round one period from now. No-op when running.
  void start();
  /// Stops issuing; an already-armed timer fires but does nothing.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t challenges_issued() const noexcept {
    return issued_;
  }
  /// Challenges a round wanted to issue but could not (concurrency cap or
  /// an identical challenge already in flight). Non-zero means the period /
  /// sampling-rate combination outruns the configured concurrency.
  [[nodiscard]] std::uint64_t challenges_suppressed() const noexcept {
    return suppressed_;
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

 private:
  void arm();
  void tick();

  net::Network* network_;
  AuditorActor* auditor_;
  SchedulerConfig config_;
  crypto::Drbg rng_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  ///< invalidates timers armed before stop()
  std::uint64_t rounds_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace tpnr::audit
