// Process-wide crypto acceleration accounting. Every mechanism (multi-lane
// SHA-256, HMAC key-state caching, Merkle tree reuse, RSA verify
// memoization) bumps its own counters so a benchmark can attribute a
// speedup per mechanism.
//
// The counters are monotonic atomics: safe to bump from sharded runtime
// worker threads. They are NOT part of any protocol outcome — acceleration
// may never change a digest, only how fast it is computed — so none of these
// values may ever be folded into a determinism-gated JsonLine record.
#pragma once

#include <atomic>
#include <cstdint>

namespace tpnr::crypto {

/// Snapshot of the acceleration counters (plain integers, copyable).
struct CounterSnapshot {
  std::uint64_t scalar_blocks = 0;       ///< SHA-256 blocks hashed one-lane
  std::uint64_t mb_lane_blocks = 0;      ///< lane-blocks hashed multi-lane
  std::uint64_t mb_batches = 0;          ///< multi-lane compression batches
  std::uint64_t mb_dispatch_jobs = 0;    ///< messages carried by those batches
  std::uint64_t hmac_midstate_hits = 0;  ///< HMACs served from a key state
  std::uint64_t hmac_midstate_misses = 0;  ///< key states derived from scratch
  std::uint64_t tree_builds = 0;           ///< Merkle trees built in full
  std::uint64_t tree_rebuilds_avoided = 0;  ///< proofs served from a cached tree
  std::uint64_t verify_memo_hits = 0;       ///< RSA verifies answered by memo
  std::uint64_t verify_memo_misses = 0;     ///< RSA verifies done in full
  /// Montgomery multiplies and squarings, added once per exponentiation.
  std::uint64_t mont_modmuls = 0;
  std::uint64_t classic_modmuls = 0;  ///< schoolbook multiply-then-divide muls
  std::uint64_t crt_signs = 0;        ///< RSA private ops done via CRT halves
  std::uint64_t classic_signs = 0;    ///< RSA private ops done full-width
  std::uint64_t batch_verify_groups = 0;  ///< rsa_verify_many key groups
  std::uint64_t batch_verify_items = 0;   ///< signatures verified in groups
  std::uint64_t service_jobs = 0;     ///< jobs deferred into CryptoService
  std::uint64_t service_flushes = 0;  ///< CryptoService batch flushes
  std::uint64_t service_inline_jobs = 0;  ///< jobs executed inline (no defer)

  /// Mean messages per multi-lane dispatch (the lane fill-rate; 0 when no
  /// multi-lane batch ran). A full 8-lane engine tops out at 8.0.
  [[nodiscard]] double lane_fill_rate() const noexcept {
    return mb_batches == 0
               ? 0.0
               : static_cast<double>(mb_dispatch_jobs) /
                     static_cast<double>(mb_batches);
  }
};

/// The live counters. Access through counters().
struct Counters {
  std::atomic<std::uint64_t> scalar_blocks{0};
  std::atomic<std::uint64_t> mb_lane_blocks{0};
  std::atomic<std::uint64_t> mb_batches{0};
  std::atomic<std::uint64_t> mb_dispatch_jobs{0};
  std::atomic<std::uint64_t> hmac_midstate_hits{0};
  std::atomic<std::uint64_t> hmac_midstate_misses{0};
  std::atomic<std::uint64_t> tree_builds{0};
  std::atomic<std::uint64_t> tree_rebuilds_avoided{0};
  std::atomic<std::uint64_t> verify_memo_hits{0};
  std::atomic<std::uint64_t> verify_memo_misses{0};
  std::atomic<std::uint64_t> mont_modmuls{0};
  std::atomic<std::uint64_t> classic_modmuls{0};
  std::atomic<std::uint64_t> crt_signs{0};
  std::atomic<std::uint64_t> classic_signs{0};
  std::atomic<std::uint64_t> batch_verify_groups{0};
  std::atomic<std::uint64_t> batch_verify_items{0};
  std::atomic<std::uint64_t> service_jobs{0};
  std::atomic<std::uint64_t> service_flushes{0};
  std::atomic<std::uint64_t> service_inline_jobs{0};

  [[nodiscard]] CounterSnapshot snapshot() const noexcept;
  void reset() noexcept;
};

/// The process-wide instance.
Counters& counters() noexcept;

}  // namespace tpnr::crypto
