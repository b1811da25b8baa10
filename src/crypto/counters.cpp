#include "crypto/counters.h"

namespace tpnr::crypto {

CounterSnapshot Counters::snapshot() const noexcept {
  CounterSnapshot s;
  s.scalar_blocks = scalar_blocks.load(std::memory_order_relaxed);
  s.mb_lane_blocks = mb_lane_blocks.load(std::memory_order_relaxed);
  s.mb_batches = mb_batches.load(std::memory_order_relaxed);
  s.mb_dispatch_jobs = mb_dispatch_jobs.load(std::memory_order_relaxed);
  s.hmac_midstate_hits = hmac_midstate_hits.load(std::memory_order_relaxed);
  s.hmac_midstate_misses =
      hmac_midstate_misses.load(std::memory_order_relaxed);
  s.tree_builds = tree_builds.load(std::memory_order_relaxed);
  s.tree_rebuilds_avoided =
      tree_rebuilds_avoided.load(std::memory_order_relaxed);
  s.verify_memo_hits = verify_memo_hits.load(std::memory_order_relaxed);
  s.verify_memo_misses = verify_memo_misses.load(std::memory_order_relaxed);
  s.mont_modmuls = mont_modmuls.load(std::memory_order_relaxed);
  s.classic_modmuls = classic_modmuls.load(std::memory_order_relaxed);
  s.crt_signs = crt_signs.load(std::memory_order_relaxed);
  s.classic_signs = classic_signs.load(std::memory_order_relaxed);
  s.batch_verify_groups = batch_verify_groups.load(std::memory_order_relaxed);
  s.batch_verify_items = batch_verify_items.load(std::memory_order_relaxed);
  s.service_jobs = service_jobs.load(std::memory_order_relaxed);
  s.service_flushes = service_flushes.load(std::memory_order_relaxed);
  s.service_inline_jobs = service_inline_jobs.load(std::memory_order_relaxed);
  return s;
}

void Counters::reset() noexcept {
  scalar_blocks.store(0, std::memory_order_relaxed);
  mb_lane_blocks.store(0, std::memory_order_relaxed);
  mb_batches.store(0, std::memory_order_relaxed);
  mb_dispatch_jobs.store(0, std::memory_order_relaxed);
  hmac_midstate_hits.store(0, std::memory_order_relaxed);
  hmac_midstate_misses.store(0, std::memory_order_relaxed);
  tree_builds.store(0, std::memory_order_relaxed);
  tree_rebuilds_avoided.store(0, std::memory_order_relaxed);
  verify_memo_hits.store(0, std::memory_order_relaxed);
  verify_memo_misses.store(0, std::memory_order_relaxed);
  mont_modmuls.store(0, std::memory_order_relaxed);
  classic_modmuls.store(0, std::memory_order_relaxed);
  crt_signs.store(0, std::memory_order_relaxed);
  classic_signs.store(0, std::memory_order_relaxed);
  batch_verify_groups.store(0, std::memory_order_relaxed);
  batch_verify_items.store(0, std::memory_order_relaxed);
  service_jobs.store(0, std::memory_order_relaxed);
  service_flushes.store(0, std::memory_order_relaxed);
  service_inline_jobs.store(0, std::memory_order_relaxed);
}

Counters& counters() noexcept {
  static Counters instance;
  return instance;
}

}  // namespace tpnr::crypto
