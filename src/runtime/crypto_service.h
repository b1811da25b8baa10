// Fleet-wide crypto batching service. Actors inside the deterministic
// runtime submit digest and signature-verification work to a per-shard
// queue instead of computing inline; the engine flushes each queue at the
// points where results become observable, so jobs from MANY actors coalesce
// into full multi-buffer SHA-256 dispatches and per-key grouped RSA
// verifications (one Montgomery context per key group).
//
// Determinism contract. A flush runs each batch's completion under the
// submitting endpoint's execution context (same endpoint, same sim-time as
// the submission), in per-shard submission order. Because
//  * an endpoint's per-origin event sequence numbers are allocated only by
//    that endpoint's own executions and completions, in a fixed relative
//    order, and
//  * the engine flushes a queue before (a) executing any event that targets
//    an endpoint with pending work and (b) executing any event with a later
//    timestamp than the oldest pending submission,
// every event posted by a completion carries the identical (at, origin,
// seq) merge key it would have had if the work had run inline — so
// experiment records are byte-identical to the inline (unbatched) execution
// at any shard and worker count; tests/golden/ pins them.
//
// Completions must observe two rules: touch only the submitting endpoint's
// own state, and post events only at `submit time + engine lookahead` or
// later (every transport send satisfies this — latencies are clamped to the
// lookahead — and protocol timers are far coarser). The second rule keeps
// end-of-window flushes in parallel rounds from back-dating events into a
// window the shard already drained.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/payload.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"
#include "runtime/event.h"

namespace tpnr::runtime {

class Engine;

/// One message to digest. tag < 0 hashes `message` as-is; otherwise the
/// single tag byte is prefixed (domain separation), matching
/// crypto::TaggedMessage.
struct DigestJob {
  common::Payload message;  ///< shared COW buffer: deferral never deep-copies
  int tag = -1;
};

/// One signature to check. The key is shared so a deferred job keeps the
/// actor's interned key (and its cached Montgomery context) alive.
struct VerifyJob {
  std::shared_ptr<const crypto::RsaPublicKey> key;
  crypto::HashKind kind = crypto::HashKind::kSha256;
  common::Bytes message;
  common::Bytes signature;
};

class CryptoService {
 public:
  /// Results arrive in job order, one digest / verdict per submitted job.
  using DigestCompletion = std::function<void(std::vector<common::Bytes>)>;
  using VerifyCompletion = std::function<void(std::vector<bool>)>;

  explicit CryptoService(Engine& engine);

  CryptoService(const CryptoService&) = delete;
  CryptoService& operator=(const CryptoService&) = delete;

  /// True when a submit_* made right now would be queued for a batched
  /// flush: the caller is executing a shard event. Driver code (tests,
  /// benchmark setup) always runs inline, so direct calls into actor
  /// methods keep their synchronous semantics.
  [[nodiscard]] bool deferrable() const;

  /// Hashes `jobs` and hands the digests to `done`. Deferred when
  /// deferrable(), else computed and completed before returning (still
  /// through the lane engine, batched within this call).
  void submit_digests(std::vector<DigestJob> jobs, DigestCompletion done);

  /// Verifies `jobs` (each under its own key) and hands the verdicts to
  /// `done`. Deferral as for submit_digests; deferred jobs from all actors
  /// in the shard are regrouped by key fingerprint so each group shares one
  /// Montgomery context and the verify memo.
  void submit_verifies(std::vector<VerifyJob> jobs, VerifyCompletion done);

  /// Pending work anywhere / in one shard's queue.
  [[nodiscard]] bool pending() const;
  [[nodiscard]] bool pending_in(std::uint32_t bucket) const;

  /// True when the event (target, at) about to execute on `bucket`'s shard
  /// must wait for that queue to flush first: it targets an endpoint with
  /// pending work, or it is later than the oldest pending submission.
  [[nodiscard]] bool must_flush_before(std::uint32_t bucket, EndpointId target,
                                       common::SimTime at) const;
  /// Serial-mode variant: the same test against every queue at once.
  [[nodiscard]] bool must_flush_before_any(EndpointId target,
                                           common::SimTime at) const;

  /// Drains one shard's queue: batch-hash, batch-verify, then run the
  /// completions in submission order under their endpoints' contexts.
  /// Completions may submit again; the new work lands in the (now empty)
  /// queue for a later flush. No-op on an empty queue.
  void flush(std::uint32_t bucket);
  void flush_all();

 private:
  struct PendingBatch {
    EndpointId endpoint = kNoEndpoint;
    common::SimTime submitted = 0;
    std::vector<DigestJob> digests;
    DigestCompletion digest_done;  // set iff this is a digest batch
    std::vector<VerifyJob> verifies;
    VerifyCompletion verify_done;  // set iff this is a verify batch
  };

  struct Bucket {
    /// FIFO; submission times are non-decreasing because a shard executes
    /// its events in time order, so the oldest submission is front().
    std::deque<PendingBatch> fifo;
    std::unordered_set<EndpointId> endpoints;  ///< with pending work
  };

  [[nodiscard]] static std::vector<std::vector<common::Bytes>> hash_batches(
      const std::vector<PendingBatch>& work);
  [[nodiscard]] static std::vector<std::vector<bool>> verify_batches(
      const std::vector<PendingBatch>& work);

  Engine& engine_;
  std::vector<Bucket> buckets_;  ///< one per shard; touched only by the
                                 ///< thread executing that shard's events
};

}  // namespace tpnr::runtime
