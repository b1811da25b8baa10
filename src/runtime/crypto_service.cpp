#include "runtime/crypto_service.h"

#include <iterator>
#include <map>
#include <utility>

#include "crypto/counters.h"
#include "crypto/sha256_mb.h"
#include "runtime/engine.h"

namespace tpnr::runtime {

namespace {

using common::Bytes;
using common::BytesView;

struct JobRef {
  std::size_t batch = 0;
  std::size_t item = 0;
};

}  // namespace

/// Hashes every digest job across `work` through one lane-engine call per
/// flush and scatters the results back per batch.
std::vector<std::vector<Bytes>> CryptoService::hash_batches(
    const std::vector<PendingBatch>& work) {
  std::vector<std::vector<Bytes>> results(work.size());
  std::vector<crypto::TaggedMessage> msgs;
  std::vector<JobRef> refs;
  for (std::size_t b = 0; b < work.size(); ++b) {
    if (!work[b].digest_done) continue;
    results[b].resize(work[b].digests.size());
    for (std::size_t i = 0; i < work[b].digests.size(); ++i) {
      const DigestJob& job = work[b].digests[i];
      msgs.push_back({job.message.view(), job.tag});
      refs.push_back({b, i});
    }
  }
  if (msgs.empty()) return results;
  std::vector<Bytes> digests = crypto::sha256_many_mixed(msgs);
  for (std::size_t k = 0; k < refs.size(); ++k) {
    results[refs[k].batch][refs[k].item] = std::move(digests[k]);
  }
  return results;
}

/// Regroups every verify job across `work` by key fingerprint (first-seen
/// order) so each group runs through rsa_verify_many under one shared
/// Montgomery context, then scatters the verdicts back per batch.
std::vector<std::vector<bool>> CryptoService::verify_batches(
    const std::vector<PendingBatch>& work) {
  std::vector<std::vector<bool>> results(work.size());
  struct Group {
    const crypto::RsaPublicKey* key = nullptr;
    std::vector<crypto::RsaVerifyItem> items;
    std::vector<JobRef> refs;
  };
  std::vector<Group> groups;
  std::map<Bytes, std::size_t> group_of;  // fingerprint -> groups index
  for (std::size_t b = 0; b < work.size(); ++b) {
    if (!work[b].verify_done) continue;
    results[b].resize(work[b].verifies.size(), false);
    for (std::size_t i = 0; i < work[b].verifies.size(); ++i) {
      const VerifyJob& job = work[b].verifies[i];
      auto [it, fresh] =
          group_of.try_emplace(job.key->fingerprint(), groups.size());
      if (fresh) {
        groups.emplace_back();
        groups.back().key = job.key.get();
      }
      Group& group = groups[it->second];
      group.items.push_back(
          {job.kind, BytesView(job.message), BytesView(job.signature)});
      group.refs.push_back({b, i});
    }
  }
  for (const Group& group : groups) {
    const std::vector<bool> verdicts =
        crypto::rsa_verify_many(*group.key, group.items);
    for (std::size_t k = 0; k < verdicts.size(); ++k) {
      results[group.refs[k].batch][group.refs[k].item] = verdicts[k];
    }
  }
  return results;
}

CryptoService::CryptoService(Engine& engine) : engine_(engine) {
  buckets_.resize(engine.shard_count());
}

bool CryptoService::deferrable() const {
  return engine_.current_bucket() < engine_.shard_count();
}

void CryptoService::submit_digests(std::vector<DigestJob> jobs,
                                   DigestCompletion done) {
  if (jobs.empty()) {
    done({});
    return;
  }
  if (!deferrable()) {
    crypto::counters().service_inline_jobs.fetch_add(
        jobs.size(), std::memory_order_relaxed);
    std::vector<crypto::TaggedMessage> msgs;
    msgs.reserve(jobs.size());
    for (const DigestJob& job : jobs) {
      msgs.push_back({job.message.view(), job.tag});
    }
    done(crypto::sha256_many_mixed(msgs));
    return;
  }
  crypto::counters().service_jobs.fetch_add(jobs.size(),
                                            std::memory_order_relaxed);
  Bucket& bucket = buckets_[engine_.current_bucket()];
  PendingBatch batch;
  batch.endpoint = engine_.current_endpoint();
  batch.submitted = engine_.now();
  batch.digests = std::move(jobs);
  batch.digest_done = std::move(done);
  bucket.endpoints.insert(batch.endpoint);
  bucket.fifo.push_back(std::move(batch));
}

void CryptoService::submit_verifies(std::vector<VerifyJob> jobs,
                                    VerifyCompletion done) {
  if (jobs.empty()) {
    done({});
    return;
  }
  if (!deferrable()) {
    crypto::counters().service_inline_jobs.fetch_add(
        jobs.size(), std::memory_order_relaxed);
    std::vector<PendingBatch> work(1);
    work[0].verifies = std::move(jobs);
    work[0].verify_done = [](std::vector<bool>) {};
    std::vector<std::vector<bool>> verdicts = verify_batches(work);
    done(std::move(verdicts[0]));
    return;
  }
  crypto::counters().service_jobs.fetch_add(jobs.size(),
                                            std::memory_order_relaxed);
  Bucket& bucket = buckets_[engine_.current_bucket()];
  PendingBatch batch;
  batch.endpoint = engine_.current_endpoint();
  batch.submitted = engine_.now();
  batch.verifies = std::move(jobs);
  batch.verify_done = std::move(done);
  bucket.endpoints.insert(batch.endpoint);
  bucket.fifo.push_back(std::move(batch));
}

bool CryptoService::pending() const {
  for (const Bucket& bucket : buckets_) {
    if (!bucket.fifo.empty()) return true;
  }
  return false;
}

bool CryptoService::pending_in(std::uint32_t bucket) const {
  return !buckets_[bucket].fifo.empty();
}

bool CryptoService::must_flush_before(std::uint32_t bucket, EndpointId target,
                                      common::SimTime at) const {
  const Bucket& q = buckets_[bucket];
  if (q.fifo.empty()) return false;
  return at > q.fifo.front().submitted || q.endpoints.count(target) > 0;
}

bool CryptoService::must_flush_before_any(EndpointId target,
                                          common::SimTime at) const {
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    if (must_flush_before(b, target, at)) return true;
  }
  return false;
}

void CryptoService::flush(std::uint32_t bucket) {
  Bucket& q = buckets_[bucket];
  if (q.fifo.empty()) return;
  std::vector<PendingBatch> work(std::make_move_iterator(q.fifo.begin()),
                                 std::make_move_iterator(q.fifo.end()));
  q.fifo.clear();
  q.endpoints.clear();
  crypto::counters().service_flushes.fetch_add(1, std::memory_order_relaxed);

  // All crypto runs before any completion: a completion may resubmit, and
  // its jobs must land in the next flush, not this one's batch.
  std::vector<std::vector<Bytes>> digests = hash_batches(work);
  std::vector<std::vector<bool>> verdicts = verify_batches(work);

  for (std::size_t b = 0; b < work.size(); ++b) {
    PendingBatch& batch = work[b];
    engine_.run_in_context(
        bucket, batch.endpoint, batch.submitted, [&] {
          if (batch.digest_done) {
            batch.digest_done(std::move(digests[b]));
          } else {
            batch.verify_done(std::move(verdicts[b]));
          }
        });
  }
}

void CryptoService::flush_all() {
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) flush(b);
}

}  // namespace tpnr::runtime
