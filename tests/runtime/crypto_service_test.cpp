// runtime::CryptoService: deferred digest/verify completions must leave
// every per-endpoint trace byte-identical to inline execution — for ANY
// shard and worker count. This is the unit-level regression for the
// batching service's determinism contract; bench_determinism re-checks the
// same property end to end through the full protocol stack.
#include "runtime/crypto_service.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/payload.h"
#include "crypto/counters.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/sha256_mb.h"
#include "runtime/engine.h"

namespace tpnr::runtime {
namespace {

using common::Bytes;
using common::SimTime;
using common::to_bytes;

constexpr SimTime kLatency = 10;

/// Shared signing key — generation is the slow part, do it once.
struct Fixture {
  crypto::RsaKeyPair pair;
  std::shared_ptr<const crypto::RsaPublicKey> pub;
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;  // sigs[2] deliberately corrupted
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* out = new Fixture;
    crypto::Drbg rng(std::uint64_t{424242});
    out->pair = crypto::rsa_generate(512, rng);
    out->pub = std::make_shared<const crypto::RsaPublicKey>(out->pair.pub);
    for (int i = 0; i < 4; ++i) {
      out->msgs.push_back(to_bytes("service message " + std::to_string(i)));
      out->sigs.push_back(crypto::rsa_sign(
          out->pair.priv, crypto::HashKind::kSha256, out->msgs.back()));
    }
    out->sigs[2][3] ^= 0x20;
    return out;
  }();
  return *f;
}

/// Token-ring workload where every hop runs through the crypto service:
/// hop -> submit digests (chunk text + tagged variant) -> completion submits
/// verifies (one valid + one corrupted signature) -> completion records the
/// trace line and posts the next hop. Each trace line folds in sim-time, an
/// rng draw, the per-endpoint counter, a digest prefix and both verdicts —
/// so any reordering, re-timing or cross-talk between deferred completions
/// shows up as a trace diff. With `use_service` false the same ring calls
/// crypto::sha256_many_mixed / crypto::rsa_verify_many inline and runs each
/// continuation inside the submitting event: the reference trace.
std::vector<std::vector<std::string>> run_ring(std::uint64_t seed,
                                               EngineOptions options,
                                               bool use_service = true,
                                               std::size_t endpoints = 4,
                                               std::size_t hops = 6) {
  const Fixture& fx = fixture();
  Engine engine(seed, options);
  engine.set_lookahead(kLatency);
  const auto submit_digests = [&](std::vector<DigestJob> jobs,
                                  CryptoService::DigestCompletion done) {
    if (use_service) {
      engine.crypto_service().submit_digests(std::move(jobs), std::move(done));
      return;
    }
    std::vector<crypto::TaggedMessage> msgs;
    for (const DigestJob& job : jobs) msgs.push_back({job.message, job.tag});
    done(crypto::sha256_many_mixed(msgs));
  };
  const auto submit_verifies = [&](std::vector<VerifyJob> jobs,
                                   CryptoService::VerifyCompletion done) {
    if (use_service) {
      engine.crypto_service().submit_verifies(std::move(jobs),
                                              std::move(done));
      return;
    }
    std::vector<crypto::RsaVerifyItem> items;
    for (const VerifyJob& job : jobs) {
      items.push_back({job.kind, job.message, job.signature});
    }
    done(crypto::rsa_verify_many(*fx.pub, items));
  };
  std::vector<EndpointId> ids;
  ids.reserve(endpoints);
  for (std::size_t e = 0; e < endpoints; ++e) {
    ids.push_back(engine.endpoint("svc-" + std::to_string(e)));
  }
  std::vector<std::vector<std::string>> traces(endpoints);

  std::function<void(std::size_t, std::size_t, std::size_t)> hop =
      [&](std::size_t token, std::size_t at_endpoint, std::size_t remaining) {
        const EndpointId self = ids[at_endpoint];
        const Bytes payload = to_bytes(
            "tok" + std::to_string(token) + "#" + std::to_string(remaining));
        std::vector<DigestJob> digest_jobs(2);
        digest_jobs[0].message = common::Payload::copy_of(payload);
        digest_jobs[1].message = common::Payload::copy_of(payload);
        digest_jobs[1].tag = 0x00;
        submit_digests(
            std::move(digest_jobs),
            [&, token, at_endpoint, remaining, self](std::vector<Bytes> dgs) {
              const std::size_t which = (token + remaining) % fx.msgs.size();
              std::vector<VerifyJob> verify_jobs(2);
              verify_jobs[0].key = fx.pub;
              verify_jobs[0].message = fx.msgs[which];
              verify_jobs[0].signature = fx.sigs[which];
              verify_jobs[1].key = fx.pub;
              verify_jobs[1].message = fx.msgs[2];
              verify_jobs[1].signature = fx.sigs[2];  // always rejected
              submit_verifies(
                  std::move(verify_jobs),
                  [&, token, at_endpoint, remaining, self,
                   prefix = static_cast<int>(dgs[0][0]) * 256 +
                            static_cast<int>(dgs[1][0])](
                      std::vector<bool> ok) {
                    const std::uint8_t draw = engine.rng(self).bytes(1)[0];
                    traces[at_endpoint].push_back(
                        std::string("t")
                            .append(std::to_string(token))
                            .append("@")
                            .append(std::to_string(engine.now()))
                            .append(":")
                            .append(std::to_string(draw))
                            .append(":")
                            .append(std::to_string(engine.next_counter(self)))
                            .append(":")
                            .append(std::to_string(prefix))
                            .append(":")
                            .append(std::to_string(static_cast<int>(ok[0])))
                            .append(std::to_string(static_cast<int>(ok[1]))));
                    if (remaining == 0) return;
                    const std::size_t next = (at_endpoint + 1) % ids.size();
                    engine.post(ids[next], self, engine.now() + kLatency,
                                [&hop, token, next, remaining] {
                                  hop(token, next, remaining - 1);
                                });
                  });
            });
      };
  for (std::size_t token = 0; token < endpoints; ++token) {
    const std::size_t start = token;
    engine.post(ids[start], kNoEndpoint, 0,
                [&hop, token, start, hops] { hop(token, start, hops); });
  }
  engine.run(1 << 20);
  EXPECT_TRUE(engine.idle());
  return traces;
}

TEST(CryptoServiceDeterminism, TraceMatchesInlineAcrossShardsAndWorkers) {
  // Inline baseline: no service, every batch computed synchronously
  // inside the submitting event.
  const std::vector<std::vector<std::string>> baseline =
      run_ring(13, {1, 1}, /*use_service=*/false);
  ASSERT_FALSE(baseline.empty());
  ASSERT_FALSE(baseline[0].empty());

  for (const EngineOptions options :
       {EngineOptions{1, 1}, EngineOptions{2, 1}, EngineOptions{4, 1},
        EngineOptions{1, 2}, EngineOptions{2, 2}, EngineOptions{2, 4},
        EngineOptions{4, 2}, EngineOptions{4, 4}}) {
    const std::uint64_t deferred_before =
        crypto::counters().service_jobs.load();
    const auto trace = run_ring(13, options);
    EXPECT_EQ(trace, baseline)
        << "divergence at shards=" << options.shards
        << " workers=" << options.workers;
    // The equality must be earned by actual deferral, not by the service
    // quietly running everything inline.
    EXPECT_GT(crypto::counters().service_jobs.load(), deferred_before)
        << "no jobs were deferred at shards=" << options.shards;
  }
}

TEST(CryptoServiceDeterminism, ServiceRunsAreReproducible) {
  EXPECT_EQ(run_ring(77, {4, 4}), run_ring(77, {4, 4}));
}

TEST(CryptoService, DriverContextCompletesSynchronously) {
  Engine engine(1);
  const Fixture& fx = fixture();

  // Outside any endpoint event the service may not defer: tests and bench
  // drivers rely on synchronous semantics.
  bool digest_ran = false;
  std::vector<DigestJob> jobs(1);
  jobs[0].message = common::Payload::copy_of(to_bytes("inline digest"));
  engine.crypto_service().submit_digests(
      std::move(jobs), [&](std::vector<Bytes> dgs) {
        digest_ran = true;
        ASSERT_EQ(dgs.size(), 1u);
        EXPECT_EQ(dgs[0], crypto::sha256(to_bytes("inline digest")));
      });
  EXPECT_TRUE(digest_ran);
  EXPECT_FALSE(engine.crypto_service().pending());

  bool verify_ran = false;
  std::vector<VerifyJob> checks(2);
  checks[0].key = fx.pub;
  checks[0].message = fx.msgs[0];
  checks[0].signature = fx.sigs[0];
  checks[1].key = fx.pub;
  checks[1].message = fx.msgs[2];
  checks[1].signature = fx.sigs[2];
  engine.crypto_service().submit_verifies(
      std::move(checks), [&](std::vector<bool> ok) {
        verify_ran = true;
        ASSERT_EQ(ok.size(), 2u);
        EXPECT_TRUE(ok[0]);
        EXPECT_FALSE(ok[1]);
      });
  EXPECT_TRUE(verify_ran);
  EXPECT_FALSE(engine.crypto_service().pending());
}

TEST(CryptoService, EmptySubmissionsCompleteImmediately) {
  Engine engine(1);
  bool digest_ran = false;
  bool verify_ran = false;
  engine.crypto_service().submit_digests({}, [&](std::vector<Bytes> dgs) {
    digest_ran = true;
    EXPECT_TRUE(dgs.empty());
  });
  engine.crypto_service().submit_verifies({}, [&](std::vector<bool> ok) {
    verify_ran = true;
    EXPECT_TRUE(ok.empty());
  });
  EXPECT_TRUE(digest_ran);
  EXPECT_TRUE(verify_ran);
}

TEST(CryptoService, DeferredCompletionRunsAtSubmissionTime) {
  Engine engine(1, {2, 1});
  engine.set_lookahead(kLatency);
  const EndpointId a = engine.endpoint("a");
  SimTime submitted_at = -1;
  SimTime completed_at = -1;
  EndpointId completed_on = kNoEndpoint;
  engine.post(a, kNoEndpoint, 5, [&] {
    submitted_at = engine.now();
    std::vector<DigestJob> jobs(1);
    jobs[0].message = common::Payload::copy_of(to_bytes("when"));
    engine.crypto_service().submit_digests(
        std::move(jobs), [&](std::vector<Bytes>) {
          completed_at = engine.now();
          completed_on = engine.current_endpoint();
        });
    // Still pending: the submission itself must not compute inline.
    EXPECT_TRUE(engine.crypto_service().pending());
  });
  engine.run(100);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(submitted_at, 5);
  EXPECT_EQ(completed_at, 5);  // same sim-time as the submission
  EXPECT_EQ(completed_on, a);  // same endpoint context
}

}  // namespace
}  // namespace tpnr::runtime
