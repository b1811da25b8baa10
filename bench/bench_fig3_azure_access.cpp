// Fig. 3: the Azure secure data-access procedure — account key -> per-request
// HMAC signature -> server-side verification -> Content-MD5 integrity. The
// summary table walks the figure's steps; the benchmarks sweep object sizes
// and separate authentication cost from checksum cost.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/base64.h"
#include "crypto/hash.h"
#include "providers/azure_rest.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using providers::AzureRestService;
using providers::RestRequest;

void print_fig3_walkthrough() {
  common::SimClock clock;
  AzureRestService service(clock);
  crypto::Drbg rng(std::uint64_t{0xace55});
  const common::Bytes key = service.create_account("user", rng);

  crypto::Drbg data_rng(std::uint64_t{9});
  const common::Bytes data = data_rng.bytes(4096);
  const auto upload = service.upload("user", "doc", data, crypto::md5(data));
  const auto download = service.download("user", "doc");

  bench::print_table(
      "Fig. 3 walkthrough: secure data access procedure",
      {{"step", "result"},
       {"1. create account -> 256-bit secret key",
        std::to_string(key.size() * 8) + " bits"},
       {"2. HMAC-SHA256 signature per request", "attached (SharedKey)"},
       {"3. server verifies signature", upload.accepted ? "accepted"
                                                        : "rejected"},
       {"4. Content-MD5 checked on PUT", "verified server-side"},
       {"5. GET returns stored Content-MD5",
        download.md5_returned == crypto::md5(data) ? "matches upload"
                                                   : "MISMATCH"}});
  bench::JsonLine("fig3_azure_access")
      .field("key_bits", static_cast<std::uint64_t>(key.size() * 8))
      .field("upload_accepted", upload.accepted)
      .field("md5_echo_matches", download.md5_returned == crypto::md5(data))
      .print();
}

struct Fixture {
  Fixture() : service(clock) {
    crypto::Drbg rng(std::uint64_t{21});
    key = service.create_account("user", rng);
  }
  common::SimClock clock;
  AzureRestService service;
  common::Bytes key;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_UploadDownloadRoundTrip(benchmark::State& state) {
  auto& f = fixture();
  crypto::Drbg rng(std::uint64_t{31});
  const common::Bytes data =
      rng.bytes(static_cast<std::size_t>(state.range(0)));
  const common::Bytes md5 = crypto::md5(data);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string object_key = "rt-" + std::to_string(i++ % 16);
    auto up = f.service.upload("user", object_key, data, md5);
    benchmark::DoNotOptimize(up);
    auto down = f.service.download("user", object_key);
    benchmark::DoNotOptimize(down);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * state.range(0));
}
BENCHMARK(BM_UploadDownloadRoundTrip)->Range(1 << 10, 1 << 22);

void BM_HmacAuthOnly(benchmark::State& state) {
  // Authentication cost isolated: signature over the canonicalized request.
  auto& f = fixture();
  const RestRequest request{
      .method = "GET",
      .path = "/user/x",
      .headers = {{"x-ms-date", "d"}, {"x-ms-version", "2009-09-19"}},
      .body = {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        providers::shared_key_authorization("user", f.key, request));
  }
}
BENCHMARK(BM_HmacAuthOnly);

void BM_ContentMd5Only(benchmark::State& state) {
  crypto::Drbg rng(std::uint64_t{41});
  const common::Bytes data =
      rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::base64_encode(crypto::md5(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ContentMd5Only)->Range(1 << 10, 1 << 22);

void BM_TableEntityPutGet(benchmark::State& state) {
  auto& f = fixture();
  crypto::Drbg rng(std::uint64_t{51});
  const common::Bytes entity = rng.bytes(512);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string row = "row-" + std::to_string(i++ % 64);
    benchmark::DoNotOptimize(f.service.put_entity("user", "t", row, entity));
    benchmark::DoNotOptimize(f.service.get_entity("user", "t", row));
  }
}
BENCHMARK(BM_TableEntityPutGet);

void BM_QueueEnqueueDequeue(benchmark::State& state) {
  auto& f = fixture();
  crypto::Drbg rng(std::uint64_t{61});
  const common::Bytes message = rng.bytes(4096);  // < 8K limit
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.service.enqueue("user", "q", message));
    benchmark::DoNotOptimize(f.service.dequeue("user", "q"));
  }
}
BENCHMARK(BM_QueueEnqueueDequeue);

}  // namespace

int main(int argc, char** argv) {
  print_fig3_walkthrough();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("fig3_azure_access");
  return 0;
}
