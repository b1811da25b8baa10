// Table 1: the Azure SharedKey-authenticated REST request. Regenerates the
// table's PUT/GET exchange (headers included) and measures the cost of
// canonicalization, HMAC signing and server-side verification per request
// and per object size.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/base64.h"
#include "crypto/hash.h"
#include "providers/azure_rest.h"

namespace {

using namespace tpnr;           // NOLINT(google-build-using-namespace)
using providers::AzureRestService;
using providers::RestRequest;

struct AzureWorld {
  AzureWorld() : service(clock) {
    crypto::Drbg rng(std::uint64_t{0x7ab1e1});
    key = service.create_account("jerry", rng);
  }
  common::SimClock clock;
  AzureRestService service;
  common::Bytes key;
};

AzureWorld& world() {
  static AzureWorld w;
  return w;
}

RestRequest make_put(const common::Bytes& body) {
  RestRequest request;
  request.method = "PUT";
  request.path =
      "/jerry/container/blob?comp=block&blockid=blockid1&timeout=30";
  request.headers["x-ms-date"] = "Sun, 13 Sept 2009 20:30:25 GMT";
  request.headers["x-ms-version"] = "2009-09-19";
  request.headers["content-md5"] =
      common::base64_encode(crypto::md5(body));
  request.body = body;
  return request;
}

void print_table1_reproduction() {
  auto& w = world();
  crypto::Drbg rng(std::uint64_t{42});
  const common::Bytes body = rng.bytes(1024);
  RestRequest put = make_put(body);
  providers::sign_request(put, "jerry", w.key);
  const auto put_response = w.service.handle(put);

  // Commit the staged block so the GET below reads the blob.
  RestRequest commit;
  commit.method = "PUT";
  commit.path = "/jerry/container/blob?comp=blocklist";
  commit.headers["x-ms-date"] = "Sun, 13 Sept 2009 20:31:00 GMT";
  commit.headers["x-ms-version"] = "2009-09-19";
  commit.body = common::to_bytes("blockid1");
  providers::sign_request(commit, "jerry", w.key);
  w.service.handle(commit);

  RestRequest get;
  get.method = "GET";
  get.path = "/jerry/container/blob";
  get.headers["x-ms-date"] = "Sun, 13 Sept 2009 20:40:34 GMT";
  get.headers["x-ms-version"] = "2009-09-19";
  providers::sign_request(get, "jerry", w.key);
  const auto get_response = w.service.handle(get);

  std::printf("\n--- Table 1 reproduction: signed REST request pair ---\n");
  std::printf("PUT %s HTTP/1.1\n", put.path.c_str());
  std::printf("Content-Length: %zu\n", put.body.size());
  std::printf("Content-MD5: %s\n", put.headers.at("content-md5").c_str());
  std::printf("Authorization: %s\n", put.headers.at("authorization").c_str());
  std::printf("x-ms-date: %s\nx-ms-version: %s\n",
              put.headers.at("x-ms-date").c_str(),
              put.headers.at("x-ms-version").c_str());
  std::printf("  -> server: %d\n\n", put_response.status);
  std::printf("GET %s HTTP/1.1\n", get.path.c_str());
  std::printf("Authorization: %s\n", get.headers.at("authorization").c_str());
  std::printf("x-ms-date: %s\nx-ms-version: %s\n",
              get.headers.at("x-ms-date").c_str(),
              get.headers.at("x-ms-version").c_str());
  std::printf("  -> server: %d, Content-MD5 echoed: %s\n",
              get_response.status,
              get_response.headers.count("content-md5")
                  ? get_response.headers.at("content-md5").c_str()
                  : "(none)");
  bench::JsonLine("table1_rest_auth")
      .field("put_status", put_response.status)
      .field("get_status", get_response.status)
      .field("md5_echoed", get_response.headers.count("content-md5") > 0)
      .print();
}

void BM_Canonicalize(benchmark::State& state) {
  crypto::Drbg rng(std::uint64_t{1});
  const RestRequest request = make_put(rng.bytes(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(providers::canonicalize(request));
  }
}
BENCHMARK(BM_Canonicalize);

void BM_SignRequest(benchmark::State& state) {
  auto& w = world();
  crypto::Drbg rng(std::uint64_t{2});
  RestRequest request = make_put(rng.bytes(1024));
  for (auto _ : state) {
    providers::sign_request(request, "jerry", w.key);
    benchmark::DoNotOptimize(request.headers["authorization"]);
  }
}
BENCHMARK(BM_SignRequest);

void BM_AuthenticatedPut(benchmark::State& state) {
  auto& w = world();
  crypto::Drbg rng(std::uint64_t{3});
  const common::Bytes body = rng.bytes(static_cast<std::size_t>(state.range(0)));
  RestRequest request = make_put(body);
  providers::sign_request(request, "jerry", w.key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.service.handle(request));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AuthenticatedPut)->Range(1 << 10, 1 << 22);

void BM_AuthenticatedGet(benchmark::State& state) {
  auto& w = world();
  crypto::Drbg rng(std::uint64_t{4});
  const common::Bytes body = rng.bytes(static_cast<std::size_t>(state.range(0)));
  RestRequest put = make_put(body);
  put.path = "/jerry/get-bench-" + std::to_string(state.range(0));
  providers::sign_request(put, "jerry", w.key);
  w.service.handle(put);

  RestRequest get{
      .method = "GET",
      .path = put.path,
      .headers = {{"x-ms-date", "d"}, {"x-ms-version", "2009-09-19"}},
      .body = {}};
  providers::sign_request(get, "jerry", w.key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.service.handle(get));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AuthenticatedGet)->Range(1 << 10, 1 << 22);

void BM_RejectedBadSignature(benchmark::State& state) {
  auto& w = world();
  crypto::Drbg rng(std::uint64_t{5});
  RestRequest request = make_put(rng.bytes(1024));
  common::Bytes wrong = w.key;
  wrong[0] ^= 1;
  providers::sign_request(request, "jerry", wrong);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.service.handle(request));
  }
}
BENCHMARK(BM_RejectedBadSignature);

}  // namespace

int main(int argc, char** argv) {
  print_table1_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("table1_rest_auth");
  return 0;
}
