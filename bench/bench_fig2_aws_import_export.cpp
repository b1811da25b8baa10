// Fig. 2: the AWS Import/Export data-processing flow. Runs complete import
// and export jobs (manifest + signature-file validation + device shipping)
// and reproduces the §6 observation that protocol/crypto time is trivial
// next to surface-mail shipping time.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "providers/aws_import_export.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using providers::AwsImportExport;
using providers::Device;
using providers::Manifest;
using providers::SignatureFile;

Manifest make_manifest(const std::string& operation) {
  Manifest manifest;
  manifest.access_key_id = "AKIA-BENCH";
  manifest.device_id = "device-7";
  manifest.destination = "vault";
  manifest.operation = operation;
  manifest.return_address = "PO Box 1";
  return manifest;
}

Device make_device(std::size_t files, std::size_t bytes_per_file,
                   crypto::Drbg& rng) {
  Device device;
  for (std::size_t i = 0; i < files; ++i) {
    device[std::string("f").append(std::to_string(i))] =
        rng.bytes(bytes_per_file);
  }
  return device;
}

// The §6 claim, quantified: simulated wall time of the protocol steps
// (manifest signing + validation + data copy + MD5) vs. the shipping legs.
void print_protocol_vs_shipping() {
  common::SimClock clock;
  AwsImportExport service(clock, /*shipping_transit=*/48 * common::kHour);
  crypto::Drbg rng(std::uint64_t{0xf19});
  const common::Bytes secret = service.register_user("AKIA-BENCH", rng);

  const Manifest manifest = make_manifest("import");
  const auto wall0 = std::chrono::steady_clock::now();
  const auto job = service.create_job(
      manifest, crypto::hmac_sha256(secret, manifest.encode()));

  Device device = make_device(64, 1 << 20, rng);  // 64 MiB job
  SignatureFile signature_file;
  signature_file.job_id = *job;
  signature_file.signature =
      AwsImportExport::sign_job(secret, *job, manifest);
  const auto report = service.receive_device(*job, device, signature_file);
  const auto wall1 = std::chrono::steady_clock::now();

  const double protocol_ms =
      std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  const double shipping_hours =
      static_cast<double>(clock.now()) / common::kHour;
  bench::print_table(
      "Fig. 2 / §6: protocol time vs shipping time (64 MiB import job)",
      {{"quantity", "value"},
       {"job accepted", report.ok ? "yes" : "no"},
       {"files loaded", std::to_string(report.entries.size())},
       {"protocol+crypto wall time (ms)", bench::fmt(protocol_ms)},
       {"simulated shipping time (h)", bench::fmt(shipping_hours)},
       {"shipping / protocol ratio",
        bench::fmt(shipping_hours * 3600.0 * 1000.0 / protocol_ms, 0)}});
  bench::JsonLine("fig2_aws_import_export")
      .field("job_accepted", report.ok)
      .field("files_loaded", static_cast<std::uint64_t>(report.entries.size()))
      .field("protocol_ms", protocol_ms, 2)
      .field("shipping_hours", shipping_hours, 2)
      .field("shipping_vs_protocol",
             shipping_hours * 3600.0 * 1000.0 / protocol_ms, 0)
      .print();
}

void BM_ManifestSignAndValidate(benchmark::State& state) {
  common::SimClock clock;
  AwsImportExport service(clock, 0);
  crypto::Drbg rng(std::uint64_t{1});
  const common::Bytes secret = service.register_user("AKIA-BENCH", rng);
  const Manifest manifest = make_manifest("import");
  for (auto _ : state) {
    const auto signature = crypto::hmac_sha256(secret, manifest.encode());
    benchmark::DoNotOptimize(service.create_job(manifest, signature));
  }
}
BENCHMARK(BM_ManifestSignAndValidate);

void BM_ImportJob(benchmark::State& state) {
  const auto files = static_cast<std::size_t>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  crypto::Drbg rng(std::uint64_t{2});
  const Device device = make_device(files, bytes, rng);
  for (auto _ : state) {
    state.PauseTiming();
    common::SimClock clock;
    AwsImportExport service(clock, 0);  // no shipping: measure the work
    const common::Bytes secret = service.register_user("AKIA-BENCH", rng);
    const Manifest manifest = make_manifest("import");
    const auto job = service.create_job(
        manifest, crypto::hmac_sha256(secret, manifest.encode()));
    SignatureFile signature_file;
    signature_file.job_id = *job;
    signature_file.signature =
        AwsImportExport::sign_job(secret, *job, manifest);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        service.receive_device(*job, device, signature_file));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(files * bytes));
}
BENCHMARK(BM_ImportJob)
    ->Args({4, 1 << 16})
    ->Args({16, 1 << 16})
    ->Args({64, 1 << 16})
    ->Args({16, 1 << 20});

void BM_ExportJob(benchmark::State& state) {
  crypto::Drbg rng(std::uint64_t{3});
  common::SimClock clock;
  AwsImportExport service(clock, 0);
  const common::Bytes secret = service.register_user("AKIA-BENCH", rng);
  // Seed the bucket once.
  const Manifest import_manifest = make_manifest("import");
  const auto import_job = service.create_job(
      import_manifest, crypto::hmac_sha256(secret, import_manifest.encode()));
  SignatureFile import_sig;
  import_sig.job_id = *import_job;
  import_sig.signature =
      AwsImportExport::sign_job(secret, *import_job, import_manifest);
  service.receive_device(*import_job, make_device(16, 1 << 16, rng),
                         import_sig);

  const Manifest export_manifest = make_manifest("export");
  for (auto _ : state) {
    state.PauseTiming();
    const auto export_job = service.create_job(
        export_manifest,
        crypto::hmac_sha256(secret, export_manifest.encode()));
    SignatureFile export_sig;
    export_sig.job_id = *export_job;
    export_sig.signature =
        AwsImportExport::sign_job(secret, *export_job, export_manifest);
    state.ResumeTiming();
    benchmark::DoNotOptimize(service.serve_export(*export_job, export_sig));
  }
}
BENCHMARK(BM_ExportJob);

void BM_DeviceMd5Verification(benchmark::State& state) {
  // The per-file MD5 recomputation that dominates the provider's work.
  crypto::Drbg rng(std::uint64_t{4});
  const common::Bytes file = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::md5(file));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DeviceMd5Verification)->Range(1 << 12, 1 << 24);

}  // namespace

int main(int argc, char** argv) {
  print_protocol_vs_shipping();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("fig2_aws_import_export");
  return 0;
}
