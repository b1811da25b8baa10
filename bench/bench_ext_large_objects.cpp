// Extension ablation: chunked Merkle evidence for large objects, and
// multi-provider replication. Quantifies the design choice DESIGN.md calls
// out: auditing a large stored object by sampled chunk proofs vs fetching
// the whole object, across chunk sizes; plus replication store/repair cost.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/replication.h"
#include "nr/ttp.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)

struct ChunkWorld {
  explicit ChunkWorld(std::uint64_t seed)
      : network(seed, bench::options_from_env()),
        rng(seed + 1),
        alice_id(bench::identity("alice")),
        bob_id(bench::identity("bob")),
        alice("alice", network, alice_id, rng),
        bob("bob", network, bob_id, rng) {
    alice.trust_peer("bob", bob_id.public_key());
    bob.trust_peer("alice", alice_id.public_key());
  }
  net::Network network;  // constructed with options_from_env() above
  crypto::Drbg rng;
  pki::Identity alice_id;
  pki::Identity bob_id;
  nr::ClientActor alice;
  nr::ProviderActor bob;
};

void print_audit_vs_download() {
  constexpr std::size_t kObjectSize = 8 << 20;  // 8 MiB
  constexpr std::size_t kChunkSize = 64 << 10;  // 64 KiB -> 128 chunks
  ChunkWorld world(1);
  crypto::Drbg data_rng(std::uint64_t{2});
  const common::Bytes data = data_rng.bytes(kObjectSize);
  const std::string txn =
      world.alice.store_chunked("bob", "", "big", data, kChunkSize);
  world.network.run();

  const auto bytes_before_audit = world.network.stats().bytes_sent;
  world.alice.audit_sample(txn, 8);
  world.network.run();
  const auto audit_bytes =
      world.network.stats().bytes_sent - bytes_before_audit;

  const auto bytes_before_fetch = world.network.stats().bytes_sent;
  world.alice.fetch(txn);
  world.network.run();
  const auto fetch_bytes =
      world.network.stats().bytes_sent - bytes_before_fetch;

  bench::print_table(
      "extension: integrity audit vs full download (8 MiB object, 64 KiB "
      "chunks)",
      {{"method", "bytes on the wire", "vs full download"},
       {"full fetch + flat-hash check", std::to_string(fetch_bytes), "1.00x"},
       {"8 sampled chunk audits", std::to_string(audit_bytes),
        bench::fmt(static_cast<double>(audit_bytes) /
                       static_cast<double>(fetch_bytes),
                   4) + "x"}});
  bench::JsonLine("ext_large_objects")
      .field("object_bytes", std::uint64_t{kObjectSize})
      .field("chunk_bytes", std::uint64_t{kChunkSize})
      .field("sampled_audits", 8)
      .field("audit_bytes", audit_bytes)
      .field("fetch_bytes", fetch_bytes)
      .field("audit_vs_fetch",
             static_cast<double>(audit_bytes) / static_cast<double>(fetch_bytes))
      .print();
}

void BM_ChunkedStore(benchmark::State& state) {
  const auto chunk_size = static_cast<std::size_t>(state.range(0));
  ChunkWorld world(3);
  crypto::Drbg data_rng(std::uint64_t{4});
  const common::Bytes data = data_rng.bytes(1 << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string txn = world.alice.store_chunked(
        "bob", "", std::string("o").append(std::to_string(i++)), data,
        chunk_size);
    world.network.run();
    benchmark::DoNotOptimize(world.alice.transaction(txn));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (1 << 20));
  state.SetLabel(std::to_string(chunk_size) + "B chunks");
}
BENCHMARK(BM_ChunkedStore)->Arg(4 << 10)->Arg(64 << 10)->Arg(256 << 10);

void BM_SingleChunkAudit(benchmark::State& state) {
  const auto chunk_size = static_cast<std::size_t>(state.range(0));
  ChunkWorld world(5);
  crypto::Drbg data_rng(std::uint64_t{6});
  const common::Bytes data = data_rng.bytes(4 << 20);
  const std::string txn =
      world.alice.store_chunked("bob", "", "audited", data, chunk_size);
  world.network.run();
  std::size_t i = 0;
  const std::size_t chunks = world.alice.transaction(txn)->chunk_count;
  for (auto _ : state) {
    world.alice.audit(txn, i++ % chunks);
    world.network.run();
  }
  state.SetLabel(std::to_string(chunk_size) + "B chunks");
}
BENCHMARK(BM_SingleChunkAudit)->Arg(4 << 10)->Arg(64 << 10)->Arg(256 << 10);

void BM_FullFetchBaseline(benchmark::State& state) {
  ChunkWorld world(7);
  crypto::Drbg data_rng(std::uint64_t{8});
  const common::Bytes data = data_rng.bytes(4 << 20);
  const std::string txn = world.alice.store("bob", "", "flat", data);
  world.network.run();
  for (auto _ : state) {
    world.alice.fetch(txn);
    world.network.run();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (4 << 20));
}
BENCHMARK(BM_FullFetchBaseline);

struct ReplicaWorld {
  explicit ReplicaWorld(std::uint64_t seed, int replicas)
      : network(seed, bench::options_from_env()),
        rng(seed + 1),
        alice_id(bench::identity("alice")),
        alice("alice", network, alice_id, rng) {
    std::vector<std::string> names;
    for (int i = 0; i < replicas; ++i) {
      const std::string name = "bob-" + std::to_string(i);
      const pki::Identity& id = bench::identity(name);
      auto provider = std::make_unique<nr::ProviderActor>(
          name, network, const_cast<pki::Identity&>(id), rng);
      provider->trust_peer("alice", alice_id.public_key());
      alice.trust_peer(name, id.public_key());
      providers.push_back(std::move(provider));
      names.push_back(name);
    }
    coordinator =
        std::make_unique<nr::ReplicationCoordinator>(alice, names, "");
  }
  net::Network network;  // constructed with options_from_env() above
  crypto::Drbg rng;
  pki::Identity alice_id;
  nr::ClientActor alice;
  std::vector<std::unique_ptr<nr::ProviderActor>> providers;
  std::unique_ptr<nr::ReplicationCoordinator> coordinator;
};

void BM_ReplicatedStore(benchmark::State& state) {
  ReplicaWorld world(9, static_cast<int>(state.range(0)));
  crypto::Drbg data_rng(std::uint64_t{10});
  const common::Bytes data = data_rng.bytes(64 << 10);
  for (auto _ : state) {
    const std::string group =
        world.coordinator->store_replicated("obj", data);
    world.network.run();
    benchmark::DoNotOptimize(world.coordinator->status(group));
  }
  state.SetLabel(std::to_string(state.range(0)) + " replicas");
}
BENCHMARK(BM_ReplicatedStore)->Arg(1)->Arg(3)->Arg(5);

void BM_ReplicatedRepair(benchmark::State& state) {
  ReplicaWorld world(11, 3);
  crypto::Drbg data_rng(std::uint64_t{12});
  const common::Bytes data = data_rng.bytes(64 << 10);
  for (auto _ : state) {
    state.PauseTiming();
    const std::string group =
        world.coordinator->store_replicated("obj", data);
    world.network.run();
    const auto* txns = world.coordinator->transactions(group);
    world.providers[1]->tamper(txns->at("bob-1"), data_rng.bytes(64 << 10));
    world.coordinator->fetch_all(group);
    world.network.run();
    state.ResumeTiming();
    benchmark::DoNotOptimize(world.coordinator->repair(group));
    world.network.run();
  }
}
BENCHMARK(BM_ReplicatedRepair);

}  // namespace

int main(int argc, char** argv) {
  print_audit_vs_download();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("ext_large_objects");
  return 0;
}
