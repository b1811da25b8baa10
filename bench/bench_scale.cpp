// Scale experiment for the sharded runtime + zero-copy payload refactor.
//
// Drives thousands of concurrent TPNR transactions (P client/provider pairs
// sharing one TTP, each pair storing then fetching T objects) and reports,
// per (shards, workers) point:
//   - wall-clock txns/sec and the parallel speedup over the serial engine,
//   - p50/p99 simulated store-completion latency,
//   - a protocol-outcome digest: SHA-256 over every transaction's terminal
//     state, evidence, fetch result and the network totals. The digest must
//     be IDENTICAL for every shard/worker combination — that is the
//     determinism contract of runtime::Engine, checked here end to end.
//
// A second sweep runs the workload with COW payloads on a clean link and on
// a lossy/duplicating chaos link, and reports how many byte copies the COW
// representation eliminated against the by-value baseline. The baseline is
// derived from the same run: by-value semantics would have deep-copied at
// every share, so its copies are the COW copies plus the COW shares.
//
// A third sweep — the FLEET experiment — exercises the full fleet runtime:
// C independent clients route single stores over a consistent-hash ring of
// P providers (every 4th client through the placement directory), resolve
// traffic is sharded over T TTP partitions by txn-id hash (one provider
// withholds receipts so the partitions serve real Resolve traffic), and the
// whole fleet runs per (shards, workers) point. The outcome digest must be
// identical across TPNR_SHARDS=1,2,4 and the workers=4 point must beat
// workers=1 wall-clock on a multi-core host.
//
// Env knobs: TPNR_SHARDS / TPNR_WORKERS add an extra sweep point;
// TPNR_SCALE_PAIRS /
// TPNR_SCALE_TXNS_PER_PAIR resize the pair workload; TPNR_FLEET_CLIENTS /
// TPNR_FLEET_PROVIDERS / TPNR_FLEET_TTPS / TPNR_FLEET_KEY_BITS /
// TPNR_FLEET_CAPACITY_CLIENTS size the fleet sweep (CI holds 100k clients
// at 784-bit keys); TPNR_BENCH_JSON collects the JsonLine records.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/payload.h"
#include "common/serial.h"
#include "crypto/counters.h"
#include "crypto/hash.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/directory.h"
#include "nr/provider.h"
#include "nr/ttp.h"
#include "runtime/placement.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using common::kMillisecond;
using tpnr::bench::env_flag;
using tpnr::bench::env_size;

std::size_t pairs() { return env_size("TPNR_SCALE_PAIRS", 8); }
std::size_t txns_per_pair() { return env_size("TPNR_SCALE_TXNS_PER_PAIR", 64); }

struct ScaleConfig {
  std::string name;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  std::size_t payload_bytes = 4096;
  bool chaos = false;    ///< loss + duplication + reordering, reliable ARQ on
};

struct ScaleResult {
  std::size_t txns = 0;
  std::size_t completed = 0;
  std::size_t fetch_ok = 0;
  double wall_ms = 0.0;
  double txns_per_sec = 0.0;
  double p50_ms = 0.0;  ///< simulated store-completion latency
  double p99_ms = 0.0;
  std::string digest;   ///< protocol-outcome digest (shard-invariant)
  common::PayloadCounters payload;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t parallel_rounds = 0;
};

common::SimTime percentile(std::vector<common::SimTime> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

ScaleResult run_scale(const ScaleConfig& config) {
  common::Payload::reset_counters();

  const std::size_t n_pairs = pairs();
  const std::size_t n_txns = txns_per_pair();

  net::NetworkOptions net_options;
  net_options.shards = config.shards;
  net_options.workers = config.workers;
  net::Network network(42, net_options);
  net::LinkConfig link;
  link.latency = 5 * kMillisecond;
  if (config.chaos) {
    link.jitter = 10 * kMillisecond;
    link.loss_probability = 0.05;
    link.duplicate_probability = 0.10;
    link.reorder_probability = 0.05;
    link.reorder_window = 50 * kMillisecond;
  }
  network.set_default_link(link);

  // Actors: per-actor Drbg streams (a shared stream would race under worker
  // threads and make draw order depend on scheduling). Keypairs come from a
  // 3-entry pool — keygen would otherwise dominate setup at this scale.
  struct Pair {
    std::unique_ptr<crypto::Drbg> client_rng;
    std::unique_ptr<crypto::Drbg> provider_rng;
    std::unique_ptr<pki::Identity> client_id;
    std::unique_ptr<pki::Identity> provider_id;
    std::unique_ptr<nr::ClientActor> client;
    std::unique_ptr<nr::ProviderActor> provider;
    std::vector<std::string> txns;
  };
  crypto::Drbg ttp_rng(1);
  auto ttp_identity = bench::pooled_identity("ttp", "scale-ttp");
  nr::TtpActor ttp("ttp", network, ttp_identity, ttp_rng);

  std::vector<Pair> actors(n_pairs);
  nr::ClientOptions client_options;
  if (config.chaos) {
    client_options.store_retries = 2;
    client_options.resolve_retries = 2;
  }
  // Clients first, then providers: endpoints are round-robined over shards
  // in registration order, so this interleaving spreads BOTH roles across
  // every shard — each protocol phase (client signing, provider
  // verification) then keeps all workers busy instead of half of them.
  for (std::size_t i = 0; i < n_pairs; ++i) {
    Pair& pair = actors[i];
    const std::string alice = "alice-" + std::to_string(i);
    pair.client_rng = std::make_unique<crypto::Drbg>(1000 + i);
    pair.client_id = std::make_unique<pki::Identity>(
        bench::pooled_identity(alice, "scale-client"));
    pair.client = std::make_unique<nr::ClientActor>(
        alice, network, *pair.client_id, *pair.client_rng, client_options);
  }
  for (std::size_t i = 0; i < n_pairs; ++i) {
    Pair& pair = actors[i];
    const std::string bob = "bob-" + std::to_string(i);
    pair.provider_rng = std::make_unique<crypto::Drbg>(2000 + i);
    pair.provider_id = std::make_unique<pki::Identity>(
        bench::pooled_identity(bob, "scale-provider"));
    pair.provider = std::make_unique<nr::ProviderActor>(
        bob, network, *pair.provider_id, *pair.provider_rng);
  }
  for (std::size_t i = 0; i < n_pairs; ++i) {
    Pair& pair = actors[i];
    const std::string alice = "alice-" + std::to_string(i);
    const std::string bob = "bob-" + std::to_string(i);
    pair.client->trust_peer(bob, pair.provider_id->public_key());
    pair.client->trust_peer("ttp", ttp_identity.public_key());
    pair.provider->trust_peer(alice, pair.client_id->public_key());
    pair.provider->trust_peer("ttp", ttp_identity.public_key());
    ttp.trust_peer(alice, pair.client_id->public_key());
    ttp.trust_peer(bob, pair.provider_id->public_key());
    if (config.chaos) {
      pair.client->use_reliable(3000 + i);
      pair.provider->use_reliable(4000 + i);
    }
  }

  crypto::Drbg data_rng(7);
  std::vector<common::Bytes> objects(n_txns);
  for (auto& object : objects) object = data_rng.bytes(config.payload_bytes);

  const auto wall_start = std::chrono::steady_clock::now();
  // Phase 1: every pair stores every object. Submissions are posted into
  // each client's execution context (its shard) rather than called from
  // driver code, so the client-side evidence crypto — the dominant cost —
  // runs inside parallel rounds instead of serially between them.
  for (std::size_t i = 0; i < n_pairs; ++i) {
    Pair& pair = actors[i];
    const std::string alice = "alice-" + std::to_string(i);
    const std::string bob = "bob-" + std::to_string(i);
    network.post(alice, 0, [&pair, bob, n_txns, &objects] {
      for (std::size_t t = 0; t < n_txns; ++t) {
        pair.txns.push_back(pair.client->store(
            bob, "ttp", "obj-" + std::to_string(t), objects[t]));
      }
    });
  }
  network.run(1 << 26);
  // Phase 2: fetch everything back (integrity-checked downloads), again
  // from each client's own shard.
  for (std::size_t i = 0; i < n_pairs; ++i) {
    Pair& pair = actors[i];
    const std::string alice = "alice-" + std::to_string(i);
    network.post(alice, 0, [&pair] {
      for (const std::string& txn : pair.txns) pair.client->fetch(txn);
    });
  }
  network.run(1 << 26);
  const auto wall_end = std::chrono::steady_clock::now();

  ScaleResult result;
  result.txns = n_pairs * n_txns;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  result.txns_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.txns) / (result.wall_ms / 1000.0)
          : 0.0;

  // Digest + latency: iterate in deterministic program order. Everything
  // hashed here is protocol outcome — independent of shard count, worker
  // count and wall-clock speed by the engine's determinism contract.
  common::BinaryWriter digest;
  std::vector<common::SimTime> latencies;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    for (const std::string& txn : actors[i].txns) {
      const auto* state = actors[i].client->transaction(txn);
      digest.str(txn);
      digest.str(nr::txn_state_name(state->state));
      digest.bytes(state->data_hash);
      digest.u64(state->nrr.has_value() ? 1 : 0);
      digest.u64(state->fetched ? 1 : 0);
      digest.u64(state->fetch_integrity_ok ? 1 : 0);
      digest.bytes(crypto::sha256(state->fetched_data));
      digest.i64(state->finished_at);
      if (nr::txn_state_terminal(state->state)) {
        result.completed += state->state == nr::TxnState::kCompleted ||
                                    state->state ==
                                        nr::TxnState::kResolvedCompleted
                                ? 1
                                : 0;
      }
      result.fetch_ok += state->fetched && state->fetch_integrity_ok ? 1 : 0;
      if (state->finished_at > 0) {
        latencies.push_back(state->finished_at - state->started_at);
      }
    }
  }
  const net::NetworkStats& stats = network.stats();
  digest.u64(stats.messages_sent);
  digest.u64(stats.messages_delivered);
  digest.u64(stats.messages_duplicated);
  digest.u64(stats.bytes_delivered);
  result.digest = common::to_hex(crypto::sha256(digest.data()));
  result.p50_ms = static_cast<double>(percentile(latencies, 0.50)) /
                  static_cast<double>(kMillisecond);
  result.p99_ms = static_cast<double>(percentile(latencies, 0.99)) /
                  static_cast<double>(kMillisecond);
  result.payload = common::Payload::counters();
  result.events = network.engine().stats().events_executed;
  result.rounds = network.engine().stats().rounds;
  result.parallel_rounds = network.engine().stats().parallel_rounds;
  return result;
}

void emit(const ScaleConfig& config, const ScaleResult& r,
          std::vector<std::vector<std::string>>& rows) {
  rows.push_back({config.name, std::to_string(config.shards),
                  std::to_string(config.workers), std::to_string(r.txns),
                  std::to_string(r.completed), bench::fmt(r.wall_ms, 0),
                  bench::fmt(r.txns_per_sec, 0), bench::fmt(r.p50_ms, 0),
                  bench::fmt(r.p99_ms, 0), r.digest.substr(0, 12)});
  bench::JsonLine("scale")
      .field("config", config.name)
      .field("shards", static_cast<std::uint64_t>(config.shards))
      .field("workers", static_cast<std::uint64_t>(config.workers))
      .field("chaos", config.chaos)
      .field("txns", static_cast<std::uint64_t>(r.txns))
      .field("completed", static_cast<std::uint64_t>(r.completed))
      .field("fetch_ok", static_cast<std::uint64_t>(r.fetch_ok))
      .field("wall_ms", r.wall_ms, 1)
      .field("txns_per_sec", r.txns_per_sec, 1)
      .field("p50_store_latency_ms", r.p50_ms, 1)
      .field("p99_store_latency_ms", r.p99_ms, 1)
      .field("outcome_digest", r.digest)
      .field("payload_copies", r.payload.copies)
      .field("payload_copy_bytes", r.payload.copy_bytes)
      .field("payload_shares", r.payload.shares)
      .field("payload_share_bytes", r.payload.share_bytes)
      .field("events", r.events)
      .field("rounds", r.rounds)
      .field("parallel_rounds", r.parallel_rounds)
      .field("peak_rss_kb", bench::peak_rss_kb())
      .print();
}

/// Shard/worker sweep: the digest column must be one value repeated — any
/// divergence is a determinism bug in the runtime, not a perf artifact.
void print_shard_sweep() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"config", "shards", "workers", "txns", "completed",
                  "wall-ms", "txns/s", "p50-ms", "p99-ms", "digest"});
  std::vector<ScaleConfig> sweep;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t workers : {1u, 4u}) {
      if (workers > 1 && shards == 1) continue;  // nothing to fan out
      ScaleConfig config;
      config.name = "s" + std::to_string(shards) + "w" +
                    std::to_string(workers);
      config.shards = shards;
      config.workers = workers;
      sweep.push_back(config);
    }
  }
  // An explicit TPNR_SHARDS/TPNR_WORKERS point joins the sweep (e.g. the
  // TSan job runs exactly one threaded point).
  const net::NetworkOptions env = bench::options_from_env();
  if (env.shards != 1 || env.workers != 1) {
    ScaleConfig config;
    config.name = "env-s" + std::to_string(env.shards) + "w" +
                  std::to_string(env.workers);
    config.shards = env.shards;
    config.workers = env.workers;
    sweep.push_back(config);
  }

  std::string baseline_digest;
  double baseline_txns_per_sec = 0.0;
  bool digests_match = true;
  double best_speedup = 0.0;
  for (const ScaleConfig& config : sweep) {
    const ScaleResult result = run_scale(config);
    if (baseline_digest.empty()) {
      baseline_digest = result.digest;
      baseline_txns_per_sec = result.txns_per_sec;
    }
    digests_match = digests_match && result.digest == baseline_digest;
    if (baseline_txns_per_sec > 0.0) {
      best_speedup = std::max(
          best_speedup, result.txns_per_sec / baseline_txns_per_sec);
    }
    emit(config, result, rows);
  }
  bench::print_table("scale sweep: shards x workers (digest must not vary)",
                     rows);
  // Wall-clock speedup is hardware-gated: on a single-core box the engine
  // still fans rounds out (see parallel_rounds) but cannot run them
  // concurrently, so the speedup ratio is only meaningful when cores > 1.
  const std::uint64_t cores = std::thread::hardware_concurrency();
  bench::JsonLine("scale")
      .field("config", "sweep-summary")
      .field("digests_match", digests_match)
      .field("best_parallel_speedup", best_speedup, 2)
      .field("hardware_cores", cores)
      .print();
  std::printf("digests match across shard/worker sweep: %s\n",
              digests_match ? "yes" : "NO — DETERMINISM BUG");
  std::printf("best parallel speedup: %.2fx on %llu core(s)%s\n", best_speedup,
              static_cast<unsigned long long>(cores),
              cores <= 1 ? " (single core: no concurrent execution possible)"
                         : "");
}

/// COW vs by-value: payload copy counters of one COW run, with the by-value
/// baseline derived from them (copies + shares). The chaos point (loss +
/// 10%% duplication + ARQ retransmissions) is where by-value semantics hurt
/// most — every retransmit and duplicate re-copied the object bytes.
void print_copy_ab() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"config", "mode", "copies", "copy-MB", "txns/s"});
  const auto mb = [](std::uint64_t bytes) {
    return bench::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
  };
  for (const bool chaos : {false, true}) {
    ScaleConfig config;
    config.name = chaos ? "chaos" : "clean";
    config.chaos = chaos;
    const ScaleResult result = run_scale(config);
    const common::PayloadCounters& p = result.payload;
    const std::uint64_t by_value_copies = p.copies + p.shares;
    const std::uint64_t by_value_bytes = p.copy_bytes + p.share_bytes;
    rows.push_back({config.name, "by-value", std::to_string(by_value_copies),
                    mb(by_value_bytes), "-"});
    rows.push_back({config.name, "cow", std::to_string(p.copies),
                    mb(p.copy_bytes), bench::fmt(result.txns_per_sec, 0)});
    const double copy_reduction =
        by_value_copies > 0 ? 1.0 - static_cast<double>(p.copies) /
                                        static_cast<double>(by_value_copies)
                            : 0.0;
    const double byte_reduction =
        by_value_bytes > 0 ? 1.0 - static_cast<double>(p.copy_bytes) /
                                       static_cast<double>(by_value_bytes)
                           : 0.0;
    bench::JsonLine("scale")
        .field("config", config.name + "-copy-ab")
        .field("txns", static_cast<std::uint64_t>(result.txns))
        .field("by_value_copies", by_value_copies)
        .field("cow_copies", p.copies)
        .field("copy_reduction", copy_reduction, 4)
        .field("by_value_copy_bytes", by_value_bytes)
        .field("cow_copy_bytes", p.copy_bytes)
        .field("copy_byte_reduction", byte_reduction, 4)
        .print();
  }
  bench::print_table("payload copies: by-value baseline (derived) vs COW",
                     rows);
}

// ---------------------------------------------------------------------------
// Fleet experiment: consistent-hash placement + directory + partitioned TTP.
// ---------------------------------------------------------------------------

struct FleetConfig {
  std::string name;
  std::size_t clients = 256;
  std::size_t providers = 8;
  std::size_t ttp_partitions = 4;
  std::uint32_t shards = 4;
  std::uint32_t workers = 1;
  std::size_t key_bits = 1024;
  std::size_t payload_bytes = 256;
  bool fetch = false;
};

struct FleetResult {
  std::size_t txns = 0;
  std::size_t completed = 0;  ///< kCompleted + kResolvedCompleted
  std::size_t resolved = 0;   ///< completed through a TTP partition
  std::size_t deferred = 0;   ///< stores parked on a directory lookup
  std::uint64_t dir_lookups = 0;
  std::size_t partitions_used = 0;  ///< distinct TTP partitions assigned
  std::size_t fetch_ok = 0;
  double wall_ms = 0.0;
  double txns_per_sec = 0.0;
  std::string digest;  ///< protocol-outcome digest (shard/worker-invariant)
};

/// Fleet shape from the environment. The key-bits floor is 784: the OAEP
/// evidence envelope needs a 98-byte modulus, and CI's 100k-client capacity
/// point uses exactly that minimum to keep RSA private ops affordable.
FleetConfig fleet_base_from_env() {
  FleetConfig config;
  config.clients = env_size("TPNR_FLEET_CLIENTS", 256);
  config.providers = env_size("TPNR_FLEET_PROVIDERS", 8);
  config.ttp_partitions = env_size("TPNR_FLEET_TTPS", 4);
  config.key_bits =
      std::max<std::size_t>(env_size("TPNR_FLEET_KEY_BITS", 1024), 784);
  config.payload_bytes = env_size("TPNR_FLEET_PAYLOAD", 256);
  config.fetch = env_flag("TPNR_FLEET_FETCH", false);
  return config;
}

FleetResult run_fleet(const FleetConfig& config) {
  net::NetworkOptions net_options;
  net_options.shards = config.shards;
  net_options.workers = config.workers;
  net::Network network(43, net_options);
  net::LinkConfig link;
  link.latency = 5 * kMillisecond;
  network.set_default_link(link);

  // The driver-owned ring every client shares. 32 vnodes per provider keeps
  // the ring small while spreading keys within a few percent of uniform.
  runtime::Placement ring(32);
  std::vector<std::string> provider_names(config.providers);
  for (std::size_t i = 0; i < config.providers; ++i) {
    provider_names[i] = "p-" + std::to_string(i);
    ring.add_provider(provider_names[i]);
  }
  std::vector<std::string> partition_names(config.ttp_partitions);
  for (std::size_t i = 0; i < config.ttp_partitions; ++i) {
    partition_names[i] =
        nr::ttp_partition_name("ttp", static_cast<std::uint32_t>(i));
  }

  // Clients register FIRST: endpoints are round-robined over shards in
  // registration order, and clients dominate the endpoint population, so
  // this spreads the client-side crypto evenly across every worker.
  struct FleetClient {
    std::unique_ptr<crypto::Drbg> rng;
    std::unique_ptr<pki::Identity> identity;
    std::unique_ptr<nr::ClientActor> actor;
    std::string object_key;
    std::size_t owner = 0;        ///< index into provider_names
    bool via_directory = false;   ///< store routed through kDirLookup
  };
  std::vector<FleetClient> clients(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    FleetClient& c = clients[i];
    const std::string name = "c-" + std::to_string(i);
    c.rng = std::make_unique<crypto::Drbg>(100000 + i);
    c.identity = std::make_unique<pki::Identity>(
        bench::pooled_identity(name, "fleet-client", config.key_bits));
    c.actor = std::make_unique<nr::ClientActor>(name, network, *c.identity,
                                                *c.rng);
    c.actor->set_placement(&ring);
    c.actor->set_directory("dir");
    c.actor->set_ttp_partitions(partition_names);
    c.actor->reserve_txns(2);
    c.object_key = "obj-" + std::to_string(i);
    const std::string& owner = ring.owner(c.object_key);
    c.owner = static_cast<std::size_t>(
        std::find(provider_names.begin(), provider_names.end(), owner) -
        provider_names.begin());
    // Every 4th client starts cold: no owner key, so its store takes the
    // kDirLookup -> kDirReply detour before issuing.
    c.via_directory = (i % 4 == 0);
  }

  struct FleetNode {
    std::unique_ptr<crypto::Drbg> rng;
    std::unique_ptr<pki::Identity> identity;
    std::unique_ptr<nr::ProviderActor> provider;
    std::unique_ptr<nr::TtpActor> ttp;
  };
  std::vector<FleetNode> providers(config.providers);
  for (std::size_t i = 0; i < config.providers; ++i) {
    FleetNode& node = providers[i];
    node.rng = std::make_unique<crypto::Drbg>(200000 + i);
    node.identity = std::make_unique<pki::Identity>(bench::pooled_identity(
        provider_names[i], "fleet-provider", config.key_bits));
    node.provider = std::make_unique<nr::ProviderActor>(
        provider_names[i], network, *node.identity, *node.rng);
    node.provider->reserve_txns(config.clients / config.providers + 1);
  }
  // The last provider withholds receipts (the unfair Bob of §4), so every
  // client it owns escalates to its hashed TTP partition — the partitions
  // carry real Resolve traffic, not just assignments.
  if (config.providers > 1) {
    nr::ProviderBehavior unfair;
    unfair.send_store_receipts = false;
    providers.back().provider->set_behavior(unfair);
  }
  std::vector<FleetNode> ttps(config.ttp_partitions);
  for (std::size_t i = 0; i < config.ttp_partitions; ++i) {
    FleetNode& node = ttps[i];
    node.rng = std::make_unique<crypto::Drbg>(300000 + i);
    node.identity = std::make_unique<pki::Identity>(bench::pooled_identity(
        partition_names[i], "fleet-ttp", config.key_bits));
    node.ttp = std::make_unique<nr::TtpActor>(partition_names[i], network,
                                              *node.identity, *node.rng);
  }
  crypto::Drbg dir_rng(400000);
  auto dir_identity =
      bench::pooled_identity("dir", "fleet-dir", config.key_bits);
  nr::DirectoryActor directory("dir", network, dir_identity, dir_rng, ring);

  // Trust wiring. Provider <-> TTP edges are P x T; everything touching
  // clients is O(C) thanks to ring ownership (a client only ever talks to
  // its owner) and process-wide key interning.
  for (std::size_t p = 0; p < config.providers; ++p) {
    directory.register_provider_key(provider_names[p],
                                    providers[p].identity->public_key());
    for (std::size_t t = 0; t < config.ttp_partitions; ++t) {
      providers[p].provider->trust_peer(partition_names[t],
                                        ttps[t].identity->public_key());
      ttps[t].ttp->trust_peer(provider_names[p],
                              providers[p].identity->public_key());
    }
  }
  for (std::size_t i = 0; i < config.clients; ++i) {
    FleetClient& c = clients[i];
    const std::string& name = c.actor->id();
    const crypto::RsaPublicKey& key = c.identity->public_key();
    c.actor->trust_peer("dir", dir_identity.public_key());
    directory.trust_peer(name, key);
    providers[c.owner].provider->trust_peer(name, key);
    if (!c.via_directory) {
      c.actor->trust_peer(provider_names[c.owner],
                          providers[c.owner].identity->public_key());
    }
    for (std::size_t t = 0; t < config.ttp_partitions; ++t) {
      c.actor->trust_peer(partition_names[t], ttps[t].identity->public_key());
      ttps[t].ttp->trust_peer(name, key);
    }
  }

  // A small shared pool of object payloads; COW sharing means the pool is
  // the only copy regardless of fleet size.
  crypto::Drbg data_rng(7);
  std::vector<common::Bytes> objects(16);
  for (auto& object : objects) object = data_rng.bytes(config.payload_bytes);

  // All stores are posted at t=0, so the ENTIRE fleet is concurrently
  // in-flight before the first receipt can arrive (link latency 5ms) —
  // this is the ">= 100k concurrent clients" the capacity point holds.
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < config.clients; ++i) {
    FleetClient& c = clients[i];
    const common::BytesView data(objects[i % objects.size()]);
    network.post(c.actor->id(), 0, [&c, base = partition_names[0], data] {
      c.actor->store_routed(base, c.object_key, data);
    });
  }
  network.run(1 << 27);
  if (config.fetch) {
    for (std::size_t i = 0; i < config.clients; ++i) {
      FleetClient& c = clients[i];
      network.post(c.actor->id(), 0, [&c] {
        for (const std::string& txn : c.actor->routed_txns()) {
          c.actor->fetch(txn);
        }
      });
    }
    network.run(1 << 27);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  FleetResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  common::BinaryWriter digest;
  std::vector<std::size_t> partition_load(config.ttp_partitions, 0);
  for (std::size_t i = 0; i < config.clients; ++i) {
    const FleetClient& c = clients[i];
    const auto& txns = c.actor->routed_txns();
    result.txns += txns.size();
    if (c.via_directory) result.deferred += txns.size();
    digest.str(c.actor->id());
    digest.u64(txns.size());
    for (const std::string& txn : txns) {
      const auto* state = c.actor->transaction(txn);
      digest.str(txn);
      digest.str(nr::txn_state_name(state->state));
      digest.str(state->provider);
      digest.str(state->ttp);
      digest.u64(state->nrr.has_value() ? 1 : 0);
      digest.i64(state->finished_at);
      if (state->state == nr::TxnState::kCompleted ||
          state->state == nr::TxnState::kResolvedCompleted) {
        ++result.completed;
      }
      if (state->state == nr::TxnState::kResolvedCompleted) ++result.resolved;
      for (std::size_t t = 0; t < config.ttp_partitions; ++t) {
        if (state->ttp == partition_names[t]) ++partition_load[t];
      }
      if (config.fetch) {
        digest.u64(state->fetched ? 1 : 0);
        digest.u64(state->fetch_integrity_ok ? 1 : 0);
        digest.bytes(crypto::sha256(state->fetched_data));
        result.fetch_ok +=
            state->fetched && state->fetch_integrity_ok ? 1 : 0;
      }
    }
  }
  digest.u64(directory.lookups_served());
  const net::NetworkStats& stats = network.stats();
  digest.u64(stats.messages_sent);
  digest.u64(stats.messages_delivered);
  digest.u64(stats.bytes_delivered);
  result.digest = common::to_hex(crypto::sha256(digest.data()));
  result.dir_lookups = directory.lookups_served();
  for (const std::size_t load : partition_load) {
    if (load > 0) ++result.partitions_used;
  }
  result.txns_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.txns) / (result.wall_ms / 1000.0)
          : 0.0;
  return result;
}

void emit_fleet(const FleetConfig& config, const FleetResult& r,
                std::vector<std::vector<std::string>>& rows) {
  rows.push_back({config.name, std::to_string(config.shards),
                  std::to_string(config.workers),
                  std::to_string(config.clients), std::to_string(r.completed),
                  std::to_string(r.resolved), std::to_string(r.dir_lookups),
                  bench::fmt(r.wall_ms, 0), bench::fmt(r.txns_per_sec, 0),
                  r.digest.substr(0, 12)});
  bench::JsonLine("scale_fleet")
      .field("config", config.name)
      .field("shards", static_cast<std::uint64_t>(config.shards))
      .field("workers", static_cast<std::uint64_t>(config.workers))
      .field("clients", static_cast<std::uint64_t>(config.clients))
      .field("providers", static_cast<std::uint64_t>(config.providers))
      .field("ttp_partitions",
             static_cast<std::uint64_t>(config.ttp_partitions))
      .field("key_bits", static_cast<std::uint64_t>(config.key_bits))
      .field("txns", static_cast<std::uint64_t>(r.txns))
      .field("completed", static_cast<std::uint64_t>(r.completed))
      .field("resolved", static_cast<std::uint64_t>(r.resolved))
      .field("deferred", static_cast<std::uint64_t>(r.deferred))
      .field("dir_lookups", r.dir_lookups)
      .field("partitions_used",
             static_cast<std::uint64_t>(r.partitions_used))
      .field("fetch_ok", static_cast<std::uint64_t>(r.fetch_ok))
      .field("wall_ms", r.wall_ms, 1)
      .field("txns_per_sec", r.txns_per_sec, 1)
      .field("outcome_digest", r.digest)
      .field("peak_rss_kb", bench::peak_rss_kb())
      .print();
}

/// The fleet sweep: digest invariance across shard counts, wall-clock
/// speedup across worker counts at shards=4, then one capacity point
/// (TPNR_FLEET_CAPACITY_CLIENTS; CI holds 100k clients there).
void print_fleet_sweep() {
  const FleetConfig base = fleet_base_from_env();
  const crypto::CounterSnapshot crypto_before = crypto::counters().snapshot();
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"config", "shards", "workers", "clients", "completed",
                  "resolved", "dir", "wall-ms", "txns/s", "digest"});

  std::string first_digest;
  bool invariant = true;
  double wall_s4w1 = 0.0;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    FleetConfig config = base;
    config.name = "fleet-s" + std::to_string(shards) + "w1";
    config.shards = shards;
    config.workers = 1;
    const FleetResult result = run_fleet(config);
    if (first_digest.empty()) first_digest = result.digest;
    invariant = invariant && result.digest == first_digest;
    if (shards == 4) wall_s4w1 = result.wall_ms;
    emit_fleet(config, result, rows);
  }
  double speedup_workers2 = 0.0;
  double speedup_workers4 = 0.0;
  for (const std::uint32_t workers : {2u, 4u}) {
    FleetConfig config = base;
    config.name = "fleet-s4w" + std::to_string(workers);
    config.shards = 4;
    config.workers = workers;
    const FleetResult result = run_fleet(config);
    invariant = invariant && result.digest == first_digest;
    const double speedup =
        result.wall_ms > 0.0 ? wall_s4w1 / result.wall_ms : 0.0;
    (workers == 2 ? speedup_workers2 : speedup_workers4) = speedup;
    emit_fleet(config, result, rows);
  }

  // Capacity point: the biggest fleet this process runs, so the process
  // peak RSS after it is (to within the smaller sweep points) its
  // high-water mark — rss_per_client_kb is an honest per-client ceiling.
  FleetConfig capacity = base;
  capacity.name = "fleet-capacity";
  capacity.clients = env_size("TPNR_FLEET_CAPACITY_CLIENTS", base.clients);
  capacity.shards = 4;
  capacity.workers = static_cast<std::uint32_t>(
      env_size("TPNR_FLEET_CAPACITY_WORKERS", 4));
  const FleetResult cap = run_fleet(capacity);
  emit_fleet(capacity, cap, rows);

  bench::print_table(
      "fleet sweep: placement + partitioned TTP (digest must not vary)",
      rows);
  const std::uint64_t cores = std::thread::hardware_concurrency();
  const std::uint64_t rss_kb = bench::peak_rss_kb();
  bench::JsonLine("scale_fleet")
      .field("config", "fleet-summary")
      .field("clients", static_cast<std::uint64_t>(base.clients))
      .field("capacity_clients", static_cast<std::uint64_t>(capacity.clients))
      .field("capacity_completed", static_cast<std::uint64_t>(cap.completed))
      .field("capacity_txns", static_cast<std::uint64_t>(cap.txns))
      .field("capacity_wall_ms", cap.wall_ms, 1)
      .field("providers", static_cast<std::uint64_t>(base.providers))
      .field("ttp_partitions", static_cast<std::uint64_t>(base.ttp_partitions))
      .field("partitions_used", static_cast<std::uint64_t>(cap.partitions_used))
      .field("key_bits", static_cast<std::uint64_t>(base.key_bits))
      .field("digest_shard_invariant", invariant)
      .field("speedup_workers2", speedup_workers2, 2)
      .field("speedup_workers4", speedup_workers4, 2)
      .field("hardware_cores", cores)
      .field("peak_rss_kb", rss_kb)
      .field("rss_per_client_kb",
             static_cast<double>(rss_kb) /
                 static_cast<double>(capacity.clients),
             2)
      .print();
  // Crypto telemetry over the whole sweep. Deltas, not absolutes, so
  // earlier sections of this process don't pollute the fill-rate.
  const crypto::CounterSnapshot crypto_after = crypto::counters().snapshot();
  const auto delta = [&](std::uint64_t crypto::CounterSnapshot::* field) {
    return crypto_after.*field - crypto_before.*field;
  };
  const std::uint64_t mb_batches = delta(&crypto::CounterSnapshot::mb_batches);
  const std::uint64_t mb_dispatch_jobs =
      delta(&crypto::CounterSnapshot::mb_dispatch_jobs);
  const double fill_rate =
      mb_batches == 0 ? 0.0
                      : static_cast<double>(mb_dispatch_jobs) /
                            static_cast<double>(mb_batches);
  bench::JsonLine("crypto_counters")
      .field("scope", "fleet_sweep")
      .field("mb_batches", mb_batches)
      .field("mb_dispatch_jobs", mb_dispatch_jobs)
      .field("lane_fill_rate", fill_rate, 2)
      .field("lane_fill_gt4", fill_rate > 4.0)
      .field("batch_verify_groups",
             delta(&crypto::CounterSnapshot::batch_verify_groups))
      .field("batch_verify_items",
             delta(&crypto::CounterSnapshot::batch_verify_items))
      .field("mont_modmuls", delta(&crypto::CounterSnapshot::mont_modmuls))
      .field("classic_modmuls",
             delta(&crypto::CounterSnapshot::classic_modmuls))
      .field("crt_signs", delta(&crypto::CounterSnapshot::crt_signs))
      .field("classic_signs", delta(&crypto::CounterSnapshot::classic_signs))
      .field("verify_memo_hits",
             delta(&crypto::CounterSnapshot::verify_memo_hits))
      .print();
  std::printf("fleet crypto: lane fill %.2f msgs/dispatch over %llu "
              "batches\n",
              fill_rate, static_cast<unsigned long long>(mb_batches));
  std::printf("fleet digests invariant across shards/workers: %s\n",
              invariant ? "yes" : "NO — DETERMINISM BUG");
  std::printf(
      "fleet speedup at shards=4: %.2fx (w2) %.2fx (w4) on %llu core(s)%s\n",
      speedup_workers2, speedup_workers4,
      static_cast<unsigned long long>(cores),
      cores <= 1 ? " (single core: no concurrent execution possible)" : "");
  std::printf("fleet capacity: %zu clients, %zu completed, %.1f KiB/client\n",
              capacity.clients, cap.completed,
              static_cast<double>(rss_kb) /
                  static_cast<double>(capacity.clients));
}

void BM_ScaleStoreFetchSerial(benchmark::State& state) {
  for (auto _ : state) {
    ScaleConfig config;
    config.name = "bm-serial";
    const ScaleResult result = run_scale(config);
    benchmark::DoNotOptimize(result.completed);
  }
}
BENCHMARK(BM_ScaleStoreFetchSerial)->Unit(benchmark::kMillisecond);

void BM_ScaleStoreFetchSharded(benchmark::State& state) {
  for (auto _ : state) {
    ScaleConfig config;
    config.name = "bm-sharded";
    config.shards = 4;
    config.workers = 4;
    const ScaleResult result = run_scale(config);
    benchmark::DoNotOptimize(result.completed);
  }
}
BENCHMARK(BM_ScaleStoreFetchSharded)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // TPNR_SCALE_RSS_PROBE=1 runs exactly ONE chaos workload and exits. Peak
  // RSS is a process-wide high-water mark, so a clean reading needs a
  // process of its own — EXPERIMENTS.md quotes these probes.
  if (const char* probe = std::getenv("TPNR_SCALE_RSS_PROBE");
      probe != nullptr && *probe != '\0') {
    ScaleConfig config;
    config.name = "rss-probe";
    config.chaos = true;
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"config", "shards", "workers", "txns", "completed",
                    "wall-ms", "txns/s", "p50-ms", "p99-ms", "digest"});
    emit(config, run_scale(config), rows);
    tpnr::bench::emit_process_meta("scale");
    return 0;
  }
  // TPNR_SCALE_SWEEP=0 skips the experiment sweeps (e.g. to run only the
  // google-benchmark timings, or a single env-selected point via
  // TPNR_SHARDS/TPNR_WORKERS in a sanitizer job). The fleet sweep has its
  // own flag so the multi-core CI job can run it alone
  // (TPNR_SCALE_SWEEP=0 TPNR_FLEET_SWEEP=1); it defaults to following the
  // main sweep flag.
  const bool scale_sweep = env_flag("TPNR_SCALE_SWEEP", true);
  if (scale_sweep) {
    print_shard_sweep();
    print_copy_ab();
  }
  if (env_flag("TPNR_FLEET_SWEEP", scale_sweep)) print_fleet_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("scale");
  return 0;
}
