// Fork-detection experiment for the consistency layer (src/consistency/):
// an equivocating provider splits its clients into two victim groups; how
// long until out-of-band gossip hands some honest client a verifiable
// EquivocationProof?
//
// Sweeps clients × gossip period × fork point. Every forked configuration
// runs next to an honest control with the identical op schedule, so the
// same sweep that measures detection latency also certifies the
// no-false-accusation property: the summary line reports detection_rate
// (CI gates on 1.0) and false_accusations (CI gates on 0).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "consistency/client.h"
#include "consistency/provider.h"
#include "crypto/drbg.h"
#include "net/network.h"

namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using common::kMillisecond;
using common::kSecond;

constexpr std::size_t kChunkSize = 256;
constexpr std::size_t kChunks = 8;
constexpr std::size_t kGossipRounds = 8;

struct ForkWorld {
  ForkWorld(std::uint64_t seed, std::size_t client_count)
      : network(seed, bench::options_from_env()), rng(seed + 1) {
    bob_id = std::make_unique<pki::Identity>(
        bench::pooled_identity("bob", "bob"));
    bob = std::make_unique<consistency::ConsProviderActor>("bob", network,
                                                           *bob_id, rng);
    for (std::size_t i = 0; i < client_count; ++i) {
      const std::string name = std::string("c").append(std::to_string(i));
      client_ids.push_back(std::make_unique<pki::Identity>(
          bench::pooled_identity(name, "client-key")));
      clients.push_back(std::make_unique<consistency::ConsClientActor>(
          name, network, *client_ids.back(), rng));
    }
    for (std::size_t i = 0; i < client_count; ++i) {
      clients[i]->trust_peer("bob", bob_id->public_key());
      bob->trust_peer(clients[i]->id(), client_ids[i]->public_key());
      for (std::size_t j = 0; j < client_count; ++j) {
        if (i == j) continue;
        clients[i]->trust_peer(clients[j]->id(), client_ids[j]->public_key());
      }
    }
  }

  /// c0 creates the object, everyone else joins, then `op_count` updates
  /// round-robin across the clients.
  void populate(std::uint64_t op_count) {
    crypto::Drbg data_rng(std::uint64_t{4242});
    clients[0]->store_shared("bob", "ttp", "obj",
                             data_rng.bytes(kChunks * kChunkSize), kChunkSize);
    network.run();
    for (std::size_t i = 1; i < clients.size(); ++i) {
      clients[i]->open_shared("bob", "ttp", "obj");
      network.run();
    }
    for (std::uint64_t op = 0; op < op_count; ++op) {
      clients[op % clients.size()]->update(
          "obj", op % kChunks, data_rng.bytes(kChunkSize));
      network.run();
    }
  }

  /// Splits the clients into two victim groups (even/odd) and commits one
  /// divergent update per group so the branches actually differ.
  void fork() {
    std::map<std::string, std::size_t> assignment;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      assignment[clients[i]->id()] = i % 2;
    }
    bob->fork_object("obj", assignment);
    crypto::Drbg data_rng(std::uint64_t{777});
    clients[0]->update("obj", 0, data_rng.bytes(kChunkSize));
    network.run();
    clients[1]->update("obj", 0, data_rng.bytes(kChunkSize));
    network.run();
  }

  /// Full-mesh gossip at `period`; returns sim-ms from now until the first
  /// client latches a proof (-1.0: never detected within the rounds).
  double run_gossip(common::SimTime period) {
    for (auto& client : clients) {
      for (auto& peer : clients) {
        if (peer != client) client->add_gossip_peer(peer->id());
      }
      consistency::GossipOptions gossip;
      gossip.period = period;
      gossip.rounds = kGossipRounds;
      client->enable_gossip(gossip);
    }
    const common::SimTime start = network.now();
    // Probes at half-period cadence record WHEN detection happened; the
    // event queue drains gossip timers and probes in timestamp order.
    detected_at = -1;
    for (std::size_t probe = 1; probe <= 2 * kGossipRounds + 2; ++probe) {
      network.schedule(probe * period / 2, [this] {
        if (detected_at >= 0) return;
        for (const auto& client : clients) {
          if (client->forks_detected() > 0) {
            detected_at = static_cast<long long>(network.now());
            return;
          }
        }
      });
    }
    network.run();
    if (detected_at < 0) return -1.0;
    return static_cast<double>(detected_at - static_cast<long long>(start)) /
           kMillisecond;
  }

  [[nodiscard]] std::uint64_t accusations() const {
    std::uint64_t total = 0;
    for (const auto& client : clients) total += client->forks_detected();
    return total;
  }

  /// The first latched proof across clients, verified against bob's key.
  [[nodiscard]] bool proof_verifies() const {
    for (const auto& client : clients) {
      const consistency::EquivocationProof* proof = client->fork_proof("obj");
      if (proof != nullptr) return proof->valid(bob_id->public_key());
    }
    return false;
  }

  net::Network network;  // constructed with options_from_env() above
  crypto::Drbg rng;
  std::unique_ptr<pki::Identity> bob_id;
  std::vector<std::unique_ptr<pki::Identity>> client_ids;
  std::unique_ptr<consistency::ConsProviderActor> bob;
  std::vector<std::unique_ptr<consistency::ConsClientActor>> clients;
  long long detected_at = -1;
};

void print_fork_detection_sweep() {
  // TPNR_FORK_SWEEP=small shrinks the grid for CI loops that run the
  // binary repeatedly (the determinism harness); the properties gated on
  // (100% detection, 0 false accusations) are grid-size independent.
  const char* sweep_env = std::getenv("TPNR_FORK_SWEEP");
  const bool small_sweep =
      sweep_env != nullptr && std::string(sweep_env) == "small";
  const std::vector<std::size_t> client_counts =
      small_sweep ? std::vector<std::size_t>{2, 3}
                  : std::vector<std::size_t>{2, 3, 4};
  const std::vector<common::SimTime> periods =
      small_sweep
          ? std::vector<common::SimTime>{2 * kSecond}
          : std::vector<common::SimTime>{1 * kSecond, 2 * kSecond,
                                         5 * kSecond};
  const std::vector<std::uint64_t> fork_points =
      small_sweep ? std::vector<std::uint64_t>{2}
                  : std::vector<std::uint64_t>{2, 6};

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"clients", "gossip period", "fork after", "detected",
                  "latency", "gossip rounds", "control accusations"});
  std::size_t configs = 0;
  std::size_t detections = 0;
  std::uint64_t false_accusations = 0;
  double latency_sum_ms = 0.0;
  double latency_max_ms = 0.0;

  std::uint64_t seed = 5000;
  for (const std::size_t clients : client_counts) {
    for (const common::SimTime period : periods) {
      for (const std::uint64_t fork_point : fork_points) {
        ++configs;
        // Forked run: detection latency from gossip start.
        ForkWorld forked(seed, clients);
        forked.populate(fork_point);
        forked.fork();
        const double latency_ms = forked.run_gossip(period);
        const bool detected = latency_ms >= 0 && forked.proof_verifies();
        if (detected) {
          ++detections;
          latency_sum_ms += latency_ms;
          latency_max_ms = std::max(latency_max_ms, latency_ms);
        }

        // Honest control: identical schedule minus the fork; every
        // accusation here is a false one.
        ForkWorld control(seed + 1, clients);
        control.populate(fork_point + 2);  // same op count as forked run
        const double control_latency = control.run_gossip(period);
        false_accusations += control.accusations();

        rows.push_back(
            {std::to_string(clients),
             bench::fmt(static_cast<double>(period) / kSecond, 1) + " s",
             std::to_string(fork_point) + " ops",
             detected ? "yes" : "NO",
             detected ? bench::fmt(latency_ms, 1) + " ms" : "-",
             detected ? bench::fmt(latency_ms / (static_cast<double>(period) /
                                                 kMillisecond),
                                   2)
                      : "-",
             std::to_string(control.accusations()) +
                 (control_latency >= 0 ? " (!)" : "")});

        bench::JsonLine("fork_detection")
            .field("clients", static_cast<std::uint64_t>(clients))
            .field("gossip_period_ms",
                   static_cast<std::uint64_t>(period / kMillisecond))
            .field("fork_point", fork_point)
            .field("detected", detected)
            .field("detection_ms", detected ? latency_ms : -1.0)
            .field("false_accusations", control.accusations())
            .print();
        seed += 2;
      }
    }
  }

  bench::print_table(
      "fork detection: clients x gossip period x fork point (TPNR)", rows);
  std::printf(
      "latency is measured from gossip enablement; every forked run must\n"
      "detect (two provider-signed histories cannot survive one exchange\n"
      "of notes) and every honest control must stay accusation-free.\n");

  bench::JsonLine("fork_detection_summary")
      .field("configs", static_cast<std::uint64_t>(configs))
      .field("detection_rate",
             configs == 0 ? 0.0
                          : static_cast<double>(detections) /
                                static_cast<double>(configs))
      .field("false_accusations", false_accusations)
      .field("mean_detection_ms",
             detections == 0 ? -1.0
                             : latency_sum_ms /
                                   static_cast<double>(detections))
      .field("max_detection_ms", latency_max_ms)
      .print();
}

void BM_ForkDetectionEndToEnd(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 9000;
  for (auto _ : state) {
    ForkWorld world(seed++, clients);
    world.populate(4);
    world.fork();
    benchmark::DoNotOptimize(world.run_gossip(2 * kSecond));
  }
  state.SetLabel(std::to_string(clients) + " clients/forked");
}
BENCHMARK(BM_ForkDetectionEndToEnd)->DenseRange(2, 4);

void BM_HonestGossipOverhead(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 9500;
  for (auto _ : state) {
    ForkWorld world(seed++, clients);
    world.populate(4);
    benchmark::DoNotOptimize(world.run_gossip(2 * kSecond));
  }
  state.SetLabel(std::to_string(clients) + " clients/honest");
}
BENCHMARK(BM_HonestGossipOverhead)->DenseRange(2, 4);

}  // namespace

int main(int argc, char** argv) {
  print_fork_detection_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tpnr::bench::emit_process_meta("fork_detection");
  return 0;
}
