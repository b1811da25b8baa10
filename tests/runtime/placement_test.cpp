// runtime::Placement: the consistent-hash object->provider ring. The
// properties that make it fleet-safe: ownership is a pure function of the
// membership set (not insertion history), membership changes move only the
// keys they must (adds steal exclusively for the new node; removals
// redistribute exclusively the removed node's keys), and every change bumps
// the version so cached directory answers can be aged out.
#include "runtime/placement.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace tpnr::runtime {
namespace {

std::vector<std::string> keys(std::size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back("obj-" + std::to_string(i));
  }
  return out;
}

Placement make_ring(std::size_t providers, std::uint32_t vnodes = 64) {
  Placement ring(vnodes);
  for (std::size_t i = 0; i < providers; ++i) {
    ring.add_provider("p-" + std::to_string(i));
  }
  return ring;
}

TEST(Placement, OwnerIsDeterministicAcrossInstancesAndInsertOrder) {
  Placement forward = make_ring(5);
  Placement reversed(64);
  for (int i = 4; i >= 0; --i) reversed.add_provider("p-" + std::to_string(i));
  for (const std::string& key : keys(200)) {
    EXPECT_EQ(forward.owner(key), reversed.owner(key)) << key;
  }
}

TEST(Placement, EmptyRingThrows) {
  Placement ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.owner("anything"), std::runtime_error);
}

TEST(Placement, SpreadsKeysAcrossAllProviders) {
  const Placement ring = make_ring(8);
  std::map<std::string, std::size_t> load;
  for (const std::string& key : keys(4000)) ++load[ring.owner(key)];
  EXPECT_EQ(load.size(), 8u);  // nobody starved
  for (const auto& [provider, count] : load) {
    // Uniform share is 500; 64 vnodes keeps everyone within a loose band.
    EXPECT_GT(count, 150u) << provider;
    EXPECT_LT(count, 1200u) << provider;
  }
}

TEST(Placement, AddingProviderStealsOnlyForItself) {
  Placement ring = make_ring(8);
  const std::vector<std::string> sample = keys(4000);
  std::map<std::string, std::string> before;
  for (const std::string& key : sample) before[key] = ring.owner(key);

  ring.add_provider("p-8");
  std::size_t moved = 0;
  for (const std::string& key : sample) {
    const std::string& now = ring.owner(key);
    if (now != before[key]) {
      ++moved;
      // The consistent-hashing guarantee: a join only moves keys TO the
      // joining node — nothing reshuffles between the old providers.
      EXPECT_EQ(now, "p-8") << key << " moved between old providers";
    }
  }
  // Expected fraction ~1/9 of the keys; allow a generous band.
  EXPECT_GT(moved, sample.size() / 30);
  EXPECT_LT(moved, sample.size() / 3);
}

TEST(Placement, RemovingProviderMovesOnlyItsKeys) {
  Placement ring = make_ring(8);
  const std::vector<std::string> sample = keys(4000);
  std::map<std::string, std::string> before;
  for (const std::string& key : sample) before[key] = ring.owner(key);

  ring.remove_provider("p-3");
  EXPECT_EQ(ring.provider_count(), 7u);
  for (const std::string& key : sample) {
    if (before[key] == "p-3") {
      EXPECT_NE(ring.owner(key), "p-3");
    } else {
      // Keys of surviving providers must not move at all.
      EXPECT_EQ(ring.owner(key), before[key]) << key;
    }
  }
}

TEST(Placement, VersionBumpsOnEveryMembershipChange) {
  Placement ring(16);
  const std::uint64_t v0 = ring.version();
  ring.add_provider("a");
  const std::uint64_t v1 = ring.version();
  EXPECT_GT(v1, v0);
  ring.add_provider("b");
  const std::uint64_t v2 = ring.version();
  EXPECT_GT(v2, v1);
  ring.remove_provider("a");
  EXPECT_GT(ring.version(), v2);
  // Lookups do not bump the version.
  const std::uint64_t v3 = ring.version();
  (void)ring.owner("k");
  EXPECT_EQ(ring.version(), v3);
}

}  // namespace
}  // namespace tpnr::runtime
