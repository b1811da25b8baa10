// Consistent-hash object->provider placement.
//
// A fleet of providers is arranged on a 64-bit hash ring, each contributing
// `vnodes` virtual points; an object key is owned by the first provider
// point at or clockwise of the key's hash. Both sides of the mapping are
// SHA-256-derived, so placement is a pure function of the membership set —
// every client, auditor and directory that holds the same ring computes the
// same owner without coordination, and adding/removing one provider moves
// only ~1/N of the keyspace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tpnr::runtime {

class Placement {
 public:
  explicit Placement(std::uint32_t vnodes = 64);

  /// Adds a provider's vnodes to the ring (idempotent). Bumps version().
  void add_provider(const std::string& name);
  /// Removes a provider and its vnodes; no-op if absent. Bumps version().
  void remove_provider(const std::string& name);

  /// The provider owning `object_key`. Throws std::runtime_error on an
  /// empty ring.
  [[nodiscard]] const std::string& owner(std::string_view object_key) const;

  [[nodiscard]] std::size_t provider_count() const noexcept {
    return providers_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return providers_.empty(); }
  /// Monotone membership-change counter; lets a cached lookup (a client's
  /// owner cache, a directory reply) be invalidated on ring changes.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const std::vector<std::string>& providers() const noexcept {
    return providers_;
  }

 private:
  [[nodiscard]] std::size_t ring_successor(std::string_view object_key) const;

  std::uint32_t vnodes_;
  std::uint64_t version_ = 0;
  std::vector<std::string> providers_;  ///< insertion order (deterministic)
  /// (point, provider index), sorted by point. Point collisions between
  /// different providers break ties by provider name via the stored index
  /// ordering — vanishingly unlikely with 64-bit SHA-256 points, but the
  /// ring must stay a deterministic function of membership regardless.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace tpnr::runtime
