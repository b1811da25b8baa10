#include "runtime/placement.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/hash.h"

namespace tpnr::runtime {

namespace {

/// First 8 bytes of SHA-256(label), big-endian — the ring coordinate.
std::uint64_t ring_point(std::string_view label) {
  const auto digest = crypto::sha256(common::BytesView(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  std::uint64_t point = 0;
  for (int i = 0; i < 8; ++i) {
    point = (point << 8) | digest[static_cast<std::size_t>(i)];
  }
  return point;
}

}  // namespace

Placement::Placement(std::uint32_t vnodes)
    : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void Placement::add_provider(const std::string& name) {
  if (std::find(providers_.begin(), providers_.end(), name) !=
      providers_.end()) {
    return;
  }
  const auto index = static_cast<std::uint32_t>(providers_.size());
  providers_.push_back(name);
  ring_.reserve(ring_.size() + vnodes_);
  for (std::uint32_t v = 0; v < vnodes_; ++v) {
    ring_.emplace_back(ring_point(name + "#" + std::to_string(v)), index);
  }
  std::sort(ring_.begin(), ring_.end());
  ++version_;
}

void Placement::remove_provider(const std::string& name) {
  const auto it = std::find(providers_.begin(), providers_.end(), name);
  if (it == providers_.end()) return;
  const auto index = static_cast<std::uint32_t>(it - providers_.begin());
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [index](const auto& entry) {
                               return entry.second == index;
                             }),
              ring_.end());
  // Keep provider indices stable for the survivors: tombstone instead of
  // compacting would leak; re-index the tail instead.
  providers_.erase(it);
  for (auto& entry : ring_) {
    if (entry.second > index) --entry.second;
  }
  ++version_;
}

std::size_t Placement::ring_successor(std::string_view object_key) const {
  if (ring_.empty()) {
    throw std::runtime_error("Placement: empty ring");
  }
  const std::uint64_t point = ring_point(object_key);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, std::uint64_t p) { return entry.first < p; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

const std::string& Placement::owner(std::string_view object_key) const {
  return providers_[ring_[ring_successor(object_key)].second];
}

}  // namespace tpnr::runtime
