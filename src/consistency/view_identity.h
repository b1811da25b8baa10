// The single source of truth for "same object, seen through a different
// view" identity.
//
// Per-view state for ONE logical object must not collide with, or evict,
// the object's primary state: the static provider's MerkleCache keeps the
// honest current-bytes tree next to the equivocation snapshot it serves
// stale proofs from. That state is keyed with view_key() so the identity
// convention lives in exactly one place — an object's primary view is the
// bare key; every other view hangs off it as "<key>#<label>". (The
// fork-consistency provider keeps its per-victim branches in
// ConsProviderActor::SharedObjectState, not under view keys.)
//
// Header-only on purpose: tpnr_nr uses it without linking
// tpnr_consistency.
#pragma once

#include <string>
#include <string_view>

namespace tpnr::consistency {

/// The label of an object's primary (honest, canonical) view.
inline constexpr std::string_view kPrimaryView = "";

/// The label the static provider files its pre-tamper equivocation
/// snapshot under (the tree it keeps serving audit proofs from while the
/// stored bytes have silently changed).
inline constexpr std::string_view kEquivocationSnapshotView = "orig";

/// Canonical identity of `object_key` seen through `view`. The primary
/// view maps to the bare object key, so existing single-view state keeps
/// its keys; any other view gets the unambiguous "<key>#<view>" form.
inline std::string view_key(const std::string& object_key,
                            std::string_view view = kPrimaryView) {
  if (view.empty()) return object_key;
  std::string key;
  key.reserve(object_key.size() + 1 + view.size());
  key.append(object_key);
  key.push_back('#');
  key.append(view);
  return key;
}

}  // namespace tpnr::consistency
