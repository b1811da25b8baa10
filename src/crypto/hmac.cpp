#include "crypto/hmac.h"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "crypto/counters.h"

namespace tpnr::crypto {

namespace {

/// Key-padding step shared by both HMAC flavors: hash long keys, pad to the
/// block size, XOR into fresh ipad/opad blocks.
void derive_pads(HashKind kind, BytesView key, std::size_t block, Bytes& ipad,
                 Bytes& opad) {
  Bytes k(key.begin(), key.end());
  if (k.size() > block) {
    k = digest(kind, k);
  }
  k.resize(block, 0);

  ipad.assign(block, 0x36);
  opad.assign(block, 0x5c);
  for (std::size_t i = 0; i < block; ++i) {
    ipad[i] ^= k[i];
    opad[i] ^= k[i];
  }
  common::secure_wipe(k);
}

}  // namespace

Hmac::Hmac(HashKind kind, BytesView key)
    : inner_(make_hash(kind)), outer_(make_hash(kind)) {
  derive_pads(kind, key, inner_->block_size(), ipad_, opad_);
  if (auto* inner_core = dynamic_cast<Sha256Core*>(inner_.get())) {
    auto* outer_core = static_cast<Sha256Core*>(outer_.get());
    inner_core->reset();
    inner_core->update(ipad_);
    inner_mid_ = inner_core->midstate();
    outer_core->reset();
    outer_core->update(opad_);
    outer_mid_ = outer_core->midstate();
    use_midstate_ = true;
  }
  start();
}

void Hmac::start() {
  if (use_midstate_) {
    static_cast<Sha256Core*>(inner_.get())->restore(inner_mid_);
    return;
  }
  inner_->reset();
  inner_->update(ipad_);
}

void Hmac::update(BytesView data) { inner_->update(data); }

Bytes Hmac::finish() {
  const Bytes inner_digest = inner_->finish();
  if (use_midstate_) {
    static_cast<Sha256Core*>(outer_.get())->restore(outer_mid_);
  } else {
    outer_->reset();
    outer_->update(opad_);
  }
  outer_->update(inner_digest);
  Bytes tag = outer_->finish();
  start();
  return tag;
}

HmacKeyState::HmacKeyState(HashKind kind, BytesView key) : kind_(kind) {
  if (kind != HashKind::kSha224 && kind != HashKind::kSha256) {
    throw common::CryptoError("HmacKeyState: only the SHA-256 family");
  }
  Bytes ipad;
  Bytes opad;
  derive_pads(kind, key, 64, ipad, opad);
  if (kind == HashKind::kSha224) {
    Sha224 h;
    h.update(ipad);
    inner_mid_ = h.midstate();
    h.reset();
    h.update(opad);
    outer_mid_ = h.midstate();
  } else {
    Sha256 h;
    h.update(ipad);
    inner_mid_ = h.midstate();
    h.reset();
    h.update(opad);
    outer_mid_ = h.midstate();
  }
  common::secure_wipe(ipad);
  common::secure_wipe(opad);
  counters().hmac_midstate_misses.fetch_add(1, std::memory_order_relaxed);
}

namespace {

template <typename H>
Bytes keyed_mac(const Sha256Midstate& inner_mid,
                const Sha256Midstate& outer_mid, BytesView data) {
  H h;
  h.restore(inner_mid);
  h.update(data);
  const Bytes inner_digest = h.finish();
  h.restore(outer_mid);
  h.update(inner_digest);
  return h.finish();
}

}  // namespace

Bytes HmacKeyState::mac(BytesView data) const {
  counters().hmac_midstate_hits.fetch_add(1, std::memory_order_relaxed);
  if (kind_ == HashKind::kSha224) {
    return keyed_mac<Sha224>(inner_mid_, outer_mid_, data);
  }
  return keyed_mac<Sha256>(inner_mid_, outer_mid_, data);
}

bool HmacKeyState::verify(BytesView data, BytesView tag) const {
  return common::constant_time_equal(mac(data), tag);
}

Bytes hmac(HashKind kind, BytesView key, BytesView data) {
  Hmac mac(kind, key);
  mac.update(data);
  return mac.finish();
}

Bytes hmac_sha256(BytesView key, BytesView data) {
  return hmac(HashKind::kSha256, key, data);
}

namespace {

// Process-wide key-state cache. Keys are identified by their SHA-256 digest
// so raw key bytes never sit in the map. Bounded: recurring keys (account
// keys, session MACs) number in the dozens; a runaway caller just cycles
// the cache instead of growing it.
constexpr std::size_t kHmacCacheCap = 256;
std::mutex g_hmac_cache_mu;
std::unordered_map<Bytes, HmacKeyState, common::BytesHash>& hmac_cache() {
  static std::unordered_map<Bytes, HmacKeyState, common::BytesHash> cache;
  return cache;
}

}  // namespace

Bytes hmac_sha256_cached(BytesView key, BytesView data) {
  Bytes id = sha256(key);
  std::lock_guard<std::mutex> lock(g_hmac_cache_mu);
  auto& cache = hmac_cache();
  auto it = cache.find(id);
  if (it == cache.end()) {
    if (cache.size() >= kHmacCacheCap) cache.clear();
    it = cache.emplace(std::move(id), HmacKeyState(HashKind::kSha256, key))
             .first;
  }
  return it->second.mac(data);
}

void hmac_cache_clear() {
  std::lock_guard<std::mutex> lock(g_hmac_cache_mu);
  hmac_cache().clear();
}

bool hmac_verify(HashKind kind, BytesView key, BytesView data, BytesView tag) {
  return common::constant_time_equal(hmac(kind, key, data), tag);
}

}  // namespace tpnr::crypto
