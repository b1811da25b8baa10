#include "crypto/verify_memo.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "crypto/counters.h"
#include "crypto/sha256.h"

namespace tpnr::crypto {

namespace {

// Bounded memo: a long-running arbitrator sees a finite set of live
// disputes; on overflow the memo cycles rather than grows.
constexpr std::size_t kMemoCap = 4096;
std::mutex g_memo_mu;
std::map<Bytes, bool>& memo() {
  static std::map<Bytes, bool> m;
  return m;
}

Bytes memo_key(const RsaPublicKey& key, HashKind kind, BytesView message,
               BytesView signature) {
  Sha256 h;
  // The key's cached fingerprint: a 32-byte copy instead of re-serializing
  // n||e (hundreds of bytes of BigInt encoding) on every lookup.
  h.update(key.fingerprint());
  const std::uint8_t kind_byte = static_cast<std::uint8_t>(kind);
  h.update(BytesView(&kind_byte, 1));
  // Hash the (possibly large) message and signature down first so the memo
  // key is fixed-size work regardless of payload size.
  h.update(sha256(message));
  h.update(sha256(signature));
  return h.finish();
}

}  // namespace

bool verify_memo_lookup(const RsaPublicKey& key, HashKind kind,
                        BytesView message, BytesView signature, bool& result) {
  Bytes id = memo_key(key, kind, message, signature);
  std::lock_guard<std::mutex> lock(g_memo_mu);
  auto it = memo().find(id);
  if (it == memo().end()) return false;
  counters().verify_memo_hits.fetch_add(1, std::memory_order_relaxed);
  result = it->second;
  return true;
}

void verify_memo_store(const RsaPublicKey& key, HashKind kind,
                       BytesView message, BytesView signature, bool result) {
  counters().verify_memo_misses.fetch_add(1, std::memory_order_relaxed);
  Bytes id = memo_key(key, kind, message, signature);
  std::lock_guard<std::mutex> lock(g_memo_mu);
  auto& m = memo();
  if (m.size() >= kMemoCap) m.clear();
  m.emplace(std::move(id), result);
}

bool rsa_verify_memo(const RsaPublicKey& key, HashKind kind, BytesView message,
                     BytesView signature) {
  bool memoized = false;
  if (verify_memo_lookup(key, kind, message, signature, memoized)) {
    return memoized;
  }
  const bool ok = rsa_verify(key, kind, message, signature);
  verify_memo_store(key, kind, message, signature, ok);
  return ok;
}

void verify_memo_clear() {
  std::lock_guard<std::mutex> lock(g_memo_mu);
  memo().clear();
}

}  // namespace tpnr::crypto
