#include "pki/key_intern.h"

#include <mutex>
#include <unordered_map>

#include "common/bytes.h"

namespace tpnr::pki {

namespace {

std::mutex g_mutex;
using KeyTable =
    std::unordered_map<common::Bytes,
                       std::shared_ptr<const crypto::RsaPublicKey>,
                       common::BytesHash>;
KeyTable& table() {
  static auto* t = new KeyTable();
  return *t;
}

}  // namespace

std::shared_ptr<const crypto::RsaPublicKey> intern_public_key(
    crypto::RsaPublicKey key) {
  common::Bytes fp = key.fingerprint();
  std::lock_guard<std::mutex> lock(g_mutex);
  auto& t = table();
  const auto it = t.find(fp);
  if (it != t.end()) return it->second;
  auto shared = std::make_shared<const crypto::RsaPublicKey>(std::move(key));
  t.emplace(std::move(fp), shared);
  return shared;
}

}  // namespace tpnr::pki
