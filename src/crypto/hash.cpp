#include "crypto/hash.h"

#include "common/error.h"
#include "crypto/counters.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace tpnr::crypto {

std::string hash_name(HashKind kind) {
  switch (kind) {
    case HashKind::kMd5:
      return "md5";
    case HashKind::kSha1:
      return "sha1";
    case HashKind::kSha224:
      return "sha224";
    case HashKind::kSha256:
      return "sha256";
    case HashKind::kSha384:
      return "sha384";
    case HashKind::kSha512:
      return "sha512";
  }
  throw common::CryptoError("hash_name: unknown kind");
}

std::unique_ptr<Hash> make_hash(HashKind kind) {
  switch (kind) {
    case HashKind::kMd5:
      return std::make_unique<Md5>();
    case HashKind::kSha1:
      return std::make_unique<Sha1>();
    case HashKind::kSha224:
      return std::make_unique<Sha224>();
    case HashKind::kSha256:
      return std::make_unique<Sha256>();
    case HashKind::kSha384:
      return std::make_unique<Sha384>();
    case HashKind::kSha512:
      return std::make_unique<Sha512>();
  }
  throw common::CryptoError("make_hash: unknown kind");
}

Bytes digest(HashKind kind, BytesView data) {
  auto h = make_hash(kind);
  h->update(data);
  return h->finish();
}

Bytes md5(BytesView data) { return digest(HashKind::kMd5, data); }

Bytes sha256(BytesView data) {
  // Padded length in 64-byte blocks: the data, 0x80 and the 8-byte length.
  counters().scalar_blocks.fetch_add((data.size() + 8) / 64 + 1,
                                     std::memory_order_relaxed);
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace tpnr::crypto
