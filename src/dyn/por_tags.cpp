#include "dyn/por_tags.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/error.h"
#include "common/serial.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"

namespace tpnr::dyn {

namespace fp {

std::uint64_t reduce(std::uint64_t x) noexcept {
  // 2^61 ≡ 1 (mod p): fold the top bits down, then one conditional subtract.
  std::uint64_t r = (x >> 61) + (x & kP);
  if (r >= kP) r -= kP;
  return r;
}

std::uint64_t add(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t r = a + b;  // < 2^62, no overflow
  if (r >= kP) r -= kP;
  return r;
}

std::uint64_t mul(std::uint64_t a, std::uint64_t b) noexcept {
  __extension__ using u128 = unsigned __int128;  // GCC/Clang builtin
  const u128 t = static_cast<u128>(a) * b;
  // t < p^2 < 2^122; fold both 61-bit limbs (2^61 ≡ 1, 2^122 ≡ 1).
  const auto lo = static_cast<std::uint64_t>(t) & kP;
  const auto mid = static_cast<std::uint64_t>(t >> 61) & kP;
  const auto hi = static_cast<std::uint64_t>(t >> 122);
  return reduce(lo + mid + hi);  // ≤ 3p − 2 < 2^63, reduce handles it
}

}  // namespace fp

namespace {

/// First 8 bytes of an HMAC output as a little-endian field element.
std::uint64_t mac_to_field(const Bytes& mac) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | mac[static_cast<std::size_t>(i)];
  }
  return fp::reduce(v);
}

}  // namespace

std::size_t sectors_per_chunk(std::size_t chunk_size) {
  if (chunk_size == 0) throw common::Error("sectors_per_chunk: zero chunk");
  return (chunk_size + kSectorBytes - 1) / kSectorBytes;
}

std::vector<std::uint64_t> chunk_sectors(BytesView chunk,
                                         std::size_t sector_count) {
  std::vector<std::uint64_t> sectors(sector_count, 0);
  for (std::size_t j = 0; j < sector_count; ++j) {
    std::uint64_t v = 0;
    const std::size_t base = j * kSectorBytes;
    for (std::size_t b = kSectorBytes; b-- > 0;) {
      const std::size_t at = base + b;
      v <<= 8;
      if (at < chunk.size()) v |= chunk[at];
    }
    sectors[j] = v;  // < 2^56 < p, already canonical
  }
  return sectors;
}

TagKey::TagKey(BytesView prf_key, BytesView alpha_key)
    : prf_(crypto::HashKind::kSha256, prf_key),
      alpha_(crypto::HashKind::kSha256, alpha_key) {}

TagKey TagKey::derive(BytesView master, std::string_view object_key) {
  const Bytes label = common::to_bytes(object_key);
  const auto subkey = [&](std::string_view domain) {
    return crypto::hmac_sha256(
        master, common::concat({common::to_bytes(domain), label}));
  };
  return TagKey(subkey("tpnr.dyn.tag.prf:"), subkey("tpnr.dyn.tag.alpha:"));
}

std::uint64_t TagKey::prf(BytesView leaf_hash) const {
  return mac_to_field(prf_.mac(leaf_hash));
}

std::vector<std::uint64_t> TagKey::alphas(std::size_t sector_count) const {
  std::vector<std::uint64_t> out(sector_count);
  for (std::size_t j = 0; j < sector_count; ++j) {
    common::BinaryWriter w;
    w.str("alpha");
    w.u64(j);
    out[j] = mac_to_field(alpha_.mac(w.data()));
  }
  return out;
}

std::uint64_t make_tag(const TagKey& key, BytesView chunk, BytesView leaf_hash,
                       std::span<const std::uint64_t> alphas) {
  const auto sectors = chunk_sectors(chunk, alphas.size());
  std::uint64_t tag = key.prf(leaf_hash);
  for (std::size_t j = 0; j < alphas.size(); ++j) {
    tag = fp::add(tag, fp::mul(alphas[j], sectors[j]));
  }
  return tag;
}

std::vector<std::uint64_t> make_tags(const TagKey& key,
                                     std::span<const BytesView> chunks,
                                     std::span<const Bytes> leaf_hashes,
                                     std::span<const std::uint64_t> alphas) {
  std::vector<std::uint64_t> tags(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    tags[i] = make_tag(key, chunks[i], leaf_hashes[i], alphas);
  }
  return tags;
}

std::vector<AggChallenge::Item> AggChallenge::derive(
    std::uint64_t leaf_count) const {
  std::vector<Item> items;
  if (leaf_count == 0 || count == 0) return items;
  crypto::Drbg drbg(seed);
  const std::uint64_t want = std::min(count, leaf_count);
  std::set<std::uint64_t> picked;
  while (picked.size() < want) {
    const std::uint64_t index = drbg.uniform(leaf_count);
    if (!picked.insert(index).second) continue;  // duplicate: no ν consumed
    items.push_back({index, drbg.uniform(fp::kP - 1) + 1});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.index < b.index; });
  return items;
}

Bytes AggResponse::encode() const {
  common::BinaryWriter w;
  w.u64(version);
  w.bytes(root);
  w.u64(sigma);
  w.u32(static_cast<std::uint32_t>(mu.size()));
  for (const std::uint64_t m : mu) w.u64(m);
  w.bytes(proof.encode());
  return w.take();
}

AggResponse AggResponse::decode(BytesView data) {
  common::BinaryReader r(data);
  AggResponse out;
  out.version = r.u64();
  out.root = r.bytes();
  out.sigma = r.u64();
  const std::uint32_t n = r.count(8);
  out.mu.reserve(n);
  for (std::uint32_t j = 0; j < n; ++j) out.mu.push_back(r.u64());
  out.proof = DynBatchProof::decode(r.bytes());
  r.expect_done();
  return out;
}

std::size_t AggResponse::encoded_size() const {
  // u64 version + len+root + u64 sigma + u32 count + mu + len+proof.
  return 8 + 4 + root.size() + 8 + 4 + 8 * mu.size() + 4 +
         proof.encoded_size();
}

AggResponse make_agg_response(const AggChallenge& challenge,
                              const DynMerkleTree& tree,
                              std::span<const BytesView> chunks,
                              std::span<const std::uint64_t> tags,
                              std::size_t chunk_size, std::uint64_t version) {
  if (chunks.size() != tags.size()) {
    throw common::Error("make_agg_response: chunks/tags size mismatch");
  }
  if (tree.leaf_count() != chunks.size()) {
    throw common::Error("make_agg_response: tree/chunks size mismatch");
  }
  const auto items = challenge.derive(tree.leaf_count());
  const std::size_t sector_count = sectors_per_chunk(chunk_size);

  AggResponse out;
  out.version = version;
  out.root = tree.root();
  out.mu.assign(sector_count, 0);
  std::vector<std::uint64_t> indices;
  indices.reserve(items.size());
  for (const auto& item : items) {
    const std::size_t i = item.index;
    indices.push_back(item.index);
    const std::uint64_t nu = item.nu;
    out.sigma = fp::add(out.sigma, fp::mul(nu, tags[i]));
    const auto sectors = chunk_sectors(chunks[i], sector_count);
    for (std::size_t j = 0; j < sector_count; ++j) {
      out.mu[j] = fp::add(out.mu[j], fp::mul(nu, sectors[j]));
    }
  }
  out.proof = tree.prove_batch(indices);
  return out;
}

bool verify_agg_response(const AggChallenge& challenge,
                         const AggResponse& response, const TagKey& key,
                         std::span<const std::uint64_t> alphas,
                         std::uint64_t leaf_count, std::size_t chunk_size,
                         BytesView root) {
  const std::size_t sector_count = sectors_per_chunk(chunk_size);
  if (alphas.size() != sector_count) return false;
  if (response.mu.size() != sector_count) return false;
  if (response.sigma >= fp::kP) return false;
  for (const std::uint64_t m : response.mu) {
    if (m >= fp::kP) return false;
  }

  std::vector<VerifiedLeaf> leaves;
  if (!DynMerkleTree::verify_batch(response.proof, root, leaves)) return false;
  if (response.proof.leaf_count != leaf_count) return false;

  const auto items = challenge.derive(leaf_count);
  if (leaves.size() != items.size()) return false;
  // Both sides are in ascending index order; the proven set must equal the
  // challenged set exactly.
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (leaves[i].index != items[i].index) return false;
    expected =
        fp::add(expected, fp::mul(items[i].nu, key.prf(leaves[i].leaf_hash)));
  }
  for (std::size_t j = 0; j < sector_count; ++j) {
    expected = fp::add(expected, fp::mul(alphas[j], response.mu[j]));
  }
  return expected == response.sigma;
}

}  // namespace tpnr::dyn
