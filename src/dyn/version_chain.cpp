#include "dyn/version_chain.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"
#include "dyn/dyn_merkle.h"
#include "pki/identity.h"

namespace tpnr::dyn {

std::string mutate_op_name(MutateOp op) {
  switch (op) {
    case MutateOp::kStore:
      return "store";
    case MutateOp::kUpdate:
      return "update";
    case MutateOp::kInsert:
      return "insert";
    case MutateOp::kAppend:
      return "append";
    case MutateOp::kErase:
      return "erase";
  }
  return "?";
}

Bytes VersionRecord::encode() const {
  common::BinaryWriter w;
  w.str("tpnr.dyn.version.v1");  // domain separation from other signed blobs
  w.str(object_key);
  w.u64(version);
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(chunk_index);
  w.u64(chunk_count);
  w.bytes(old_root);
  w.bytes(new_root);
  w.u64(chunk_tag);
  w.bytes(prev_record_hash);
  return w.take();
}

VersionRecord VersionRecord::decode(BytesView data) {
  common::BinaryReader r(data);
  if (r.str() != "tpnr.dyn.version.v1") {
    throw common::SerialError("VersionRecord: bad magic");
  }
  VersionRecord out;
  out.object_key = r.str();
  out.version = r.u64();
  const std::uint8_t op = r.u8();
  if (op < 1 || op > 5) throw common::SerialError("VersionRecord: bad op");
  out.op = static_cast<MutateOp>(op);
  out.chunk_index = r.u64();
  out.chunk_count = r.u64();
  out.old_root = r.bytes();
  out.new_root = r.bytes();
  out.chunk_tag = r.u64();
  out.prev_record_hash = r.bytes();
  r.expect_done();
  return out;
}

Bytes VersionRecord::hash() const { return crypto::sha256(encode()); }

const Bytes& VersionRecord::genesis_link() {
  static const Bytes zeros(32, 0);
  return zeros;
}

Bytes SignedVersionRecord::encode() const {
  common::BinaryWriter w;
  w.bytes(record.encode());
  w.bytes(client_sig);
  w.bytes(provider_sig);
  return w.take();
}

SignedVersionRecord SignedVersionRecord::decode(BytesView data) {
  common::BinaryReader r(data);
  SignedVersionRecord out;
  out.record = VersionRecord::decode(r.bytes());
  out.client_sig = r.bytes();
  out.provider_sig = r.bytes();
  r.expect_done();
  return out;
}

Bytes SignedVersionRecord::countersigned() const {
  return common::concat({BytesView(record.encode()), BytesView(client_sig)});
}

void SignedVersionRecord::countersign(const pki::Identity& provider) {
  provider_sig = provider.sign(countersigned());
}

bool SignedVersionRecord::verify_client(
    const crypto::RsaPublicKey& client) const {
  return pki::Identity::verify(client, record.encode(), client_sig);
}

bool SignedVersionRecord::verify_provider(
    const crypto::RsaPublicKey& provider) const {
  return pki::Identity::verify(provider, countersigned(), provider_sig);
}

bool SignedVersionRecord::verify(const crypto::RsaPublicKey& client,
                                 const crypto::RsaPublicKey& provider) const {
  return verify_client(client) && verify_provider(provider);
}

namespace {

bool fail(std::string* why, std::string message) {
  if (why != nullptr) *why = std::move(message);
  return false;
}

}  // namespace

// Structural continuity against the current head — the one link rule, which
// walk_chain replays through this same function.
bool VersionChain::append(SignedVersionRecord signed_rec, std::string* why) {
  const VersionRecord& rec = signed_rec.record;
  if (!records_.empty() &&
      rec.object_key != records_.front().record.object_key) {
    return fail(why, "record for a different object");
  }
  const std::uint64_t head_count = head_chunk_count();
  const Admission admission = admit(signed_rec);
  if (admission != Admission::kNext && admission != Admission::kUnlinked) {
    return fail(why, "version " + std::to_string(rec.version) +
                         " does not follow " + std::to_string(head_version()));
  }
  if ((rec.op == MutateOp::kStore) != (rec.version == 1)) {
    return fail(why, "store op must be (exactly) the first record");
  }
  if (admission == Admission::kUnlinked) {
    return fail(why, common::constant_time_equal(rec.old_root, head_root())
                         ? "prev_record_hash does not match chain head"
                         : "old_root does not match chain head root");
  }
  std::uint64_t expect_count = head_count;
  switch (rec.op) {
    case MutateOp::kStore:
      expect_count = rec.chunk_count;  // free choice, but must be non-empty
      if (rec.chunk_count == 0) return fail(why, "store of zero chunks");
      break;
    case MutateOp::kUpdate:
      break;  // count unchanged
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      expect_count = head_count + 1;
      break;
    case MutateOp::kErase:
      if (head_count == 0) return fail(why, "erase on empty object");
      expect_count = head_count - 1;
      break;
  }
  if (rec.chunk_count != expect_count) {
    return fail(why, "chunk_count inconsistent with op");
  }
  if (rec.op == MutateOp::kAppend && rec.chunk_index != head_count) {
    return fail(why, "append index must equal previous chunk_count");
  }
  if ((rec.op == MutateOp::kUpdate || rec.op == MutateOp::kErase) &&
      rec.chunk_index >= head_count) {
    return fail(why, "chunk_index out of range");
  }
  if (rec.op == MutateOp::kInsert && rec.chunk_index > head_count) {
    return fail(why, "insert index out of range");
  }
  records_.push_back(std::move(signed_rec));
  return true;
}

std::uint64_t VersionChain::head_version() const noexcept {
  return records_.empty() ? 0 : records_.back().record.version;
}

const Bytes& VersionChain::head_root() const {
  return records_.empty() ? DynMerkleTree::empty_root()
                          : records_.back().record.new_root;
}

std::uint64_t VersionChain::head_chunk_count() const noexcept {
  return records_.empty() ? 0 : records_.back().record.chunk_count;
}

Bytes VersionChain::head_hash() const {
  return records_.empty() ? VersionRecord::genesis_link()
                          : records_.back().record.hash();
}

VersionRecord VersionChain::next_record(std::string object_key, MutateOp op,
                                        std::uint64_t chunk_index,
                                        std::uint64_t chunk_count,
                                        Bytes new_root,
                                        std::uint64_t chunk_tag) const {
  VersionRecord rec;
  rec.object_key = std::move(object_key);
  rec.version = head_version() + 1;
  rec.op = op;
  rec.chunk_index = chunk_index;
  rec.chunk_count = chunk_count;
  rec.old_root = head_root();
  rec.new_root = std::move(new_root);
  rec.chunk_tag = chunk_tag;
  rec.prev_record_hash = head_hash();
  return rec;
}

Admission VersionChain::admit(const SignedVersionRecord& signed_rec) const {
  const VersionRecord& rec = signed_rec.record;
  const std::uint64_t head = head_version();
  if (rec.version >= 1 && rec.version <= head) {
    const SignedVersionRecord& committed = records_[rec.version - 1];
    const bool same =
        common::constant_time_equal(committed.record.encode(), rec.encode()) &&
        common::constant_time_equal(committed.client_sig,
                                    signed_rec.client_sig);
    return same ? Admission::kRetry : Admission::kConflict;
  }
  if (rec.version != head + 1) return Admission::kGap;
  if (!common::constant_time_equal(rec.old_root, head_root()) ||
      !common::constant_time_equal(rec.prev_record_hash, head_hash())) {
    return Admission::kUnlinked;
  }
  return Admission::kNext;
}

std::optional<std::uint64_t> VersionChain::version_of_root(
    BytesView root) const {
  // Newest first: after an update that restores earlier bytes, the HIGHEST
  // version owning this root is the honest interpretation.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (common::constant_time_equal(it->record.new_root, root)) {
      return it->record.version;
    }
  }
  return std::nullopt;
}

ChainWalkResult walk_chain(std::span<const SignedVersionRecord> records,
                           const crypto::RsaPublicKey& client_key,
                           const crypto::RsaPublicKey& provider_key) {
  ChainWalkResult result;
  if (records.empty()) return result;

  // Structural pass first: replay the links through VersionChain::append
  // up to the first break, keeping each linked record's encoded bytes and
  // countersigned message. The client signatures then run as ONE
  // rsa_verify_many group under the client key, the countersignatures as
  // another under the provider key — each group sharing its key's
  // Montgomery context. The verdict is the earliest failure in original
  // walk order (link, then client sig, then provider sig per record),
  // exactly as the per-record walk reported it.
  VersionChain chain;
  std::size_t linked = records.size();  // records that extend the chain
  std::string link_why;
  std::vector<Bytes> encoded(records.size());
  std::vector<Bytes> countersigned(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!chain.append(records[i], &link_why)) {
      linked = i;
      break;
    }
    encoded[i] = records[i].record.encode();
    countersigned[i] = records[i].countersigned();
  }
  std::vector<crypto::RsaVerifyItem> client_items(linked);
  std::vector<crypto::RsaVerifyItem> provider_items(linked);
  for (std::size_t i = 0; i < linked; ++i) {
    client_items[i] = {crypto::HashKind::kSha256, BytesView(encoded[i]),
                       BytesView(records[i].client_sig)};
    provider_items[i] = {crypto::HashKind::kSha256,
                         BytesView(countersigned[i]),
                         BytesView(records[i].provider_sig)};
  }
  const std::vector<bool> client_ok =
      crypto::rsa_verify_many(client_key, client_items);
  const std::vector<bool> provider_ok =
      crypto::rsa_verify_many(provider_key, provider_items);
  for (std::size_t i = 0; i < linked; ++i) {
    const VersionRecord& rec = records[i].record;
    if (!client_ok[i]) {
      result.status = ChainStatus::kBadClientSig;
      result.at_version = rec.version;
      result.detail = "client signature fails on " + mutate_op_name(rec.op);
      return result;
    }
    if (!provider_ok[i]) {
      result.status = ChainStatus::kBadProviderSig;
      result.at_version = rec.version;
      result.detail =
          "provider countersignature fails on " + mutate_op_name(rec.op);
      return result;
    }
  }
  if (linked < records.size()) {
    result.status = ChainStatus::kBrokenLink;
    result.at_version = records[linked].record.version;
    result.detail = std::move(link_why);
    return result;
  }
  result.status = ChainStatus::kValid;
  result.at_version = chain.head_version();
  result.detail =
      "chain intact through version " + std::to_string(chain.head_version());
  return result;
}

}  // namespace tpnr::dyn
