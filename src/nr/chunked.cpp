#include "nr/chunked.h"

#include "common/serial.h"

namespace tpnr::nr {

Bytes encode_proof(const crypto::MerkleProof& proof) {
  common::BinaryWriter w;
  w.u64(proof.leaf_index);
  w.u64(proof.leaf_count);
  w.u32(static_cast<std::uint32_t>(proof.siblings.size()));
  for (const Bytes& sibling : proof.siblings) w.bytes(sibling);
  return w.take();
}

crypto::MerkleProof decode_proof(BytesView data) {
  common::BinaryReader r(data);
  crypto::MerkleProof proof;
  proof.leaf_index = r.u64();
  proof.leaf_count = r.u64();
  const std::uint32_t count = r.count(4);
  proof.siblings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) proof.siblings.push_back(r.bytes());
  r.expect_done();
  return proof;
}

}  // namespace tpnr::nr
