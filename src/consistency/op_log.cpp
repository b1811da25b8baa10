#include "consistency/op_log.h"

namespace tpnr::consistency {

Bytes CommittedOp::encode() const {
  common::BinaryWriter w;
  w.bytes(record.encode());
  w.bytes(commit.encode());
  w.bytes(op_bytes);
  return w.take();
}

CommittedOp CommittedOp::decode(BytesView data) {
  common::BinaryReader r(data);
  CommittedOp op;
  op.record = dyn::SignedVersionRecord::decode(r.bytes());
  op.commit = SignedViewCommitment::decode(r.bytes());
  op.op_bytes = r.bytes();
  r.expect_done();
  return op;
}

void write_op_log(common::BinaryWriter& w, std::span<const CommittedOp> log) {
  w.u32(static_cast<std::uint32_t>(log.size()));
  for (const CommittedOp& op : log) w.bytes(op.encode());
}

std::vector<CommittedOp> read_op_log(common::BinaryReader& r) {
  const std::uint32_t count = r.count(4);
  std::vector<CommittedOp> log;
  log.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    log.push_back(CommittedOp::decode(r.bytes()));
  }
  return log;
}

}  // namespace tpnr::consistency
