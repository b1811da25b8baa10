#include "persist/snapshot.h"

#include "common/serial.h"
#include "persist/crc32c.h"

namespace tpnr::persist {

Bytes Snapshotter::encode(const SnapshotState& state) {
  common::BinaryWriter body;
  body.u64(state.wal_lsn);
  body.u32(static_cast<std::uint32_t>(state.ledger.size()));
  for (const audit::AuditEntry& entry : state.ledger) {
    body.bytes(entry.encode_full());
  }
  body.u32(static_cast<std::uint32_t>(state.evidence.size()));
  for (const EvidenceRecord& record : state.evidence) {
    body.bytes(record.encode());
  }
  body.u32(static_cast<std::uint32_t>(state.objects.size()));
  for (const ObjectMeta& meta : state.objects) {
    body.bytes(meta.encode());
  }
  const Bytes body_bytes = body.take();

  common::BinaryWriter image;
  image.u32(kMagic);
  image.u32(kVersion);
  image.u32(static_cast<std::uint32_t>(body_bytes.size()));
  image.u32(crc32c(body_bytes));
  Bytes encoded = image.take();
  common::append(encoded, body_bytes);
  return encoded;
}

std::optional<SnapshotState> Snapshotter::decode(BytesView image) {
  try {
    common::BinaryReader r(image);
    if (r.u32() != kMagic) return std::nullopt;
    if (r.u32() != kVersion) return std::nullopt;
    const std::uint32_t body_len = r.u32();
    const std::uint32_t stored_crc = r.u32();
    if (r.remaining() != body_len) return std::nullopt;  // torn or padded
    const BytesView body = image.subspan(16, body_len);
    if (crc32c(body) != stored_crc) return std::nullopt;

    common::BinaryReader b(body);
    SnapshotState state;
    state.wal_lsn = b.u64();
    const std::uint32_t ledger_count = b.count(4);
    state.ledger.reserve(ledger_count);
    for (std::uint32_t i = 0; i < ledger_count; ++i) {
      state.ledger.push_back(audit::AuditEntry::decode_full(b.bytes()));
    }
    const std::uint32_t evidence_count = b.count(4);
    state.evidence.reserve(evidence_count);
    for (std::uint32_t i = 0; i < evidence_count; ++i) {
      state.evidence.push_back(EvidenceRecord::decode(b.bytes()));
    }
    const std::uint32_t object_count = b.count(4);
    state.objects.reserve(object_count);
    for (std::uint32_t i = 0; i < object_count; ++i) {
      state.objects.push_back(ObjectMeta::decode(b.bytes()));
    }
    b.expect_done();
    return state;
  } catch (const common::SerialError&) {
    return std::nullopt;
  }
}

void Snapshotter::write(const SnapshotState& state) {
  const Bytes image = encode(state);
  // Write-new-then-swap: the old snapshot is replaced only once the new one
  // is durable, so a crash here costs the snapshot attempt, never the
  // previous image.
  auto fresh = std::make_unique<BlockFile>("snapshot", faults_);
  fresh->append(image);
  fresh->flush();
  device_bytes_ += fresh->bytes_written();
  file_ = std::move(fresh);
}

}  // namespace tpnr::persist
