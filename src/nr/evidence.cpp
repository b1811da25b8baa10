#include "nr/evidence.h"

#include "common/error.h"
#include "common/serial.h"

namespace tpnr::nr {

Bytes make_evidence(const pki::Identity& sender,
                    const crypto::RsaPublicKey& recipient_key,
                    const MessageHeader& header, crypto::Drbg& rng) {
  const Bytes sig_hash = sender.sign(header.data_hash);
  const Bytes sig_header = sender.sign(header.encode());

  common::BinaryWriter inner;
  inner.bytes(sig_hash);
  inner.bytes(sig_header);
  return pki::Identity::seal_for(recipient_key, inner.data(), rng);
}

std::optional<OpenedEvidence> open_evidence(
    const pki::Identity& recipient, const crypto::RsaPublicKey& sender_key,
    const MessageHeader& claimed_header, BytesView evidence) {
  OpenedEvidence opened;
  try {
    const Bytes inner = recipient.unseal(evidence);
    common::BinaryReader r(inner);
    opened.data_hash_signature = r.bytes();
    opened.header_signature = r.bytes();
    r.expect_done();
  } catch (const common::CryptoError&) {
    return std::nullopt;
  } catch (const common::SerialError&) {
    return std::nullopt;
  }
  opened.header = claimed_header;
  if (!verify_evidence_signatures(sender_key, claimed_header, opened)) {
    return std::nullopt;
  }
  return opened;
}

bool verify_evidence_signatures(const crypto::RsaPublicKey& sender_key,
                                const MessageHeader& header,
                                const OpenedEvidence& opened) {
  return pki::Identity::verify(sender_key, header.data_hash,
                               opened.data_hash_signature) &&
         pki::Identity::verify(sender_key, header.encode(),
                               opened.header_signature);
}

}  // namespace tpnr::nr
