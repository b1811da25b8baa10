// Evidence construction and verification (§4.1).
//
//   evidence = Encrypt_recipient{ Sign_sender(H(data)), Sign_sender(header) }
//
// Properties delivered (and tested):
//  * non-repudiation: only the sender's private key can have produced the
//    inner signatures;
//  * confidentiality: only the recipient can open the envelope;
//  * binding: the signed header carries ids, txn, seq, nonce, time limit and
//    the data hash, so evidence cannot be replayed into another context.
#pragma once

#include <optional>
#include <string>

#include "crypto/drbg.h"
#include "nr/message.h"
#include "pki/identity.h"

namespace tpnr::nr {

/// What a successfully opened evidence envelope proves.
struct OpenedEvidence {
  Bytes data_hash_signature;  ///< Sign_sender(H(data))
  Bytes header_signature;     ///< Sign_sender(header)
  MessageHeader header;       ///< the header the signatures were checked against
};

/// Builds the evidence envelope for `header` (whose data_hash field must
/// already be set) addressed to `recipient_key`.
Bytes make_evidence(const pki::Identity& sender,
                    const crypto::RsaPublicKey& recipient_key,
                    const MessageHeader& header, crypto::Drbg& rng);

/// Decrypts with `recipient`'s private key and verifies both signatures
/// against `sender_key` and the claimed `header`. Returns nullopt on ANY
/// failure (wrong recipient, bad signature, header mismatch).
std::optional<OpenedEvidence> open_evidence(
    const pki::Identity& recipient, const crypto::RsaPublicKey& sender_key,
    const MessageHeader& claimed_header, BytesView evidence);

/// Verifies an already-opened evidence record against a (possibly different)
/// header/hash — used by the arbitrator, who receives evidence from the
/// parties rather than off the wire.
bool verify_evidence_signatures(const crypto::RsaPublicKey& sender_key,
                                const MessageHeader& header,
                                const OpenedEvidence& opened);

}  // namespace tpnr::nr
