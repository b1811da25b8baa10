// Memoized RSA signature verification. Verification is a pure function of
// (public key, hash kind, message, signature), so its result — true OR
// false — can be cached and replayed. The NR protocol re-verifies the same
// evidence signatures at every hop (provider, TTP, arbitrator, auditor);
// the memo turns each repeat into one SHA-256 pass and a map lookup instead
// of a modular exponentiation.
#pragma once

#include "crypto/hash.h"
#include "crypto/rsa.h"

namespace tpnr::crypto {

/// rsa_verify with a process-wide memo keyed by
/// SHA-256(pubkey-fingerprint || kind || SHA-256(message) || SHA-256(signature)).
/// The fingerprint is cached on the key, so a lookup never re-encodes n||e.
/// Bit-identical results to rsa_verify, the unmemoized reference.
/// Thread-safe.
bool rsa_verify_memo(const RsaPublicKey& key, HashKind kind, BytesView message,
                     BytesView signature);

/// Memo probe without computing anything on a miss: on a hit sets `result`
/// and returns true (counted as a memo hit). rsa_verify_many uses this pair
/// to fold the memo into batch verification.
bool verify_memo_lookup(const RsaPublicKey& key, HashKind kind,
                        BytesView message, BytesView signature, bool& result);

/// Records a verdict computed elsewhere (counted as a memo miss).
void verify_memo_store(const RsaPublicKey& key, HashKind kind,
                       BytesView message, BytesView signature, bool result);

/// Drops every memoized verdict (tests and the ablation sweep).
void verify_memo_clear();

}  // namespace tpnr::crypto
