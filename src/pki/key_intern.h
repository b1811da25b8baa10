// Process-wide public-key interning.
//
// A fleet run mints hundreds of thousands of actors from a small pool of
// pre-generated keypairs (pki::Identity's pooled constructor), then each
// actor stores BY VALUE the public keys of every peer it trusts — the same
// few dozen moduli duplicated once per (actor, peer) edge. Interning
// collapses that to one shared immutable copy per distinct key: trust_peer
// stores a shared_ptr, and the whole fleet's peer directories cost pointers
// instead of BigInts.
//
// Keys are immutable after interning (const through the shared_ptr); the
// table is keyed by fingerprint (SHA-256 of the canonical encoding) and
// internally synchronized, since actors can be constructed from bench setup
// code while worker threads run other engines.
#pragma once

#include <memory>

#include "crypto/rsa.h"

namespace tpnr::pki {

/// Returns the canonical shared copy of `key`, inserting it on first sight.
std::shared_ptr<const crypto::RsaPublicKey> intern_public_key(
    crypto::RsaPublicKey key);

}  // namespace tpnr::pki
