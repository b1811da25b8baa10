// Hostile element counts. Several decoders read a u32 element count off the
// wire (or disk) before any element; a count of 0xffffffff must come back
// as a SerialError — the only exception the actors' decode paths catch —
// never as std::bad_alloc from sizing a buffer for elements the input
// cannot hold. The actor-level cases check that one such message leaves
// network.run() without an exception escaping NrActor::receive.
#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/serial.h"
#include "consistency/client.h"
#include "consistency/op_log.h"
#include "crypto/drbg.h"
#include "dyn/por_tags.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/chunked.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"

namespace tpnr {
namespace {

using common::Bytes;

constexpr std::uint32_t kHostileCount = 0xffffffffu;

TEST(HostileCountTest, OpLogRejectsHostileCount) {
  common::BinaryWriter w;
  w.u32(kHostileCount);
  common::BinaryReader r(w.data());
  EXPECT_THROW(consistency::read_op_log(r), common::SerialError);
}

TEST(HostileCountTest, ChunkProofRejectsHostileCount) {
  common::BinaryWriter w;
  w.u64(0);
  w.u64(1);
  w.u32(kHostileCount);
  EXPECT_THROW(nr::decode_proof(w.data()), common::SerialError);
}

TEST(HostileCountTest, AggResponseRejectsHostileCount) {
  common::BinaryWriter w;
  w.u64(1);
  w.bytes(Bytes(32, 0));
  w.u64(0);
  w.u32(kHostileCount);
  EXPECT_THROW(dyn::AggResponse::decode(w.data()), common::SerialError);
}

TEST(HostileCountTest, SnapshotWithHostileCountIsDamage) {
  // A CRC-valid image whose ledger count is hostile: decode() reports
  // damage (nullopt) instead of throwing.
  common::BinaryWriter body;
  body.u64(0);
  body.u32(kHostileCount);
  const Bytes body_bytes = body.take();
  common::BinaryWriter image;
  image.u32(persist::Snapshotter::kMagic);
  image.u32(persist::Snapshotter::kVersion);
  image.u32(static_cast<std::uint32_t>(body_bytes.size()));
  image.u32(persist::crc32c(body_bytes));
  Bytes bytes = image.take();
  bytes.insert(bytes.end(), body_bytes.begin(), body_bytes.end());
  EXPECT_NO_THROW({
    EXPECT_FALSE(persist::Snapshotter::decode(bytes).has_value());
  });
}

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{60606});
    for (const char* id : {"alice", "bob"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

/// One raw message from `from` (whose key `to` trusts) to `to`.
void send_raw(net::Network& network, crypto::Drbg& rng, const std::string& from,
              const std::string& to, nr::MsgType flag, Bytes payload) {
  nr::NrMessage message;
  message.header.flag = flag;
  message.header.sender = from;
  message.header.recipient = to;
  message.header.txn_id = "hostile";
  message.header.seq_no = 1;
  message.header.nonce = rng.bytes(16);
  message.payload = std::move(payload);
  network.send(from, to, "nr", message.encode());
}

class HostileMessageTest : public ::testing::Test {
 protected:
  HostileMessageTest()
      : network_(std::uint64_t{6060}),
        rng_(std::uint64_t{6061}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")) {}

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
};

TEST_F(HostileMessageTest, ViewUpdateWithHostileLogCount) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u32(64);
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kViewUpdate,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
}

TEST_F(HostileMessageTest, OpErrorWithHostileSuffixCount) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u64(2);
  payload.str("stale view");
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kConsOpError,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
}

TEST_F(HostileMessageTest, GossipWithHostileCommitCount) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kGossipViews,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
}

TEST_F(HostileMessageTest, DynStoreWithHostileTagCount) {
  dyn::DynProviderActor bob("bob", network_, bob_id_, rng_);
  bob.trust_peer("alice", alice_id_.public_key());
  common::BinaryWriter payload;
  payload.str("doc");
  payload.u32(64);
  payload.bytes(Bytes(64, 1));
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "alice", "bob", nr::MsgType::kDynStoreRequest,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(bob.stats().rejected_bad_hash, 1u);
  EXPECT_EQ(bob.object_state("doc"), nullptr);
}

}  // namespace
}  // namespace tpnr
