#include "nr/directory.h"

#include "common/serial.h"

namespace tpnr::nr {

DirectoryActor::DirectoryActor(std::string id, net::Network& network,
                               pki::Identity& identity, crypto::Drbg& rng,
                               const runtime::Placement& placement)
    : NrActor(std::move(id), network, identity, rng),
      placement_(&placement) {}

void DirectoryActor::register_provider_key(const std::string& provider,
                                           crypto::RsaPublicKey key) {
  provider_keys_[provider] = std::move(key);
}

void DirectoryActor::on_message(const NrMessage& message) {
  if (message.header.flag != MsgType::kDirLookup) return;
  common::BinaryReader r(message.payload);
  const std::string object_key = r.str();
  r.expect_done();
  if (placement_->empty()) {
    ++lookups_unroutable_;
    return;
  }
  const std::string& owner = placement_->owner(object_key);
  const auto key_it = provider_keys_.find(owner);
  if (key_it == provider_keys_.end()) {
    ++lookups_unroutable_;
    return;
  }
  ++lookups_served_;

  common::BinaryWriter payload;
  payload.str(object_key);
  payload.str(owner);
  payload.bytes(key_it->second.encode());
  payload.u64(placement_->version());

  const MessageHeader& h = message.header;
  send(next_header(MsgType::kDirReply, h.sender, /*ttp=*/"", h.txn_id,
                   h.data_hash, network_->now() + kRequestWindow),
       payload.take());
}

}  // namespace tpnr::nr
