#include "providers/google_sdc.h"

#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/verify_memo.h"

namespace tpnr::providers {

Bytes SignedRequest::canonical_encode() const {
  common::BinaryWriter w;
  w.str(owner_id);
  w.str(viewer_id);
  w.str(instance_id);
  w.str(app_id);
  w.bytes(public_key_fingerprint);
  w.str(consumer_key);
  w.u64(nonce);
  w.str(token);
  w.str(method);
  w.str(resource);
  w.bytes(body);
  return w.take();
}

GoogleSdcService::GoogleSdcService(common::SimClock& clock)
    : clock_(&clock) {}

std::string GoogleSdcService::register_consumer(
    const std::string& consumer_key, const crypto::RsaPublicKey& key,
    crypto::Drbg& rng) {
  Consumer consumer;
  consumer.key = key;
  consumer.token = "tok-" + common::to_hex(rng.bytes(12));
  const std::string token = consumer.token;
  consumers_[consumer_key] = std::move(consumer);
  return token;
}

void GoogleSdcService::add_resource_rule(ResourceRule rule) {
  rules_.push_back(std::move(rule));
}

bool GoogleSdcService::authorized(const std::string& viewer,
                                  const std::string& resource) const {
  for (const ResourceRule& rule : rules_) {
    if (resource.rfind(rule.resource_prefix, 0) == 0 &&
        rule.allowed_viewers.contains(viewer)) {
      return true;
    }
  }
  return false;
}

SdcResponse GoogleSdcService::handle(const SignedRequest& request) {
  // 1. Tunnel server validates the request identity and sets up the
  //    encrypted tunnel.
  const auto consumer_it = consumers_.find(request.consumer_key);
  if (consumer_it == consumers_.end()) {
    return {401, {}, "tunnel: unknown consumer_key"};
  }
  Consumer& consumer = consumer_it->second;
  if (request.token != consumer.token) {
    return {401, {}, "tunnel: bad token"};
  }
  if (consumer.seen_nonces.contains(request.nonce)) {
    return {401, {}, "tunnel: replayed nonce"};
  }
  if (request.public_key_fingerprint != consumer.key.fingerprint()) {
    return {401, {}, "tunnel: key fingerprint mismatch"};
  }
  ++tunnel_sessions_;  // encrypted tunnel established

  // 2. SDC checks the resource rules: is this viewer authorized?
  if (!authorized(request.viewer_id, request.resource)) {
    return {403, {}, "sdc: resource rule denies access"};
  }

  // 3. Service server validates the signed request and credentials.
  if (!crypto::rsa_verify_memo(consumer.key, crypto::HashKind::kSha256,
                               request.canonical_encode(),
                               request.signature)) {
    return {401, {}, "service: bad request signature"};
  }
  consumer.seen_nonces.insert(request.nonce);

  // 4. Datastore GET/PUT (the only operations the low API offers).
  if (request.method == "PUT") {
    datastore_.put(request.resource, request.body, crypto::md5(request.body),
                   clock_->now());
    return {200, {}, ""};
  }
  if (request.method == "GET") {
    auto record = datastore_.get(request.resource);
    if (!record) return {404, {}, "datastore: no such entity"};
    return {200, record->data.to_bytes(), ""};
  }
  return {400, {}, "unsupported method " + request.method};
}

SignedRequest GoogleSdcService::make_signed_request(
    const std::string& consumer_key, const std::string& viewer_id,
    const std::string& token, const crypto::RsaPrivateKey& key,
    std::uint64_t nonce, const std::string& method,
    const std::string& resource, BytesView body) {
  SignedRequest request;
  request.owner_id = consumer_key;
  request.viewer_id = viewer_id;
  request.instance_id = "instance-0";
  request.app_id = "app-storage";
  request.public_key_fingerprint = key.public_key().fingerprint();
  request.consumer_key = consumer_key;
  request.nonce = nonce;
  request.token = token;
  request.method = method;
  request.resource = resource;
  request.body = Bytes(body.begin(), body.end());
  request.signature = crypto::rsa_sign(key, crypto::HashKind::kSha256,
                                       request.canonical_encode());
  return request;
}

UploadReceipt GoogleSdcService::upload(const std::string& user,
                                       const std::string& key, BytesView data,
                                       BytesView md5) {
  auto key_it = adapter_keys_.find(user);
  if (key_it == adapter_keys_.end()) {
    // First use: enroll the user with a fresh keypair, token and an
    // all-access rule for their own prefix.
    adapter_keys_[user] = crypto::rsa_generate(1024, adapter_rng_);
    key_it = adapter_keys_.find(user);
    adapter_tokens_[user] = register_consumer(
        user, key_it->second.pub, adapter_rng_);
    add_resource_rule(ResourceRule{"", {user}});
  }
  if (crypto::md5(data) != Bytes(md5.begin(), md5.end())) {
    return {false, "MD5 mismatch on upload", {}};
  }
  const SignedRequest request = make_signed_request(
      user, user, adapter_tokens_[user], key_it->second.priv,
      adapter_nonce_++, "PUT", key, data);
  const SdcResponse response = handle(request);
  if (response.status != 200) return {false, response.detail, {}};
  return {true, "", Bytes(md5.begin(), md5.end())};
}

DownloadResult GoogleSdcService::download(const std::string& user,
                                          const std::string& key) {
  DownloadResult result;
  result.md5_source = Md5Source::kStoredAtUpload;
  const auto key_it = adapter_keys_.find(user);
  if (key_it == adapter_keys_.end()) {
    result.detail = "user not enrolled";
    return result;
  }
  const SignedRequest request = make_signed_request(
      user, user, adapter_tokens_[user], key_it->second.priv,
      adapter_nonce_++, "GET", key, {});
  SdcResponse response = handle(request);
  if (response.status != 200) {
    result.detail = response.detail;
    return result;
  }
  result.ok = true;
  result.data = std::move(response.body);
  // GAE's low API returns no checksum at all (§2.3: "there is no content
  // addressing the issues of securing storage services"); the adapter
  // surfaces the stored MD5 the datastore kept, mirroring Fig. 5's generic
  // shape.
  auto record = datastore_.get(key);
  if (record) result.md5_returned = record->stored_md5;
  return result;
}

bool GoogleSdcService::tamper(const std::string& key, BytesView new_data) {
  return datastore_.tamper(key, new_data);
}

}  // namespace tpnr::providers
