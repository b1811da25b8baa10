#include "providers/azure_rest.h"

#include "common/base64.h"
#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"

namespace tpnr::providers {

namespace {

std::string header_or_empty(const RestRequest& request,
                            const std::string& name) {
  const auto it = request.headers.find(name);
  return it == request.headers.end() ? std::string{} : it->second;
}

}  // namespace

Bytes RestRequest::encode() const {
  common::BinaryWriter w;
  w.str(method);
  w.str(path);
  w.u32(static_cast<std::uint32_t>(headers.size()));
  for (const auto& [name, value] : headers) {
    w.str(name);
    w.str(value);
  }
  w.bytes(body);
  return w.take();
}

RestRequest RestRequest::decode(BytesView data) {
  common::BinaryReader r(data);
  RestRequest request;
  request.method = r.str();
  request.path = r.str();
  const std::uint32_t header_count = r.u32();
  for (std::uint32_t i = 0; i < header_count; ++i) {
    const std::string name = r.str();
    request.headers[name] = r.str();
  }
  request.body = r.bytes();
  r.expect_done();
  return request;
}

Bytes RestResponse::encode() const {
  common::BinaryWriter w;
  w.i64(status);
  w.u32(static_cast<std::uint32_t>(headers.size()));
  for (const auto& [name, value] : headers) {
    w.str(name);
    w.str(value);
  }
  w.bytes(body);
  w.str(detail);
  return w.take();
}

RestResponse RestResponse::decode(BytesView data) {
  common::BinaryReader r(data);
  RestResponse response;
  response.status = static_cast<int>(r.i64());
  const std::uint32_t header_count = r.u32();
  for (std::uint32_t i = 0; i < header_count; ++i) {
    const std::string name = r.str();
    response.headers[name] = r.str();
  }
  response.body = r.bytes();
  response.detail = r.str();
  r.expect_done();
  return response;
}

std::string canonicalize(const RestRequest& request) {
  std::string out;
  out += request.method;
  out += '\n';
  out += std::to_string(request.body.size());
  out += '\n';
  out += header_or_empty(request, "content-md5");
  out += '\n';
  out += header_or_empty(request, "x-ms-date");
  out += '\n';
  out += header_or_empty(request, "x-ms-version");
  out += '\n';
  out += request.path;
  return out;
}

std::string shared_key_authorization(const std::string& account,
                                     BytesView account_key,
                                     const RestRequest& request) {
  const Bytes mac =
      crypto::hmac_sha256(account_key, common::to_bytes(canonicalize(request)));
  return "SharedKey " + account + ":" + common::base64_encode(mac);
}

void sign_request(RestRequest& request, const std::string& account,
                  BytesView account_key) {
  request.headers["authorization"] =
      shared_key_authorization(account, account_key, request);
}

AzureRestService::AzureRestService(common::SimClock& clock, Limits limits)
    : clock_(&clock), limits_(limits) {}

Bytes AzureRestService::create_account(const std::string& account,
                                       crypto::Drbg& rng) {
  Bytes key = rng.bytes(32);  // the portal's 256-bit secret key
  account_keys_[account] = key;
  return key;
}

bool AzureRestService::has_account(const std::string& account) const {
  return account_keys_.contains(account);
}

std::optional<std::string> AzureRestService::authenticate(
    const RestRequest& request) const {
  const std::string auth = header_or_empty(request, "authorization");
  constexpr std::string_view kPrefix = "SharedKey ";
  if (auth.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::size_t colon = auth.find(':', kPrefix.size());
  if (colon == std::string::npos) return std::nullopt;
  const std::string account = auth.substr(kPrefix.size(),
                                          colon - kPrefix.size());
  const auto key_it = account_keys_.find(account);
  if (key_it == account_keys_.end()) return std::nullopt;

  const std::string expected =
      shared_key_authorization(account, key_it->second, request);
  // Constant-time compare of the whole header value.
  if (!common::constant_time_equal(common::to_bytes(auth),
                                   common::to_bytes(expected))) {
    return std::nullopt;
  }
  return account;
}

RestResponse AzureRestService::handle(const RestRequest& request) {
  const auto account = authenticate(request);
  if (!account) {
    return {403, {}, {}, "authentication failed: bad SharedKey signature"};
  }
  if (request.method == "PUT") return handle_blob_put(*account, request);
  if (request.method == "GET") return handle_blob_get(request);
  if (request.method == "DELETE") {
    if (!blobs_.remove(request.path)) return {404, {}, {}, "no such blob"};
    return {200, {}, {}, ""};
  }
  return {400, {}, {}, "unsupported method " + request.method};
}

namespace {

/// Extracts a query parameter value from "path?k1=v1&k2=v2"; empty if absent.
std::string query_param(const std::string& path, const std::string& name) {
  const std::size_t question = path.find('?');
  if (question == std::string::npos) return {};
  std::string query = path.substr(question + 1);
  std::size_t start = 0;
  while (start < query.size()) {
    std::size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == name) {
      return pair.substr(eq + 1);
    }
    start = end + 1;
  }
  return {};
}

std::string path_without_query(const std::string& path) {
  const std::size_t question = path.find('?');
  return question == std::string::npos ? path : path.substr(0, question);
}

}  // namespace

RestResponse AzureRestService::handle_blob_put(const std::string& account,
                                               const RestRequest& request) {
  // Table 1's block operations arrive as query parameters on the PUT.
  const std::string comp = query_param(request.path, "comp");
  if (comp == "block") {
    const std::string block_id = query_param(request.path, "blockid");
    return put_block(account, path_without_query(request.path), block_id,
                     request.body);
  }
  if (comp == "blocklist") {
    // Body: newline-separated block ids, in commit order.
    std::vector<std::string> ids;
    std::string current;
    for (const std::uint8_t byte : request.body) {
      if (byte == '\n') {
        if (!current.empty()) ids.push_back(current);
        current.clear();
      } else {
        current.push_back(static_cast<char>(byte));
      }
    }
    if (!current.empty()) ids.push_back(current);
    return put_block_list(account, path_without_query(request.path), ids);
  }

  if (request.body.size() > limits_.max_blob_bytes) {
    return {400, {}, {}, "blob exceeds size limit"};
  }
  const std::string content_md5 = header_or_empty(request, "content-md5");
  Bytes md5_raw;
  if (!content_md5.empty()) {
    try {
      md5_raw = common::base64_decode(content_md5);
    } catch (const std::invalid_argument&) {
      return {400, {}, {}, "malformed Content-MD5"};
    }
    // "The MD5 checksum is checked by the server. If it does not match, an
    // error is returned."
    if (crypto::md5(request.body) != md5_raw) {
      return {400, {}, {}, "Content-MD5 mismatch"};
    }
  }
  blobs_.put(request.path, request.body, md5_raw, clock_->now());
  RestResponse response{201, {}, {}, ""};
  if (!content_md5.empty()) {
    response.headers["content-md5"] = content_md5;
  }
  return response;
}

RestResponse AzureRestService::handle_blob_get(const RestRequest& request) {
  const auto record = blobs_.get(request.path);
  if (!record) return {404, {}, {}, "no such blob"};
  RestResponse response{200, {}, record->data.to_bytes(), ""};
  // "if the Content-MD5 request header was set when the Blob has been
  // uploaded, it will be returned in the response header" — the STORED
  // value, not a recomputation. This is the §2.4 vulnerability surface.
  if (!record->stored_md5.empty()) {
    response.headers["content-md5"] =
        common::base64_encode(record->stored_md5);
  }
  response.headers["content-length"] = std::to_string(record->data.size());
  return response;
}

UploadReceipt AzureRestService::upload(const std::string& user,
                                       const std::string& key, BytesView data,
                                       BytesView md5) {
  const auto key_it = account_keys_.find(user);
  if (key_it == account_keys_.end()) {
    return {false, "unknown account " + user, {}};
  }
  RestRequest request;
  request.method = "PUT";
  request.path = "/" + user + "/" + key;
  request.headers["x-ms-date"] = std::to_string(clock_->now());
  request.headers["x-ms-version"] = "2009-09-19";
  request.headers["content-md5"] = common::base64_encode(md5);
  request.body = Bytes(data.begin(), data.end());
  sign_request(request, user, key_it->second);

  const RestResponse response = handle(request);
  if (response.status != 201) return {false, response.detail, {}};
  return {true, "", Bytes(md5.begin(), md5.end())};
}

DownloadResult AzureRestService::download(const std::string& user,
                                          const std::string& key) {
  const auto key_it = account_keys_.find(user);
  if (key_it == account_keys_.end()) {
    return {false, "unknown account " + user, {}, {},
            Md5Source::kStoredAtUpload};
  }
  RestRequest request;
  request.method = "GET";
  request.path = "/" + user + "/" + key;
  request.headers["x-ms-date"] = std::to_string(clock_->now());
  request.headers["x-ms-version"] = "2009-09-19";
  sign_request(request, user, key_it->second);

  const RestResponse response = handle(request);
  DownloadResult result;
  result.md5_source = Md5Source::kStoredAtUpload;
  if (response.status != 200) {
    result.detail = response.detail;
    return result;
  }
  result.ok = true;
  result.data = response.body;
  const auto md5_it = response.headers.find("content-md5");
  if (md5_it != response.headers.end()) {
    result.md5_returned = common::base64_decode(md5_it->second);
  }
  return result;
}

bool AzureRestService::tamper(const std::string& key, BytesView new_data) {
  // Blobs are stored under "/<account>/<key>"; the administrator tampers by
  // object name regardless of owning account.
  if (blobs_.tamper(key, new_data)) return true;
  for (const std::string& path : blobs_.list()) {
    if (path.size() > key.size() &&
        path.compare(path.size() - key.size(), key.size(), key) == 0 &&
        path[path.size() - key.size() - 1] == '/') {
      return blobs_.tamper(path, new_data);
    }
  }
  return false;
}

RestResponse AzureRestService::put_entity(const std::string& account,
                                          const std::string& table,
                                          const std::string& row_key,
                                          BytesView entity) {
  if (!has_account(account)) return {403, {}, {}, "unknown account"};
  tables_[account + "/" + table][row_key] =
      Bytes(entity.begin(), entity.end());
  return {201, {}, {}, ""};
}

RestResponse AzureRestService::get_entity(const std::string& account,
                                          const std::string& table,
                                          const std::string& row_key) {
  if (!has_account(account)) return {403, {}, {}, "unknown account"};
  const auto table_it = tables_.find(account + "/" + table);
  if (table_it == tables_.end()) return {404, {}, {}, "no such table"};
  const auto row_it = table_it->second.find(row_key);
  if (row_it == table_it->second.end()) return {404, {}, {}, "no such row"};
  return {200, {}, row_it->second, ""};
}

namespace {

/// Canonical object key for an account's blob: "/<account>/<blob>", unless
/// the blob name already carries the account prefix (REST paths do).
std::string blob_key(const std::string& account, const std::string& blob) {
  const std::string prefix = "/" + account + "/";
  if (blob.rfind(prefix, 0) == 0) return blob;
  return prefix + blob;
}

}  // namespace

RestResponse AzureRestService::put_block(const std::string& account,
                                         const std::string& blob,
                                         const std::string& block_id,
                                         BytesView data) {
  if (!has_account(account)) return {403, {}, {}, "unknown account"};
  if (block_id.empty() || block_id.size() > 64) {
    return {400, {}, {}, "block id must be 1..64 characters"};
  }
  if (data.size() > limits_.max_blob_bytes) {
    return {400, {}, {}, "block exceeds size limit"};
  }
  staged_blocks_[blob_key(account, blob)][block_id] =
      Bytes(data.begin(), data.end());
  return {201, {}, {}, ""};
}

RestResponse AzureRestService::put_block_list(
    const std::string& account, const std::string& blob,
    const std::vector<std::string>& block_ids) {
  if (!has_account(account)) return {403, {}, {}, "unknown account"};
  const std::string key = blob_key(account, blob);
  const auto staged_it = staged_blocks_.find(key);

  Bytes assembled;
  for (const std::string& id : block_ids) {
    if (staged_it == staged_blocks_.end() ||
        !staged_it->second.contains(id)) {
      return {400, {}, {}, "block list references unstaged block '" + id +
                               "'"};
    }
    common::append(assembled, staged_it->second.at(id));
  }
  if (assembled.size() > limits_.max_blob_bytes) {
    return {400, {}, {}, "assembled blob exceeds size limit"};
  }
  // Commit: the assembled bytes become the blob; its MD5 is recorded the
  // way an upload-time Content-MD5 would be.
  blobs_.put(key, assembled, crypto::md5(assembled), clock_->now());
  if (staged_it != staged_blocks_.end()) staged_blocks_.erase(staged_it);
  RestResponse response{201, {}, {}, ""};
  response.headers["content-md5"] =
      common::base64_encode(crypto::md5(assembled));
  return response;
}

std::vector<std::string> AzureRestService::uncommitted_blocks(
    const std::string& account, const std::string& blob) const {
  std::vector<std::string> ids;
  const auto it = staged_blocks_.find(blob_key(account, blob));
  if (it == staged_blocks_.end()) return ids;
  ids.reserve(it->second.size());
  for (const auto& [id, data] : it->second) ids.push_back(id);
  return ids;
}

RestResponse AzureRestService::enqueue(const std::string& account,
                                       const std::string& queue,
                                       BytesView message) {
  if (!has_account(account)) return {403, {}, {}, "unknown account"};
  if (message.size() > limits_.max_queue_message_bytes) {
    return {400, {}, {}, "queue message exceeds 8K limit"};
  }
  queues_[account + "/" + queue].emplace_back(message.begin(), message.end());
  return {201, {}, {}, ""};
}

RestResponse AzureRestService::dequeue(const std::string& account,
                                       const std::string& queue) {
  if (!has_account(account)) return {403, {}, {}, "unknown account"};
  auto& q = queues_[account + "/" + queue];
  if (q.empty()) return {404, {}, {}, "queue empty"};
  RestResponse response{200, {}, std::move(q.front()), ""};
  q.pop_front();
  return response;
}

}  // namespace tpnr::providers
