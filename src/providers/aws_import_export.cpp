#include "providers/aws_import_export.h"

#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"

namespace tpnr::providers {

Bytes Manifest::encode() const {
  common::BinaryWriter w;
  w.str(access_key_id);
  w.str(device_id);
  w.str(destination);
  w.str(operation);
  w.str(return_address);
  return w.take();
}

Manifest Manifest::decode(BytesView data) {
  common::BinaryReader r(data);
  Manifest m;
  m.access_key_id = r.str();
  m.device_id = r.str();
  m.destination = r.str();
  m.operation = r.str();
  m.return_address = r.str();
  r.expect_done();
  return m;
}

AwsImportExport::AwsImportExport(common::SimClock& clock,
                                 SimTime shipping_transit)
    : clock_(&clock), shipping_transit_(shipping_transit) {}

Bytes AwsImportExport::register_user(const std::string& access_key_id,
                                     crypto::Drbg& rng) {
  Bytes secret = rng.bytes(32);
  user_secrets_[access_key_id] = secret;
  return secret;
}

Bytes AwsImportExport::sign_job(BytesView secret, const std::string& job_id,
                                const Manifest& manifest) {
  Bytes input = common::to_bytes(job_id);
  common::append(input, manifest.encode());
  return crypto::hmac_sha256(secret, input);
}

std::optional<std::string> AwsImportExport::create_job(
    const Manifest& manifest, BytesView manifest_signature) {
  const auto secret_it = user_secrets_.find(manifest.access_key_id);
  if (secret_it == user_secrets_.end()) return std::nullopt;
  // The e-mailed manifest itself is authenticated with the user secret.
  const Bytes expected =
      crypto::hmac_sha256(secret_it->second, manifest.encode());
  if (!common::constant_time_equal(expected, manifest_signature)) {
    return std::nullopt;
  }
  Job job;
  job.manifest = manifest;
  job.job_id = "job-" + std::to_string(next_job_++);
  jobs_[job.job_id] = job;
  return job.job_id;
}

JobReport AwsImportExport::receive_device(const std::string& job_id,
                                          const Device& device,
                                          const SignatureFile& signature_file) {
  // The device spends the transit time in the mail before processing.
  clock_->advance(shipping_transit_);

  JobReport report;
  report.job_id = job_id;

  const auto job_it = jobs_.find(job_id);
  if (job_it == jobs_.end()) {
    report.detail = "unknown job";
    return report;
  }
  Job& job = job_it->second;
  const auto secret_it = user_secrets_.find(job.manifest.access_key_id);
  if (secret_it == user_secrets_.end()) {
    report.detail = "unknown user";
    return report;
  }
  // "On receiving the storage device and the signature file, the service
  // provider will validate the signature in the device with the manifest."
  if (signature_file.job_id != job_id ||
      !common::constant_time_equal(
          signature_file.signature,
          sign_job(secret_it->second, job_id, job.manifest))) {
    report.detail = "signature file validation failed";
    return report;
  }

  common::BinaryWriter log;
  for (const auto& [key, data] : device) {
    const std::string object_key = job.manifest.destination + "/" + key;
    const Bytes digest = crypto::md5(data);
    bucket_.put(object_key, data, digest, clock_->now());
    ReportEntry entry{key, data.size(), digest, "ok"};
    report.entries.push_back(entry);
    log.str(key);
    log.u64(entry.bytes);
    log.bytes(entry.md5);
  }
  // "the location on Amazon S3 of the AWS Import Export Log".
  report.log_location = job.manifest.destination + "/import-log-" + job_id;
  const Bytes log_bytes = log.take();
  bucket_.put(report.log_location, log_bytes, crypto::md5(log_bytes),
              clock_->now());
  job.completed = true;
  report.ok = true;
  return report;
}

AwsImportExport::ExportResult AwsImportExport::serve_export(
    const std::string& job_id, const SignatureFile& signature_file) {
  ExportResult result;
  result.report.job_id = job_id;

  const auto job_it = jobs_.find(job_id);
  if (job_it == jobs_.end()) {
    result.report.detail = "unknown job";
    return result;
  }
  Job& job = job_it->second;
  const auto secret_it = user_secrets_.find(job.manifest.access_key_id);
  if (secret_it == user_secrets_.end()) {
    result.report.detail = "unknown user";
    return result;
  }
  if (signature_file.job_id != job_id ||
      !common::constant_time_equal(
          signature_file.signature,
          sign_job(secret_it->second, job_id, job.manifest))) {
    result.report.detail = "signature file validation failed";
    return result;
  }

  const std::string prefix = job.manifest.destination + "/";
  for (const std::string& key : bucket_.list()) {
    if (key.rfind(prefix, 0) != 0) continue;
    auto record = bucket_.get(key);
    if (!record) continue;
    const std::string device_key = key.substr(prefix.size());
    // "ship it back, and email the user the status including MD5 of the
    // Data" — MD5 recomputed from what is in the store NOW.
    ReportEntry entry{device_key, record->data.size(),
                      crypto::md5(record->data), "ok"};
    result.report.entries.push_back(entry);
    result.device[device_key] = record->data.to_bytes();
  }
  // Return shipping.
  clock_->advance(shipping_transit_);
  job.completed = true;
  result.report.ok = true;
  return result;
}

UploadReceipt AwsImportExport::upload(const std::string& user,
                                      const std::string& key, BytesView data,
                                      BytesView md5) {
  if (!user_secrets_.contains(user)) {
    return {false, "unknown user " + user, {}};
  }
  if (crypto::md5(data) != Bytes(md5.begin(), md5.end())) {
    return {false, "MD5 mismatch on upload", {}};
  }
  bucket_.put(key, common::Payload::copy_of(data), md5, clock_->now());
  return {true, "", Bytes(md5.begin(), md5.end())};
}

DownloadResult AwsImportExport::download(const std::string& user,
                                         const std::string& key) {
  DownloadResult result;
  result.md5_source = Md5Source::kRecomputed;
  if (!user_secrets_.contains(user)) {
    result.detail = "unknown user " + user;
    return result;
  }
  auto record = bucket_.get(key);
  if (!record) {
    result.detail = "no such object";
    return result;
  }
  result.ok = true;
  // AWS behaviour: recompute from the bytes being served.
  result.md5_returned = crypto::md5(record->data);
  result.data = record->data.to_bytes();
  return result;
}

bool AwsImportExport::tamper(const std::string& key, BytesView new_data) {
  return bucket_.tamper(key, new_data);
}

}  // namespace tpnr::providers
