#include "common/payload.h"

namespace tpnr::common {

namespace {

struct AtomicCounters {
  std::atomic<std::uint64_t> copies{0};
  std::atomic<std::uint64_t> copy_bytes{0};
  std::atomic<std::uint64_t> shares{0};
  std::atomic<std::uint64_t> share_bytes{0};
};

AtomicCounters& counters_ref() noexcept {
  static AtomicCounters counters;
  return counters;
}

void count_copy(std::size_t bytes) noexcept {
  counters_ref().copies.fetch_add(1, std::memory_order_relaxed);
  counters_ref().copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void count_share(std::size_t bytes) noexcept {
  counters_ref().shares.fetch_add(1, std::memory_order_relaxed);
  counters_ref().share_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace

Payload::Payload(Bytes data) {
  if (!data.empty()) {
    buf_ = std::make_shared<Bytes>(std::move(data));
  }
}

Payload Payload::copy_of(BytesView data) {
  if (data.empty()) return Payload();
  count_copy(data.size());
  return Payload(Bytes(data.begin(), data.end()));
}

Payload::Payload(const Payload& other) {
  if (!other.buf_) return;
  count_share(other.buf_->size());
  buf_ = other.buf_;
}

Payload& Payload::operator=(const Payload& other) {
  if (this == &other || buf_ == other.buf_) return *this;
  Payload copy(other);  // funnels through the counting copy constructor
  buf_ = std::move(copy.buf_);
  return *this;
}

Bytes Payload::to_bytes() const {
  if (!buf_) return Bytes();
  count_copy(buf_->size());
  return *buf_;
}

Bytes& Payload::mutate() {
  if (!buf_) {
    buf_ = std::make_shared<Bytes>();
  } else if (buf_.use_count() > 1) {
    count_copy(buf_->size());
    buf_ = std::make_shared<Bytes>(*buf_);
  }
  return *buf_;
}

void Payload::wipe() noexcept {
  if (buf_) secure_wipe(*buf_);
  buf_.reset();
}

PayloadCounters Payload::counters() noexcept {
  const AtomicCounters& c = counters_ref();
  PayloadCounters out;
  out.copies = c.copies.load(std::memory_order_relaxed);
  out.copy_bytes = c.copy_bytes.load(std::memory_order_relaxed);
  out.shares = c.shares.load(std::memory_order_relaxed);
  out.share_bytes = c.share_bytes.load(std::memory_order_relaxed);
  return out;
}

void Payload::reset_counters() noexcept {
  AtomicCounters& c = counters_ref();
  c.copies.store(0, std::memory_order_relaxed);
  c.copy_bytes.store(0, std::memory_order_relaxed);
  c.shares.store(0, std::memory_order_relaxed);
  c.share_bytes.store(0, std::memory_order_relaxed);
}

void secure_wipe(Payload& payload) noexcept { payload.wipe(); }

}  // namespace tpnr::common
