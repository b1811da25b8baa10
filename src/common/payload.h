// Payload: an immutable, copy-on-write shared byte buffer.
//
// The simulator used to pass object bytes by value: every duplicate
// delivery, retransmission and audit fan-out memcpy'd the whole object.
// Payload replaces that with a shared_ptr-backed buffer — copying a Payload
// shares the allocation; only mutation (or an explicit to_bytes()) pays for
// a private copy. Process-wide counters record every deep copy performed
// and every copy AVOIDED by sharing, so benchmarks can report "bytes copied
// vs the by-value baseline" directly (the baseline would have copied on
// every share).
//
// Wiping: secure_wipe(Payload&) zeroes the underlying storage even when it
// is shared — key material must be destroyed, so every alias observes zeros
// afterwards. This is deliberate and tested.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/bytes.h"

namespace tpnr::common {

/// Process-wide accounting of deep copies vs shares. All counters are
/// monotonic; reset_payload_counters() zeroes them between experiments.
struct PayloadCounters {
  std::uint64_t copies = 0;       ///< deep copies actually performed
  std::uint64_t copy_bytes = 0;   ///< bytes memcpy'd by those copies
  std::uint64_t shares = 0;       ///< copies avoided by sharing the buffer
  std::uint64_t share_bytes = 0;  ///< bytes NOT copied thanks to sharing
};

class Payload {
 public:
  Payload() = default;

  /// Takes ownership of `data` — no copy, nothing counted.
  Payload(Bytes data);  // NOLINT(google-explicit-constructor): migration aid
  static Payload wrap(Bytes data) { return Payload(std::move(data)); }

  /// Deep copy of a view (counted as a copy).
  static Payload copy_of(BytesView data);

  /// Sharing copy: bumps the refcount, never the bytes (counted as a share:
  /// the by-value baseline would have deep-copied here).
  Payload(const Payload& other);
  Payload& operator=(const Payload& other);
  Payload(Payload&& other) noexcept = default;
  Payload& operator=(Payload&& other) noexcept = default;

  [[nodiscard]] std::size_t size() const noexcept {
    return buf_ ? buf_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_ ? buf_->data() : nullptr;
  }
  [[nodiscard]] BytesView view() const noexcept {
    return buf_ ? BytesView(*buf_) : BytesView();
  }
  // NOLINTNEXTLINE(google-explicit-constructor): reads flow into BytesView APIs
  operator BytesView() const noexcept { return view(); }
  std::uint8_t operator[](std::size_t i) const { return (*buf_)[i]; }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size();
  }

  /// Materializes an owned copy (counted as a copy).
  [[nodiscard]] Bytes to_bytes() const;

  /// Mutable access. Unique owner: mutates in place, free. Shared: detaches
  /// onto a private copy first (counted). Always leaves this Payload as the
  /// sole owner of the buffer it returns.
  Bytes& mutate();

  /// True if both payloads alias the same underlying buffer.
  [[nodiscard]] bool aliases(const Payload& other) const noexcept {
    return buf_ != nullptr && buf_ == other.buf_;
  }
  [[nodiscard]] long use_count() const noexcept { return buf_.use_count(); }

  friend bool operator==(const Payload& a, const Payload& b) noexcept {
    return a.view().size() == b.view().size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Payload& a, const Bytes& b) noexcept {
    return a.view().size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Bytes& a, const Payload& b) noexcept {
    return b == a;
  }

  /// Zeroes the underlying storage through secure_wipe — ALL aliases observe
  /// zeros (key material must die everywhere) — then drops this reference.
  void wipe() noexcept;

  [[nodiscard]] static PayloadCounters counters() noexcept;
  static void reset_counters() noexcept;

 private:
  std::shared_ptr<Bytes> buf_;
};

/// Wipes the shared storage (all aliases see zeros) and clears the handle.
void secure_wipe(Payload& payload) noexcept;

}  // namespace tpnr::common
