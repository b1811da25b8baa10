// SHA-256 and SHA-224 (FIPS 180-4). SHA-256 is the workhorse of the NR
// protocol: evidence hashes and Azure SharedKey HMAC both run on it.
//
// The compression function has two kernels: the portable C++ rounds and,
// on x86-64 CPUs with the SHA extensions (plus SSE4.1), the
// sha256rnds2/sha256msg1/sha256msg2 instructions. One is chosen once per
// process from CPUID; every caller below reaches the same choice, and the
// portable kernel stays the fallback and the test oracle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/hash.h"

namespace tpnr::crypto {

/// Compresses `nblocks` consecutive 64-byte blocks into `state` (a, ..., h):
/// on SHA-NI where sha256_shani_supported(), else the portable rounds.
void sha256_compress(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept;

/// The same through the portable rounds, on every CPU.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t nblocks) noexcept;

/// Whether this CPU has the SHA extensions and SSE4.1 (CPUID, read once).
[[nodiscard]] bool sha256_shani_supported() noexcept;

/// Captured compression state at a 64-byte block boundary. Lets a caller
/// absorb a fixed prefix once (HMAC's ipad/opad blocks) and resume any
/// number of later hashes from the same point instead of re-hashing the
/// prefix each time.
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state{};
  std::uint64_t total_bytes = 0;  ///< must be a multiple of 64
};

/// Common core: SHA-224 differs only in IV and truncation.
class Sha256Core : public Hash {
 public:
  void update(BytesView data) override;
  Bytes finish() override;
  void reset() override;

  [[nodiscard]] std::size_t block_size() const noexcept override { return 64; }

  /// The compression state, valid only when the absorbed byte count is a
  /// multiple of the block size. Throws CryptoError otherwise.
  [[nodiscard]] Sha256Midstate midstate() const;
  /// Resumes from a previously exported midstate (discarding any buffered
  /// input). Throws CryptoError if the midstate's byte count is not
  /// block-aligned.
  void restore(const Sha256Midstate& mid);

 protected:
  /// IV per FIPS 180-4 §5.3.2 / §5.3.3.
  [[nodiscard]] virtual std::array<std::uint32_t, 8> iv() const noexcept = 0;

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

class Sha256 final : public Sha256Core {
 public:
  Sha256() noexcept { reset(); }
  [[nodiscard]] std::size_t digest_size() const noexcept override { return 32; }
  [[nodiscard]] HashKind kind() const noexcept override {
    return HashKind::kSha256;
  }
  [[nodiscard]] std::unique_ptr<Hash> fresh() const override {
    return std::make_unique<Sha256>();
  }

 protected:
  [[nodiscard]] std::array<std::uint32_t, 8> iv() const noexcept override {
    return {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  }
};

class Sha224 final : public Sha256Core {
 public:
  Sha224() noexcept { reset(); }
  [[nodiscard]] std::size_t digest_size() const noexcept override { return 28; }
  [[nodiscard]] HashKind kind() const noexcept override {
    return HashKind::kSha224;
  }
  [[nodiscard]] std::unique_ptr<Hash> fresh() const override {
    return std::make_unique<Sha224>();
  }

 protected:
  [[nodiscard]] std::array<std::uint32_t, 8> iv() const noexcept override {
    return {0xc1059ed8u, 0x367cd507u, 0x3070dd17u, 0xf70e5939u,
            0xffc00b31u, 0x68581511u, 0x64f98fa7u, 0xbefa4fa4u};
  }
};

}  // namespace tpnr::crypto
