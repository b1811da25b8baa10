// AES-128/192/256 block cipher (FIPS 197), forward direction only, and CTR
// mode, which never runs the inverse cipher. On x86-64 CPUs with AES-NI
// (CPUID, read once per process) a block runs on aesenc/aesenclast, whose
// rounds make no table lookups. Elsewhere the portable rounds index an S-box
// computed at first use. Key expansion indexes the same S-box by key bytes
// on every CPU, so neither path is hardened against cache-timing side
// channels — see DESIGN.md. The portable rounds are also the test oracle.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace tpnr::crypto {

using common::Bytes;
using common::BytesView;

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Accepts 16-, 24- or 32-byte keys; throws CryptoError otherwise.
  explicit Aes(BytesView key);

  /// Encrypts exactly one 16-byte block, in place, on AES-NI where the CPU
  /// has it.
  void encrypt_block(std::uint8_t* block) const noexcept;
  /// The same through the portable rounds, on every CPU.
  void encrypt_block_portable(std::uint8_t* block) const noexcept;

  /// Whether this CPU has AES-NI (CPUID, read once per process).
  [[nodiscard]] static bool aesni_supported() noexcept;

  [[nodiscard]] int rounds() const noexcept { return rounds_; }

 private:
  void expand_key(BytesView key);

  std::array<std::uint32_t, 60> round_keys_{};
  /// round_keys_ in block byte order, round r at byte 16r: the operand
  /// layout of aesenc.
  std::array<std::uint8_t, 240> round_key_bytes_{};
  int rounds_ = 0;
};

/// CTR mode keystream cipher: encrypt == decrypt. The 16-byte counter block
/// is (nonce[12] || be32 block counter), the counter starting at 0 and
/// wrapping modulo 2^32 without carrying into the nonce.
class AesCtr {
 public:
  AesCtr(BytesView key, BytesView nonce12);

  /// XORs the keystream into `data` in place.
  void apply(Bytes& data);

 private:
  Aes aes_;
  std::array<std::uint8_t, 16> counter_block_{};
  std::array<std::uint8_t, 16> keystream_{};
  std::size_t pos_ = 16;

  /// keystream_ = E(counter block); then advances the counter.
  void next_keystream() noexcept;

  /// Test-only access to the counter block (tests/crypto/aes_hw_test.cpp).
  friend struct AesCtrTestPeer;
};

}  // namespace tpnr::crypto
