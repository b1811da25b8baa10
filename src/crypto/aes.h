// AES-128/192/256 block cipher (FIPS 197), forward direction only, and CTR
// mode, which never runs the inverse cipher. Table-free S-box at
// runtime (tables are computed once at static init). Not hardened against
// cache-timing side channels — see DESIGN.md.
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

  /// Encrypts exactly one 16-byte block, in place.
  void encrypt_block(std::uint8_t* block) const noexcept;

  [[nodiscard]] int rounds() const noexcept { return rounds_; }

 private:
  void expand_key(BytesView key);

  std::array<std::uint32_t, 60> round_keys_{};
  int rounds_ = 0;
};

/// CTR mode keystream cipher: encrypt == decrypt. The 16-byte initial counter
/// block is (nonce[12] || be32 counter starting at 0).
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

  void bump() noexcept;
};

}  // namespace tpnr::crypto
