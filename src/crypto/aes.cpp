#include "crypto/aes.h"

#include <cstring>

#include "common/error.h"

namespace tpnr::crypto {

namespace {

// S-box computed from the AES definition (multiplicative inverse in GF(2^8)
// followed by the affine map) at static initialization.
struct SboxTables {
  std::array<std::uint8_t, 256> fwd{};

  SboxTables() {
    // Build GF(2^8) log/antilog tables with generator 3.
    std::array<std::uint8_t, 256> exp{};
    std::array<std::uint8_t, 256> log{};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<std::size_t>(i)] = x;
      log[x] = static_cast<std::uint8_t>(i);
      // multiply x by 3 in GF(2^8)
      const std::uint8_t x2 =
          static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
      x = static_cast<std::uint8_t>(x2 ^ x);
    }
    for (int i = 0; i < 256; ++i) {
      std::uint8_t inv_i = 0;
      // (255 - log) mod 255: log[1] == 0 must map back to exp[0] == 1.
      if (i != 0) inv_i = exp[static_cast<std::size_t>((255 - log[static_cast<std::size_t>(i)]) % 255)];
      // Affine transform.
      std::uint8_t s = inv_i;
      std::uint8_t result = 0x63;
      for (int b = 0; b < 8; ++b) {
        const std::uint8_t bit =
            static_cast<std::uint8_t>(((s >> b) ^ (s >> ((b + 4) & 7)) ^
                                       (s >> ((b + 5) & 7)) ^
                                       (s >> ((b + 6) & 7)) ^
                                       (s >> ((b + 7) & 7))) & 1);
        result = static_cast<std::uint8_t>(result ^ (bit << b));
      }
      fwd[static_cast<std::size_t>(i)] = result;
    }
  }
};

const SboxTables& tables() {
  static const SboxTables t;
  return t;
}

inline std::uint8_t xtime(std::uint8_t a) noexcept {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

inline std::uint32_t sub_word(std::uint32_t w) noexcept {
  const auto& sbox = tables().fwd;
  return (static_cast<std::uint32_t>(sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<std::uint32_t>(sbox[w & 0xff]);
}

inline std::uint32_t rot_word(std::uint32_t w) noexcept {
  return (w << 8) | (w >> 24);
}

}  // namespace

Aes::Aes(BytesView key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw common::CryptoError("Aes: key must be 16/24/32 bytes");
  }
  expand_key(key);
}

void Aes::expand_key(BytesView key) {
  const int nk = static_cast<int>(key.size() / 4);
  rounds_ = nk + 6;
  const int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i)]) << 24) |
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 1)]) << 16) |
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 2)]) << 8) |
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 3)]);
  }
  std::uint32_t rcon = 0x01000000u;
  for (int i = nk; i < total_words; ++i) {
    std::uint32_t temp = round_keys_[static_cast<std::size_t>(i - 1)];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ rcon;
      rcon = static_cast<std::uint32_t>(xtime(static_cast<std::uint8_t>(rcon >> 24))) << 24;
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[static_cast<std::size_t>(i)] =
        round_keys_[static_cast<std::size_t>(i - nk)] ^ temp;
  }
}

namespace {

void add_round_key(std::uint8_t state[16], const std::uint32_t* rk) noexcept {
  for (int c = 0; c < 4; ++c) {
    const std::uint32_t w = rk[c];
    state[4 * c + 0] ^= static_cast<std::uint8_t>(w >> 24);
    state[4 * c + 1] ^= static_cast<std::uint8_t>(w >> 16);
    state[4 * c + 2] ^= static_cast<std::uint8_t>(w >> 8);
    state[4 * c + 3] ^= static_cast<std::uint8_t>(w);
  }
}

void sub_bytes(std::uint8_t state[16]) noexcept {
  const auto& sbox = tables().fwd;
  for (int i = 0; i < 16; ++i) state[i] = sbox[state[i]];
}

void shift_rows(std::uint8_t state[16]) noexcept {
  // state is column-major: state[4*c + r].
  std::uint8_t tmp[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      tmp[4 * c + r] = state[4 * ((c + r) & 3) + r];
    }
  }
  std::memcpy(state, tmp, 16);
}

void mix_columns(std::uint8_t state[16]) noexcept {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

}  // namespace

void Aes::encrypt_block(std::uint8_t* block) const noexcept {
  add_round_key(block, round_keys_.data());
  for (int round = 1; round < rounds_; ++round) {
    sub_bytes(block);
    shift_rows(block);
    mix_columns(block);
    add_round_key(block, round_keys_.data() + 4 * round);
  }
  sub_bytes(block);
  shift_rows(block);
  add_round_key(block, round_keys_.data() + 4 * rounds_);
}

AesCtr::AesCtr(BytesView key, BytesView nonce12) : aes_(key) {
  if (nonce12.size() != 12) {
    throw common::CryptoError("AesCtr: nonce must be 12 bytes");
  }
  std::memcpy(counter_block_.data(), nonce12.data(), 12);
  // Low 4 bytes are the big-endian block counter, starting at 0.
}

void AesCtr::bump() noexcept {
  for (int i = 15; i >= 12; --i) {
    if (++counter_block_[static_cast<std::size_t>(i)] != 0) break;
  }
}

void AesCtr::apply(Bytes& data) {
  for (auto& byte : data) {
    if (pos_ == 16) {
      keystream_ = counter_block_;
      aes_.encrypt_block(keystream_.data());
      bump();
      pos_ = 0;
    }
    byte ^= keystream_[pos_++];
  }
}

}  // namespace tpnr::crypto
