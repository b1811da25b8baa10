#include "crypto/bigint.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "crypto/counters.h"

namespace tpnr::crypto {

using common::CryptoError;

namespace {
constexpr std::size_t kKaratsubaThreshold = 32;  // limbs
}

BigInt::BigInt(std::int64_t v) {
  std::uint64_t mag;
  if (v < 0) {
    negative_ = true;
    mag = static_cast<std::uint64_t>(-(v + 1)) + 1;  // avoids INT64_MIN UB
  } else {
    mag = static_cast<std::uint64_t>(v);
  }
  while (mag != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(mag));
    mag >>= 32;
  }
  if (limbs_.empty()) negative_ = false;
}

void BigInt::normalize() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::from_bytes(BytesView data) {
  BigInt out;
  for (std::uint8_t byte : data) {
    // out = out*256 + byte, done limb-wise for speed.
    std::uint64_t carry = byte;
    for (auto& limb : out.limbs_) {
      const std::uint64_t v = (static_cast<std::uint64_t>(limb) << 8) | carry;
      limb = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  out.normalize();
  return out;
}

Bytes BigInt::to_bytes(std::size_t min_len) const {
  Bytes out;
  const std::size_t bits = bit_length();
  const std::size_t len = (bits + 7) / 8;
  out.resize(std::max(len, min_len), 0);
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t limb = i / 4;
    const std::size_t shift = 8 * (i % 4);
    out[out.size() - 1 - i] =
        static_cast<std::uint8_t>(limbs_[limb] >> shift);
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  bool neg = false;
  if (!hex.empty() && hex.front() == '-') {
    neg = true;
    hex.remove_prefix(1);
  }
  if (hex.empty()) throw CryptoError("BigInt::from_hex: empty input");
  BigInt out;
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      throw CryptoError("BigInt::from_hex: bad character");
    }
    std::uint64_t carry = static_cast<std::uint64_t>(v);
    for (auto& limb : out.limbs_) {
      const std::uint64_t x = (static_cast<std::uint64_t>(limb) << 4) | carry;
      limb = static_cast<std::uint32_t>(x);
      carry = x >> 32;
    }
    if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  out.normalize();
  out.negative_ = neg && !out.limbs_.empty();
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 7; nib >= 0; --nib) {
      out.push_back(kDigits[(limbs_[i] >> (4 * nib)) & 0xf]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  out.erase(0, first);
  if (negative_) out.insert(out.begin(), '-');
  return out;
}

BigInt BigInt::from_decimal(std::string_view dec) {
  bool neg = false;
  if (!dec.empty() && dec.front() == '-') {
    neg = true;
    dec.remove_prefix(1);
  }
  if (dec.empty()) throw CryptoError("BigInt::from_decimal: empty input");
  BigInt out;
  for (char c : dec) {
    if (c < '0' || c > '9') {
      throw CryptoError("BigInt::from_decimal: bad character");
    }
    std::uint64_t carry = static_cast<std::uint64_t>(c - '0');
    for (auto& limb : out.limbs_) {
      const std::uint64_t x = static_cast<std::uint64_t>(limb) * 10 + carry;
      limb = static_cast<std::uint32_t>(x);
      carry = x >> 32;
    }
    if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  out.normalize();
  out.negative_ = neg && !out.limbs_.empty();
  return out;
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  std::vector<std::uint32_t> mag = limbs_;
  std::string out;
  while (!mag.empty()) {
    // Divide the magnitude by 10^9, emit the remainder.
    std::uint64_t rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<std::uint32_t>(cur / 1000000000ull);
      rem = cur % 1000000000ull;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int i = 0; i < 9; ++i) {
      out.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t BigInt::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return 32 * (limbs_.size() - 1) +
         (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

int BigInt::compare_magnitude(const BigInt& other) const noexcept {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

int BigInt::compare(const BigInt& other) const noexcept {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  const int mag = compare_magnitude(other);
  return negative_ ? -mag : mag;
}

std::vector<std::uint32_t> BigInt::add_mag(const std::vector<std::uint32_t>& a,
                                           const std::vector<std::uint32_t>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<std::uint32_t> out;
  out.reserve(big.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    std::uint64_t sum = carry + big[i];
    if (i < small.size()) sum += small[i];
    out.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

std::vector<std::uint32_t> BigInt::sub_mag(const std::vector<std::uint32_t>& a,
                                           const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= static_cast<std::int64_t>(b[i]);
    if (diff < 0) {
      diff += (1ll << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<std::uint32_t>(diff));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<std::uint32_t> BigInt::mul_school(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::uint64_t cur = ai * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out[k]) + carry;
      out[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<std::uint32_t> BigInt::mul_mag(const std::vector<std::uint32_t>& a,
                                           const std::vector<std::uint32_t>& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return mul_school(a, b);
  }
  // Karatsuba: split at half the longer operand.
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  auto lo = [half](const std::vector<std::uint32_t>& v) {
    std::vector<std::uint32_t> out(v.begin(),
                                   v.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(half, v.size())));
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  auto hi = [half](const std::vector<std::uint32_t>& v) {
    if (v.size() <= half) return std::vector<std::uint32_t>{};
    return std::vector<std::uint32_t>(
        v.begin() + static_cast<std::ptrdiff_t>(half), v.end());
  };

  const auto a0 = lo(a), a1 = hi(a), b0 = lo(b), b1 = hi(b);
  const auto z0 = mul_mag(a0, b0);
  const auto z2 = mul_mag(a1, b1);
  const auto z1_full = mul_mag(add_mag(a0, a1), add_mag(b0, b1));
  auto z1 = sub_mag(sub_mag(z1_full, z0), z2);

  // result = z2 << (2*half*32) + z1 << (half*32) + z0
  std::vector<std::uint32_t> out(std::max({z0.size(), z1.size() + half,
                                           z2.size() + 2 * half}) + 1, 0);
  auto add_at = [&out](const std::vector<std::uint32_t>& v,
                       std::size_t offset) {
    std::uint64_t carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out[offset + i]) + v[i] + carry;
      out[offset + i] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    while (carry != 0) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out[offset + i]) + carry;
      out[offset + i] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

void BigInt::div_mag(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b,
                     std::vector<std::uint32_t>& quotient,
                     std::vector<std::uint32_t>& remainder) {
  quotient.clear();
  remainder.clear();
  if (b.empty()) throw CryptoError("BigInt: division by zero");

  // Magnitude comparison shortcut.
  auto mag_less = [](const std::vector<std::uint32_t>& x,
                     const std::vector<std::uint32_t>& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    for (std::size_t i = x.size(); i-- > 0;) {
      if (x[i] != y[i]) return x[i] < y[i];
    }
    return false;
  };
  if (mag_less(a, b)) {
    remainder = a;
    return;
  }

  if (b.size() == 1) {
    // Short division.
    const std::uint64_t d = b[0];
    quotient.assign(a.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | a[i];
      quotient[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    if (rem != 0) remainder.push_back(static_cast<std::uint32_t>(rem));
    return;
  }

  // Knuth TAOCP vol. 2, Algorithm D. Normalize so the divisor's top limb has
  // its high bit set.
  const int shift = std::countl_zero(b.back());
  const std::size_t n = b.size();
  const std::size_t m = a.size() - n;

  auto shl = [](const std::vector<std::uint32_t>& v, int s, bool extend) {
    std::vector<std::uint32_t> out(v.size() + (extend ? 1 : 0), 0);
    if (s == 0) {
      std::copy(v.begin(), v.end(), out.begin());
    } else {
      std::uint32_t carry = 0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] = (v[i] << s) | carry;
        carry = static_cast<std::uint32_t>(v[i] >> (32 - s));
      }
      if (extend) out[v.size()] = carry;
    }
    return out;
  };

  std::vector<std::uint32_t> u = shl(a, shift, true);       // n + m + 1 limbs
  const std::vector<std::uint32_t> v = shl(b, shift, false);  // n limbs

  quotient.assign(m + 1, 0);
  const std::uint64_t vtop = v[n - 1];
  const std::uint64_t vsecond = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numerator / vtop;
    std::uint64_t rhat = numerator % vtop;
    while (qhat >= (1ull << 32) ||
           qhat * vsecond > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat >= (1ull << 32)) break;
    }

    // u[j .. j+n] -= qhat * v
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                                static_cast<std::int64_t>(product & 0xffffffffull) -
                                borrow;
      if (diff < 0) {
        u[i + j] = static_cast<std::uint32_t>(diff + (1ll << 32));
        borrow = 1;
      } else {
        u[i + j] = static_cast<std::uint32_t>(diff);
        borrow = 0;
      }
    }
    const std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) -
                                  static_cast<std::int64_t>(carry) - borrow;
    if (top_diff < 0) {
      // qhat was one too large: add back.
      u[j + n] = static_cast<std::uint32_t>(top_diff + (1ll << 32));
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<std::uint32_t>(sum);
        c = sum >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + c);
    } else {
      u[j + n] = static_cast<std::uint32_t>(top_diff);
    }
    quotient[j] = static_cast<std::uint32_t>(qhat);
  }

  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();

  // Remainder = u[0..n) >> shift.
  remainder.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  if (shift != 0) {
    std::uint32_t carry = 0;
    for (std::size_t i = remainder.size(); i-- > 0;) {
      const std::uint32_t cur = remainder[i];
      remainder[i] = (cur >> shift) | carry;
      carry = cur << (32 - shift);
    }
  }
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  if (a.negative_ == b.negative_) {
    out.limbs_ = BigInt::add_mag(a.limbs_, b.limbs_);
    out.negative_ = a.negative_;
  } else {
    const int cmp = a.compare_magnitude(b);
    if (cmp == 0) return BigInt{};
    if (cmp > 0) {
      out.limbs_ = BigInt::sub_mag(a.limbs_, b.limbs_);
      out.negative_ = a.negative_;
    } else {
      out.limbs_ = BigInt::sub_mag(b.limbs_, a.limbs_);
      out.negative_ = b.negative_;
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_ = BigInt::mul_mag(a.limbs_, b.limbs_);
  out.negative_ = (a.negative_ != b.negative_) && !out.limbs_.empty();
  return out;
}

void BigInt::div_mod(const BigInt& a, const BigInt& b, BigInt& quotient,
                     BigInt& remainder) {
  div_mag(a.limbs_, b.limbs_, quotient.limbs_, remainder.limbs_);
  quotient.negative_ =
      (a.negative_ != b.negative_) && !quotient.limbs_.empty();
  remainder.negative_ = a.negative_ && !remainder.limbs_.empty();
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::div_mod(a, b, q, r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::div_mod(a, b, q, r);
  return r;
}

BigInt BigInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const int bit_shift = static_cast<int>(bits % 32);
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    if (bit_shift == 0) {
      out.limbs_[i + limb_shift] = limbs_[i];
    } else {
      out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
      out.limbs_[i + limb_shift + 1] |=
          static_cast<std::uint32_t>(limbs_[i] >> (32 - bit_shift));
    }
  }
  out.negative_ = negative_;
  out.normalize();
  return out;
}

BigInt BigInt::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt{};
  const int bit_shift = static_cast<int>(bits % 32);
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (32 - bit_shift);
    }
  }
  out.negative_ = negative_;
  out.normalize();
  return out;
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw CryptoError("BigInt::mod: modulus must be positive");
  }
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt BigInt::mod_pow(const BigInt& exp, const BigInt& m) const {
  // The Montgomery path needs an odd modulus; anything else takes the
  // classic multiply-then-reduce ladder. Both produce the same value
  // bit-for-bit — this is a speed dispatch, not a semantic one. RSA moduli
  // and primes are always odd, so the hot paths qualify.
  if (m.is_odd() && m.compare(BigInt(1)) > 0 && !exp.is_negative()) {
    return Montgomery(m).pow(*this, exp);
  }
  return mod_pow_classic(exp, m);
}

BigInt BigInt::mod_pow_classic(const BigInt& exp, const BigInt& m) const {
  if (exp.is_negative()) {
    throw CryptoError("BigInt::mod_pow: negative exponent");
  }
  if (m.compare(BigInt(1)) <= 0) {
    throw CryptoError("BigInt::mod_pow: modulus must be > 1");
  }
  const BigInt base = this->mod(m);
  if (exp.is_zero()) return BigInt(1);

  // 4-bit fixed-window exponentiation: precompute base^0..base^15.
  std::vector<BigInt> table(16);
  table[0] = BigInt(1);
  table[1] = base;
  for (std::size_t i = 2; i < 16; ++i) {
    table[i] = (table[i - 1] * base).mod(m);
  }

  const std::size_t bits = exp.bit_length();
  const std::size_t windows = (bits + 3) / 4;
  std::uint64_t modmuls = 14;  // table build
  BigInt result(1);
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) {
      result = (result * result).mod(m);
    }
    modmuls += 4;
    std::uint32_t nibble = 0;
    for (int i = 3; i >= 0; --i) {
      nibble = (nibble << 1) |
               static_cast<std::uint32_t>(exp.bit(4 * w + static_cast<std::size_t>(i)) ? 1 : 0);
    }
    if (nibble != 0) {
      result = (result * table[nibble]).mod(m);
      ++modmuls;
    }
  }
  counters().classic_modmuls.fetch_add(modmuls, std::memory_order_relaxed);
  return result;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& m) const {
  if (m.compare(BigInt(1)) <= 0) {
    throw CryptoError("BigInt::mod_inverse: modulus must be > 1");
  }
  // Extended Euclid on (a, m).
  BigInt a = this->mod(m);
  BigInt r0 = m, r1 = a;
  BigInt t0(0), t1(1);
  while (!r1.is_zero()) {
    BigInt q, r2;
    div_mod(r0, r1, q, r2);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0.compare(BigInt(1)) != 0) {
    throw CryptoError("BigInt::mod_inverse: not invertible");
  }
  return t0.mod(m);
}

BigInt BigInt::random_bits(std::size_t bits, Drbg& rng) {
  if (bits == 0) return BigInt{};
  const std::size_t bytes_needed = (bits + 7) / 8;
  Bytes raw = rng.bytes(bytes_needed);
  // Clear excess top bits, then force the msb so the bit length is exact.
  const std::size_t excess = 8 * bytes_needed - bits;
  raw[0] = static_cast<std::uint8_t>(raw[0] & (0xffu >> excess));
  raw[0] = static_cast<std::uint8_t>(raw[0] | (0x80u >> excess));
  return from_bytes(raw);
}

BigInt BigInt::random_below(const BigInt& bound, Drbg& rng) {
  if (bound.is_zero() || bound.is_negative()) {
    throw CryptoError("BigInt::random_below: bound must be positive");
  }
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes_needed = (bits + 7) / 8;
  const std::size_t excess = 8 * bytes_needed - bits;
  while (true) {
    Bytes raw = rng.bytes(bytes_needed);
    raw[0] = static_cast<std::uint8_t>(raw[0] & (0xffu >> excess));
    BigInt candidate = from_bytes(raw);
    if (candidate.compare(bound) < 0) return candidate;
  }
}

bool BigInt::is_probable_prime(Drbg& rng, int rounds) const {
  if (is_negative()) return false;
  if (compare(BigInt(2)) < 0) return false;
  if (compare(BigInt(2)) == 0 || compare(BigInt(3)) == 0) return true;
  if (!is_odd()) return false;

  // Trial division by small primes first.
  static constexpr std::uint32_t kSmallPrimes[] = {
      3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
      47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103};
  for (std::uint32_t p : kSmallPrimes) {
    const BigInt bp(static_cast<std::int64_t>(p));
    if (compare(bp) == 0) return true;
    if ((*this % bp).is_zero()) return false;
  }

  // Write n-1 = d * 2^s with d odd.
  const BigInt n_minus_1 = *this - BigInt(1);
  std::size_t s = 0;
  BigInt d = n_minus_1;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++s;
  }

  auto witness = [&](const BigInt& base) {
    BigInt x = base.mod_pow(d, *this);
    if (x.compare(BigInt(1)) == 0 || x.compare(n_minus_1) == 0) return false;
    for (std::size_t i = 1; i < s; ++i) {
      x = (x * x).mod(*this);
      if (x.compare(n_minus_1) == 0) return false;
    }
    return true;  // composite witness found
  };

  if (witness(BigInt(2))) return false;
  const BigInt two(2);
  const BigInt span = *this - BigInt(4);
  for (int i = 0; i < rounds; ++i) {
    const BigInt base = random_below(span, rng) + two;  // in [2, n-2]
    if (witness(base)) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(std::size_t bits, Drbg& rng) {
  if (bits < 8) throw CryptoError("BigInt::generate_prime: need >= 8 bits");
  while (true) {
    BigInt candidate = random_bits(bits, rng);
    // Force odd.
    candidate.limbs_[0] |= 1u;
    if (candidate.is_probable_prime(rng)) return candidate;
  }
}

namespace {

// Double-width accumulator for the CIOS inner loops. __extension__ keeps
// -Wpedantic quiet about the non-standard __int128.
#if defined(__SIZEOF_INT128__)
__extension__ typedef unsigned __int128 MontDword;
#else
typedef std::uint64_t MontDword;
#endif

}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (n_.is_negative() || !n_.is_odd() || n_.compare(BigInt(1)) <= 0) {
    throw CryptoError("Montgomery: modulus must be odd and > 1");
  }
  constexpr unsigned kWordBits = sizeof(Word) * 8;
  n_limbs_ = pad(n_);
  // n0' = -n^{-1} mod 2^w by Newton iteration: x0 = n is correct to 3 bits
  // for odd n, and each step doubles the correct bit count
  // (3 -> 6 -> 12 -> 24 -> 48 -> 96 >= w for both word sizes).
  Word inv = n_limbs_[0];
  for (int i = 0; i < 5; ++i) inv *= Word{2} - n_limbs_[0] * inv;
  n0_ = Word{0} - inv;
  // R^2 mod n for R = 2^(w s): the one division this context ever pays.
  const std::size_t s = n_limbs_.size();
  rr_ = pad(BigInt(1).shifted_left(2 * kWordBits * s).mod(n_));
}

Montgomery::Limbs Montgomery::pad(const BigInt& x) const {
  // Repack the BigInt's 32-bit limbs into Words; for the modulus itself
  // (n_limbs_ still empty) size to exactly cover it, else to its width.
  const std::vector<std::uint32_t>& src = x.limbs_;
  constexpr std::size_t kPer = sizeof(Word) / sizeof(std::uint32_t);
  const std::size_t want = n_limbs_.empty()
                               ? (src.size() + kPer - 1) / kPer
                               : n_limbs_.size();
  Limbs out(want, 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i / kPer] |= static_cast<Word>(src[i]) << (32 * (i % kPer));
  }
  return out;
}

BigInt Montgomery::unpack(const Word* x) const {
  constexpr std::size_t kPer = sizeof(Word) / sizeof(std::uint32_t);
  BigInt out;
  out.limbs_.resize(n_limbs_.size() * kPer);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] =
        static_cast<std::uint32_t>(x[i / kPer] >> (32 * (i % kPer)));
  }
  out.normalize();
  return out;
}

void Montgomery::mont_mul_into(Word* out, const Word* a, const Word* b,
                               Word* t) const {
  // Fused CIOS: each outer step adds the row a[i]·b and the reduction row
  // m·n (m chosen so the low word cancels) in one inner pass with two carry
  // chains, shifting the running sum down a word as it goes. The sum stays
  // below 2n, so s + 1 words hold it.
  constexpr unsigned kWordBits = sizeof(Word) * 8;
  const std::size_t s = n_limbs_.size();
  const Word* n = n_limbs_.data();
  std::fill(t, t + s + 1, Word{0});
  // p and r carry their row's pending high word between steps (GCC keeps
  // two double-width accumulators in registers; separate carry words spill).
  for (std::size_t i = 0; i < s; ++i) {
    const Word ai = a[i];
    MontDword p = static_cast<MontDword>(ai) * b[0] + t[0];
    const Word m = static_cast<Word>(p) * n0_;
    MontDword r = static_cast<MontDword>(m) * n[0] + static_cast<Word>(p);
    for (std::size_t j = 1; j < s; ++j) {
      p = static_cast<MontDword>(ai) * b[j] + t[j] +
          static_cast<Word>(p >> kWordBits);
      r = static_cast<MontDword>(m) * n[j] + static_cast<Word>(p) +
          static_cast<Word>(r >> kWordBits);
      t[j - 1] = static_cast<Word>(r);
    }
    p = static_cast<MontDword>(t[s]) + static_cast<Word>(p >> kWordBits);
    r = static_cast<MontDword>(static_cast<Word>(p)) +
        static_cast<Word>(r >> kWordBits);
    t[s - 1] = static_cast<Word>(r);
    t[s] = static_cast<Word>(p >> kWordBits) +
           static_cast<Word>(r >> kWordBits);
  }
  // t < 2n with t[s] in {0, 1}: write t - n, and keep t instead when the
  // subtract borrowed past t[s] (t < n).
  Word borrow = 0;
  for (std::size_t j = 0; j < s; ++j) {
    const Word d1 = t[j] - n[j];
    const Word d2 = d1 - borrow;
    borrow = static_cast<Word>((d1 > t[j]) || (d2 > d1));
    out[j] = d2;
  }
  if (borrow > t[s]) std::copy(t, t + s, out);
}

BigInt Montgomery::product(const Limbs& a, const Limbs& b) const {
  Limbs out(n_limbs_.size());
  Limbs t(n_limbs_.size() + 1);
  mont_mul_into(out.data(), a.data(), b.data(), t.data());
  counters().mont_modmuls.fetch_add(1, std::memory_order_relaxed);
  return unpack(out.data());
}

BigInt Montgomery::to_mont(const BigInt& x) const {
  return product(pad(x), rr_);
}

BigInt Montgomery::from_mont(const BigInt& x) const {
  Limbs one(n_limbs_.size(), 0);
  one[0] = 1;
  return product(pad(x), one);
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  return product(pad(a), pad(b));
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) {
    throw CryptoError("Montgomery::pow: negative exponent");
  }
  if (exp.is_zero()) return BigInt(1);
  const std::size_t s = n_limbs_.size();
  const std::size_t bits = exp.bit_length();
  // Small exponents (every verify: e = 65537) take the binary ladder; a
  // window table would cost more than it saves.
  const bool windowed = bits > 20;
  const std::size_t entries = windowed ? 16 : 1;
  // One scratch buffer serves every multiply: the table of odd powers
  // base^1, base^3, ..., base^31, the accumulator, the constant 1 and the
  // kernel's temporary.
  Limbs scratch((entries + 3) * s + 1, 0);
  Word* const table = scratch.data();
  Word* const acc = table + entries * s;
  Word* const one = acc + s;
  Word* const t = one + s;
  one[0] = 1;
  std::uint64_t modmuls = 0;
  const auto mulmod = [&](Word* out, const Word* a, const Word* b) {
    mont_mul_into(out, a, b, t);
    ++modmuls;
  };

  mulmod(table, pad(base.mod(n_)).data(), rr_.data());
  if (!windowed) {
    std::copy(table, table + s, acc);
    for (std::size_t i = bits - 1; i-- > 0;) {
      mulmod(acc, acc, acc);
      if (exp.bit(i)) mulmod(acc, acc, table);
    }
  } else {
    mulmod(acc, table, table);  // base^2 steps the table
    for (std::size_t k = 1; k < entries; ++k) {
      mulmod(table + k * s, table + (k - 1) * s, acc);
    }
    // Left-to-right 5-bit sliding window: a zero bit costs one squaring;
    // otherwise take the longest window of at most 5 bits that starts at
    // this bit and ends on a set bit, square once per bit it spans, and
    // multiply by its odd power. The top bit is set, so the first window
    // seeds the accumulator.
    bool seeded = false;
    for (std::size_t i = bits; i > 0;) {
      if (!exp.bit(i - 1)) {
        mulmod(acc, acc, acc);
        --i;
        continue;
      }
      std::size_t low = i > 5 ? i - 5 : 0;
      while (!exp.bit(low)) ++low;
      std::size_t window = 0;
      for (std::size_t b = i; b-- > low;) {
        window = (window << 1) | (exp.bit(b) ? 1 : 0);
      }
      const Word* power = table + (window >> 1) * s;
      if (seeded) {
        for (std::size_t b = low; b < i; ++b) mulmod(acc, acc, acc);
        mulmod(acc, acc, power);
      } else {
        std::copy(power, power + s, acc);
        seeded = true;
      }
      i = low;
    }
  }
  mulmod(acc, acc, one);  // out of Montgomery form
  counters().mont_modmuls.fetch_add(modmuls, std::memory_order_relaxed);
  return unpack(acc);
}

}  // namespace tpnr::crypto
