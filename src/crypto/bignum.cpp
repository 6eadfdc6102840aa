#include "crypto/bignum.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "crypto/mont.hpp"

namespace spider::crypto {

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_limbs(std::vector<limb_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.trim();
  return out;
}

BigInt BigInt::from_bytes_be(ByteSpan bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // byte i (from the end) goes into limb i/8, shifted by 8*(i%8)
    std::size_t from_end = bytes.size() - 1 - i;
    out.limbs_[i / 8] |= static_cast<limb_t>(bytes[from_end]) << (8 * (i % 8));
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes_be(std::size_t min_len) const {
  std::size_t nbytes = (bit_length() + 7) / 8;
  std::size_t len = std::max(nbytes, min_len);
  Bytes out(len, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    std::uint8_t b = static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
    out[len - 1 - i] = b;
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  if (hex.empty()) return BigInt{};
  if (hex.size() % 2 != 0) {
    std::string padded = "0";
    padded += hex;
    return from_bytes_be(util::from_hex(padded));
  }
  return from_bytes_be(util::from_hex(hex));
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::to_hex(to_bytes_be());
  std::size_t nz = s.find_first_not_of('0');
  return s.substr(nz);
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * kLimbBits - static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

int BigInt::compare(const BigInt& other) const {
  return lk::cmp(limbs_.data(), limbs_.size(), other.limbs_.data(), other.limbs_.size());
}

BigInt BigInt::operator+(const BigInt& o) const {
  const BigInt& big = limbs_.size() >= o.limbs_.size() ? *this : o;
  const BigInt& small = limbs_.size() >= o.limbs_.size() ? o : *this;
  BigInt out;
  out.limbs_.assign(big.limbs_.size() + 1, 0);
  limb_t carry = lk::add(big.limbs_.data(), big.limbs_.size(), small.limbs_.data(),
                         small.limbs_.size(), out.limbs_.data());
  out.limbs_[big.limbs_.size()] = carry;
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::domain_error("BigInt subtraction underflow");
  BigInt out;
  out.limbs_.assign(limbs_.size(), 0);
  lk::sub(limbs_.data(), limbs_.size(), o.limbs_.data(), o.limbs_.size(), out.limbs_.data());
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt{};
  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  if (this == &o) {
    lk::sqr(limbs_.data(), limbs_.size(), out.limbs_.data());
  } else {
    lk::mul(limbs_.data(), limbs_.size(), o.limbs_.data(), o.limbs_.size(), out.limbs_.data());
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  if (bit_shift == 0) {
    std::copy(limbs_.begin(), limbs_.end(), out.limbs_.begin() + static_cast<std::ptrdiff_t>(limb_shift));
  } else {
    limb_t carry = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
      out.limbs_[i + limb_shift] = (limbs_[i] << bit_shift) | carry;
      carry = limbs_[i] >> (kLimbBits - bit_shift);
    }
    out.limbs_[limbs_.size() + limb_shift] = carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) return BigInt{};
  const std::size_t bit_shift = bits % kLimbBits;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    limb_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
  if (*this < divisor) return {BigInt{}, *this};

  const std::size_t un = limbs_.size();
  const std::size_t vn = divisor.limbs_.size();
  BigInt q, r;
  q.limbs_.assign(un - vn + 1, 0);
  r.limbs_.assign(vn, 0);
  std::vector<limb_t> scratch(lk::divmod_scratch(un, vn));
  lk::divmod(limbs_.data(), un, divisor.limbs_.data(), vn, q.limbs_.data(), r.limbs_.data(),
             scratch.data());
  q.trim();
  r.trim();
  return {q, r};
}

BigInt BigInt::mod_exp(const BigInt& exponent, const BigInt& modulus) const {
  if (modulus < BigInt{2}) throw std::domain_error("mod_exp: modulus must be >= 2");
  if (exponent.is_zero()) return BigInt{1} % modulus;
  BigInt base = *this % modulus;
  if (base.is_zero()) return BigInt{};

  if (!modulus.is_odd()) {
    // Rare in this codebase; plain square-and-multiply with divmod.
    BigInt result{1};
    for (std::size_t i = exponent.bit_length(); i-- > 0;) {
      result = (result * result) % modulus;
      if (exponent.bit(i)) result = (result * base) % modulus;
    }
    return result;
  }

  return MontCtx(modulus).exp(base, exponent);
}

BigInt BigInt::mod_exp_ct(const BigInt& exponent, const BigInt& modulus) const {
  // No early exits on the exponent or the reduced base: zero and one are
  // as secret as any other exponent value here.
  return MontCtx(modulus).exp_ct(*this, exponent);
}

BigInt BigInt::mod_inverse(const BigInt& modulus) const {
  // Extended Euclid tracking coefficients of `this` with explicit signs.
  if (modulus < BigInt{2}) throw std::domain_error("mod_inverse: modulus must be >= 2");
  BigInt r0 = modulus;
  BigInt r1 = *this % modulus;
  if (r1.is_zero()) throw std::domain_error("mod_inverse: not invertible");
  BigInt t0{}, t1{1};
  bool t0_neg = false, t1_neg = false;

  while (!r1.is_zero()) {
    auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q*t1, with sign tracking
    BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }
  if (r0 != BigInt{1}) throw std::domain_error("mod_inverse: not invertible");
  BigInt inv = t0 % modulus;
  if (t0_neg && !inv.is_zero()) inv = modulus - inv;
  return inv;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

namespace {

/// Packs 32-bit words (one rng.next() each, low half kept) into 64-bit
/// limbs.  Draws in exactly the order the original uint32-limb
/// representation did, so every caller that was seeded deterministically —
/// rsa_generate above all — still derives byte-identical keys.
std::vector<limb_t> draw_words32(std::size_t bits, util::SplitMix64& rng) {
  const std::size_t nwords = (bits + 31) / 32;
  std::vector<limb_t> limbs((nwords + 1) / 2, 0);
  for (std::size_t w = 0; w < nwords; ++w) {
    limb_t word = static_cast<std::uint32_t>(rng.next());
    limbs[w / 2] |= word << (32 * (w % 2));
  }
  return limbs;
}

}  // namespace

BigInt BigInt::random_below(const BigInt& bound, util::SplitMix64& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: bound must be > 0");
  const std::size_t bits = bound.bit_length();
  for (;;) {
    BigInt candidate;
    candidate.limbs_ = draw_words32(bits, rng);
    // Mask the top word down to the right bit count.
    std::size_t top_bits = bits % 32;
    if (top_bits != 0) {
      const std::size_t top_word = (bits + 31) / 32 - 1;
      limb_t mask = (limb_t{1} << top_bits) - 1;
      limb_t keep = top_word % 2 == 0 ? (mask | (limb_t{0xffffffffu} << 32))
                                      : ((mask << 32) | 0xffffffffu);
      candidate.limbs_[top_word / 2] &= keep;
    }
    candidate.trim();
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(std::size_t bits, util::SplitMix64& rng) {
  if (bits == 0) return BigInt{};
  BigInt out;
  out.limbs_ = draw_words32(bits, rng);
  // Mask above bit `bits-1`, then force the top bit for an exact length.
  const std::size_t top = bits - 1;
  const std::size_t top_limb = top / kLimbBits;
  const std::size_t top_bit = top % kLimbBits;
  out.limbs_[top_limb] &= (top_bit == kLimbBits - 1) ? ~limb_t{0}
                                                     : ((limb_t{1} << (top_bit + 1)) - 1);
  out.limbs_[top_limb] |= limb_t{1} << top_bit;
  out.limbs_.resize(top_limb + 1);
  out.trim();
  return out;
}

// ------------------------------------------------------------- primality

namespace {
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,
    67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
    257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349};
}

bool is_probable_prime(const BigInt& n, int rounds, util::SplitMix64& rng) {
  if (n < BigInt{2}) return false;
  for (std::uint32_t p : kSmallPrimes) {
    BigInt bp{p};
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }

  // Write n-1 = d * 2^r.
  BigInt n_minus_1 = n - BigInt{1};
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  BigInt two{2};
  for (int round = 0; round < rounds; ++round) {
    BigInt a = BigInt{2} + BigInt::random_below(n - BigInt{4}, rng);
    BigInt x = a.mod_exp(d, n);
    if (x == BigInt{1} || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = x.mod_exp(two, n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, util::SplitMix64& rng) {
  if (bits < 8) throw std::domain_error("generate_prime: need at least 8 bits");
  for (;;) {
    BigInt candidate = BigInt::random_bits(bits, rng);
    // Force odd.
    if (!candidate.is_odd()) candidate = candidate + BigInt{1};
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, 20, rng)) return candidate;
  }
}

}  // namespace spider::crypto
