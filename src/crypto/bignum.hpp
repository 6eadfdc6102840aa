// Arbitrary-precision unsigned integers, built from scratch as the substrate
// for RSA-1024 (paper §7.1).  Non-negative values only: RSA needs nothing
// signed, and the extended-Euclid routine tracks signs locally.
//
// Representation: little-endian vector of 64-bit limbs with no trailing
// zero limbs (zero is the empty vector).  BigInt is a thin owning class
// over the flat limb kernels in crypto/limb.hpp: schoolbook steps
// accumulate into 128-bit words, division is Knuth's Algorithm D, and
// modular exponentiation delegates to the Montgomery context in
// crypto/mont.hpp (CIOS with a 4-bit fixed window) for odd moduli.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/limb.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace spider::crypto {

using util::Bytes;
using util::ByteSpan;

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal interop is intended

  /// Big-endian byte import/export (the format used inside signatures).
  static BigInt from_bytes_be(ByteSpan bytes);
  /// Exports big-endian, left-padded with zeros to at least `min_len` bytes.
  Bytes to_bytes_be(std::size_t min_len = 0) const;

  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;

  /// Adopts a little-endian limb vector (trailing zeros are trimmed).
  static BigInt from_limbs(std::vector<limb_t> limbs);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  /// Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  /// Value of bit `i` (0 = least significant).
  bool bit(std::size_t i) const;

  // Comparisons.
  int compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const BigInt& o) const { return !(*this == o); }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  // Arithmetic (operands must satisfy a >= b for subtraction; throws else).
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  struct DivMod;  // defined after the class (members need the complete type)
  /// Knuth Algorithm D. Throws std::domain_error on division by zero.
  DivMod divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  /// (this ^ exponent) mod modulus.  Uses Montgomery for odd moduli and a
  /// plain square-and-multiply fallback otherwise.  modulus must be >= 2.
  /// Variable-time in the exponent — public exponents only.
  BigInt mod_exp(const BigInt& exponent, const BigInt& modulus) const;

  /// Constant-time mod_exp for secret exponents (MontCtx::exp_ct): the
  /// ladder length and memory access pattern depend only on the modulus
  /// width.  Requires an odd modulus >= 3 and exponent < 2^(64*width);
  /// both hold for the CRT halves of RSA signing, its only caller.
  // spider-taint: secret exponent
  BigInt mod_exp_ct(const BigInt& exponent, const BigInt& modulus) const;

  /// Modular inverse; throws std::domain_error when gcd(this, modulus) != 1.
  BigInt mod_inverse(const BigInt& modulus) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// Uniform value in [0, bound) driven by the supplied deterministic rng.
  static BigInt random_below(const BigInt& bound, util::SplitMix64& rng);
  /// Random integer with exactly `bits` bits (top bit set).
  static BigInt random_bits(std::size_t bits, util::SplitMix64& rng);

  const std::vector<limb_t>& limbs() const { return limbs_; }

 private:
  void trim();

  std::vector<limb_t> limbs_;  // little-endian, no trailing zeros
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& o) const { return divmod(o).quotient; }
inline BigInt BigInt::operator%(const BigInt& o) const { return divmod(o).remainder; }

/// Miller–Rabin with `rounds` random bases (after small-prime trial division).
bool is_probable_prime(const BigInt& n, int rounds, util::SplitMix64& rng);

/// Generates a random prime with exactly `bits` bits.
BigInt generate_prime(std::size_t bits, util::SplitMix64& rng);

}  // namespace spider::crypto
