// Montgomery arithmetic for odd moduli: the engine behind BigInt::mod_exp
// and RSA-CRT signing.
//
// A context caches everything that depends only on the modulus — the limb
// array, n0 = -N^-1 mod 2^64, R mod N and R^2 mod N — so repeated
// exponentiations (the two CRT halves of every signature, the e=65537
// ladder of every verify) pay the divmod-based setup once.  The hot path
// is CIOS Montgomery multiplication over flat limb arrays with
// caller-provided scratch: no allocation per multiply.
#pragma once

#include <cstddef>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/limb.hpp"

namespace spider::crypto {

class MontCtx {
 public:
  /// Builds the context for an odd modulus >= 3; throws std::domain_error
  /// otherwise.
  explicit MontCtx(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }
  /// Limb width s of the modulus: every raw kernel below works on arrays
  /// of exactly s limbs (zero padded), with R = 2^(64*s).
  std::size_t width() const { return n_.size(); }
  /// Scratch limbs the raw kernels need (mont_sqr's full 2s-limb square
  /// dominates mont_mul's single fused-CIOS accumulator row).
  std::size_t scratch_size() const { return 2 * n_.size() + 1; }

  /// out = a*b*R^-1 mod N (fused CIOS: each outer row interleaves the
  /// a[i]*b partial product with its Montgomery reduction, one pass over
  /// the accumulator).  a and b must be in [0, N) — the single-carry-limb
  /// bound t < 2N relies on it.  a, b, out are width() limbs; scratch is
  /// scratch_size() limbs.  out may alias a or b.  At width 8 (the CRT
  /// halves of RSA-1024) it runs the BMI2+ADX kernel when the CPU has it
  /// (crypto/mont_kernel.hpp).
  void mont_mul(const limb_t* a, const limb_t* b, limb_t* out, limb_t* scratch) const;

  /// out = a^2*R^-1 mod N for a in [0, N).  Fixed widths (4/6/8/12/16):
  /// the fused mont_mul(a, a), so width 8 also gets the BMI2+ADX kernel.
  /// Everything else: lk::sqr (half the cross products) followed by a
  /// separate Montgomery reduction pass.  Exponentiation is mostly
  /// squarings.  out may alias a.
  void mont_sqr(const limb_t* a, limb_t* out, limb_t* scratch) const;

  /// out = a*R mod N for a in [0, N): multiply by the cached R^2.
  void to_mont(const limb_t* a, limb_t* out, limb_t* scratch) const;
  /// out = a*R^-1 mod N: multiply by 1.
  void from_mont(const limb_t* a, limb_t* out, limb_t* scratch) const;

  /// base^exponent mod N with plain-domain input and output; base is
  /// reduced mod N first.  4-bit fixed window over one preallocated
  /// scratch block.  Variable-time in the exponent (skips zero windows,
  /// sizes the ladder by the exponent's bit length) — public exponents
  /// only; signing uses exp_ct.
  BigInt exp(const BigInt& base, const BigInt& exponent) const;

  /// Constant-time variant for secret exponents (the CRT halves of RSA
  /// signing): the window ladder is sized by the public modulus width,
  /// every window is gathered from the table with a masked read of all 16
  /// entries, and every iteration multiplies unconditionally.  Requires
  /// exponent < 2^(64*width()); roughly 16*s windows regardless of the
  /// exponent's actual length, so only use it where the exponent is
  /// secret.
  // spider-taint: secret exponent
  BigInt exp_ct(const BigInt& base, const BigInt& exponent) const;

 private:
  BigInt modulus_;
  std::vector<limb_t> n_;    // modulus, width() limbs
  std::vector<limb_t> rr_;   // R^2 mod N
  std::vector<limb_t> one_;  // R mod N (Montgomery form of 1)
  limb_t n0_ = 0;            // -N^-1 mod 2^64
};

}  // namespace spider::crypto
