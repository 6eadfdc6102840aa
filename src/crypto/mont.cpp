#include "crypto/mont.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/mont_kernel.hpp"

namespace spider::crypto {

namespace {

/// Pads a value known to be < 2^(64*size) out to `size` limbs.
std::vector<limb_t> padded(const BigInt& v, std::size_t size) {
  std::vector<limb_t> out(v.limbs());
  out.resize(size, 0);
  return out;
}

/// Final Montgomery reduction step without a branch: the accumulator is in
/// [0, 2N) (value = top * B^s + t[0..s)); always compute t - N into out,
/// then keep t instead when the value was already reduced (top == 0 and
/// the subtraction borrowed).  Data-independent time regardless of t.
void reduce_once(const limb_t* t, limb_t top, const limb_t* n, std::size_t s, limb_t* out) {
  const limb_t borrow = lk::sub(t, s, n, s, out);
  const limb_t keep = (limb_t{0} - borrow) & ~lk::nonzero_mask(top);
  for (std::size_t j = 0; j < s; ++j) out[j] ^= (out[j] ^ t[j]) & keep;
}

/// Constant-time window-table gather: out = table[index] for index in
/// [0, 16) without indexing memory by the secret — every entry is read and
/// masked, only the matching one lands in out.
void ct_select(const limb_t* table, std::size_t s, limb_t index, limb_t* out) {
  std::fill(out, out + s, limb_t{0});
  for (limb_t i = 0; i < 16; ++i) {
    const limb_t mask = ~lk::nonzero_mask(i ^ index);
    const limb_t* entry = table + static_cast<std::size_t>(i) * s;
    for (std::size_t j = 0; j < s; ++j) out[j] |= entry[j] & mask;
  }
}

/// mont_mul with the width fixed at compile time: the inner loops unroll
/// fully and the accumulator row lives in registers instead of scratch.
/// RSA-512..2048 halves and moduli land on these widths; everything else
/// takes the generic path.
template <std::size_t S>
void mont_mul_fixed(const limb_t* a, const limb_t* b, const limb_t* n, limb_t n0, limb_t* out) {
  limb_t t[S + 1] = {};
  for (std::size_t i = 0; i < S; ++i) {
    const dlimb_t ai = a[i];
    dlimb_t p = static_cast<dlimb_t>(t[0]) + ai * b[0];
    const limb_t m = static_cast<limb_t>(p) * n0;
    dlimb_t q = static_cast<dlimb_t>(static_cast<limb_t>(p)) + static_cast<dlimb_t>(m) * n[0];
    limb_t mul_carry = static_cast<limb_t>(p >> kLimbBits);
    limb_t red_carry = static_cast<limb_t>(q >> kLimbBits);
    for (std::size_t j = 1; j < S; ++j) {
      p = static_cast<dlimb_t>(t[j]) + ai * b[j] + mul_carry;
      mul_carry = static_cast<limb_t>(p >> kLimbBits);
      q = static_cast<dlimb_t>(static_cast<limb_t>(p)) + static_cast<dlimb_t>(m) * n[j] +
          red_carry;
      red_carry = static_cast<limb_t>(q >> kLimbBits);
      t[j - 1] = static_cast<limb_t>(q);
    }
    const dlimb_t top = static_cast<dlimb_t>(t[S]) + mul_carry + red_carry;
    t[S - 1] = static_cast<limb_t>(top);
    t[S] = static_cast<limb_t>(top >> kLimbBits);
  }
  reduce_once(t, t[S], n, S, out);
}

}  // namespace

namespace detail {

limb_t mont_n0(limb_t n_low) {
  // Newton iteration doubles the correct low bits of the inverse each
  // step: seeding with n (3 bits correct mod 8 for odd n) reaches 64 bits
  // in five steps; a sixth is free insurance.
  limb_t inv = n_low;
  for (int i = 0; i < 6; ++i) inv *= 2 - n_low * inv;
  return limb_t{0} - inv;
}

void mont_mul8_portable(const limb_t* a, const limb_t* b, const limb_t* n, limb_t n0,
                        limb_t* out) {
  mont_mul_fixed<8>(a, b, n, n0, out);
}

#if defined(__x86_64__) && defined(__GNUC__)

bool mont_mul8_adx_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  }();
  return supported;
}

// Operand block behind the single pointer %[p] (byte offsets): a at 0,
// b at 64, n at 128, n0 at 192.
//
// One column of a row: mulx puts x*rdx in (hi, lo); lo joins the CF chain
// (adcx) at word J, hi the OF chain (adox) at word J+1, so the two carry
// chains run interleaved without ever waiting on each other.
//
// The asm below is laid out one instruction per line, by hand.
// clang-format off
#define SPIDER_MONT_MAC(OFF, TJ, TJ1)          \
  "mulx " #OFF "(%[p]), %[lo], %[hi]\n\t"     \
  "adcx %[lo], %[" #TJ "]\n\t"                \
  "adox %[hi], %[" #TJ1 "]\n\t"

// The reduction half of a CIOS row over the accumulator words T0..T9:
// T += m*n with m = T0*n0, which clears T0.  The cleared T0 is the zero
// operand of the final carry folds, and becomes the next row's zero T9:
// the rows rotate the roles by one word instead of moving data.
#define SPIDER_MONT_REDC(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)                         \
  "movq %[" #T0 "], %%rdx\n\t"                                                         \
  "imulq 192(%[p]), %%rdx\n\t"                                                         \
  "xorl %k[lo], %k[lo]\n\t" /* clears CF and OF */                                     \
  SPIDER_MONT_MAC(128, T0, T1) SPIDER_MONT_MAC(136, T1, T2)                             \
  SPIDER_MONT_MAC(144, T2, T3) SPIDER_MONT_MAC(152, T3, T4)                             \
  SPIDER_MONT_MAC(160, T4, T5) SPIDER_MONT_MAC(168, T5, T6)                             \
  SPIDER_MONT_MAC(176, T6, T7) SPIDER_MONT_MAC(184, T7, T8)                             \
  "adcx %[" #T0 "], %[" #T8 "]\n\t"                                                    \
  "adox %[" #T0 "], %[" #T9 "]\n\t"                                                    \
  "adcx %[" #T0 "], %[" #T9 "]\n\t"

// One full CIOS row (T9 enters as zero): T += a_i*b, then the reduction.
// t < 2N and a_i*b < 2^576 put the sum below 2^577, so ten words always
// hold it and nothing carries out of T9.
#define SPIDER_MONT_ROW(AOFF, T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)                    \
  "movq " #AOFF "(%[p]), %%rdx\n\t"                                                    \
  "xorl %k[lo], %k[lo]\n\t"                                                            \
  SPIDER_MONT_MAC(64, T0, T1) SPIDER_MONT_MAC(72, T1, T2) SPIDER_MONT_MAC(80, T2, T3)   \
  SPIDER_MONT_MAC(88, T3, T4) SPIDER_MONT_MAC(96, T4, T5) SPIDER_MONT_MAC(104, T5, T6)  \
  SPIDER_MONT_MAC(112, T6, T7) SPIDER_MONT_MAC(120, T7, T8)                             \
  "adcx %[" #T9 "], %[" #T8 "]\n\t"                                                    \
  "adox %[" #T9 "], %[" #T9 "]\n\t"                                                    \
  "adcq $0, %[" #T9 "]\n\t"                                                            \
  SPIDER_MONT_REDC(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)

void mont_mul8_adx(const limb_t* a, const limb_t* b, const limb_t* n, limb_t n0, limb_t* out) {
  // Everything the asm reads sits behind one pointer: ten accumulator
  // words, the two mulx outputs and the pointer make 13 operand registers
  // plus rdx, which still fits when the frame pointer is reserved (-O0,
  // sanitizer builds).
  limb_t blk[25];
  std::copy(a, a + 8, blk);
  std::copy(b, b + 8, blk + 8);
  std::copy(n, n + 8, blk + 16);
  blk[24] = n0;
  limb_t r0 = 0, r1 = 0, r2 = 0, r3 = 0, r4 = 0, r5 = 0, r6 = 0, r7 = 0, r8 = 0, r9 = 0;
  limb_t lo = 0, hi = 0;
  asm(SPIDER_MONT_ROW(0, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9)
      SPIDER_MONT_ROW(8, r1, r2, r3, r4, r5, r6, r7, r8, r9, r0)
      SPIDER_MONT_ROW(16, r2, r3, r4, r5, r6, r7, r8, r9, r0, r1)
      SPIDER_MONT_ROW(24, r3, r4, r5, r6, r7, r8, r9, r0, r1, r2)
      SPIDER_MONT_ROW(32, r4, r5, r6, r7, r8, r9, r0, r1, r2, r3)
      SPIDER_MONT_ROW(40, r5, r6, r7, r8, r9, r0, r1, r2, r3, r4)
      SPIDER_MONT_ROW(48, r6, r7, r8, r9, r0, r1, r2, r3, r4, r5)
      SPIDER_MONT_ROW(56, r7, r8, r9, r0, r1, r2, r3, r4, r5, r6)
      // r0..r9 enter as zero, the starting accumulator.
      : [r0] "+r"(r0), [r1] "+r"(r1), [r2] "+r"(r2), [r3] "+r"(r3), [r4] "+r"(r4),
        [r5] "+r"(r5), [r6] "+r"(r6), [r7] "+r"(r7), [r8] "+r"(r8), [r9] "+r"(r9),
        [lo] "=&r"(lo), [hi] "=&r"(hi)
      : [p] "r"(blk)
      : "rdx", "cc", "memory");
  // After eight rotations the result's words 0..7 sit in r8, r9, r0..r5
  // and its top bit in r6 (r7, the last cleared T0, is zero).
  const limb_t t[8] = {r8, r9, r0, r1, r2, r3, r4, r5};
  reduce_once(t, r6, n, 8, out);
}

#undef SPIDER_MONT_ROW
#undef SPIDER_MONT_REDC
#undef SPIDER_MONT_MAC
// clang-format on

#else

bool mont_mul8_adx_supported() { return false; }

void mont_mul8_adx(const limb_t* a, const limb_t* b, const limb_t* n, limb_t n0, limb_t* out) {
  mont_mul_fixed<8>(a, b, n, n0, out);
}

#endif

}  // namespace detail

MontCtx::MontCtx(const BigInt& modulus) : modulus_(modulus), n_(modulus.limbs()) {
  // Misuse guard, not a data leak: RSA moduli are odd primes (or products
  // of them) by construction, so oddness and the >= 3 bound are public
  // facts about every modulus that reaches here.
  // spider-lint: allow(R14) modulus oddness is public for RSA moduli
  if (!modulus.is_odd() || modulus < BigInt{3}) {
    throw std::domain_error("MontCtx: modulus must be odd and >= 3");
  }
  n0_ = detail::mont_n0(n_[0]);

  const std::size_t s = n_.size();
  rr_ = padded((BigInt{1} << (2 * kLimbBits * s)) % modulus, s);
  one_ = padded((BigInt{1} << (kLimbBits * s)) % modulus, s);
}

void MontCtx::mont_mul(const limb_t* a, const limb_t* b, limb_t* out, limb_t* scratch) const {
  const std::size_t s = n_.size();
  switch (s) {
    case 4: return mont_mul_fixed<4>(a, b, n_.data(), n0_, out);
    case 6: return mont_mul_fixed<6>(a, b, n_.data(), n0_, out);
    case 8:
      if (detail::mont_mul8_adx_supported()) {
        return detail::mont_mul8_adx(a, b, n_.data(), n0_, out);
      }
      return mont_mul_fixed<8>(a, b, n_.data(), n0_, out);
    case 12: return mont_mul_fixed<12>(a, b, n_.data(), n0_, out);
    case 16: return mont_mul_fixed<16>(a, b, n_.data(), n0_, out);
    default: break;
  }
  limb_t* t = scratch;  // s + 1 limbs used
  std::fill(t, t + s + 1, limb_t{0});
  for (std::size_t i = 0; i < s; ++i) {
    // One fused pass: t = (t + a[i]*b + m*N) >> 64 with m chosen so the
    // low limb cancels.  Two independent carry chains (partial product
    // and reduction) keep the dependency distance at one limb each.
    const dlimb_t ai = a[i];
    dlimb_t p = static_cast<dlimb_t>(t[0]) + ai * b[0];
    const limb_t m = static_cast<limb_t>(p) * n0_;
    dlimb_t q = static_cast<dlimb_t>(static_cast<limb_t>(p)) + static_cast<dlimb_t>(m) * n_[0];
    limb_t mul_carry = static_cast<limb_t>(p >> kLimbBits);
    limb_t red_carry = static_cast<limb_t>(q >> kLimbBits);
    for (std::size_t j = 1; j < s; ++j) {
      p = static_cast<dlimb_t>(t[j]) + ai * b[j] + mul_carry;
      mul_carry = static_cast<limb_t>(p >> kLimbBits);
      q = static_cast<dlimb_t>(static_cast<limb_t>(p)) + static_cast<dlimb_t>(m) * n_[j] +
          red_carry;
      red_carry = static_cast<limb_t>(q >> kLimbBits);
      t[j - 1] = static_cast<limb_t>(q);
    }
    // With a, b < N the invariant t < 2N holds, so the top fits one limb
    // plus a bit that the conditional subtraction below absorbs.
    const dlimb_t top = static_cast<dlimb_t>(t[s]) + mul_carry + red_carry;
    t[s - 1] = static_cast<limb_t>(top);
    t[s] = static_cast<limb_t>(top >> kLimbBits);
  }
  // Result is in [0, 2N): one branch-free final reduction.
  reduce_once(t, t[s], n_.data(), s, out);
}

void MontCtx::mont_sqr(const limb_t* a, limb_t* out, limb_t* scratch) const {
  const std::size_t s = n_.size();
  switch (s) {
    // At fixed widths the register-resident fused multiply beats the
    // sqr-then-reduce two-pass below even though it does more multiplies.
    case 4: return mont_mul_fixed<4>(a, a, n_.data(), n0_, out);
    case 6: return mont_mul_fixed<6>(a, a, n_.data(), n0_, out);
    case 8:
      if (detail::mont_mul8_adx_supported()) {
        return detail::mont_mul8_adx(a, a, n_.data(), n0_, out);
      }
      return mont_mul_fixed<8>(a, a, n_.data(), n0_, out);
    case 12: return mont_mul_fixed<12>(a, a, n_.data(), n0_, out);
    case 16: return mont_mul_fixed<16>(a, a, n_.data(), n0_, out);
    default: break;
  }
  limb_t* t = scratch;  // 2s + 1 limbs
  lk::sqr(a, s, t);
  t[2 * s] = 0;
  // Montgomery reduction of the double-width square: s passes, each
  // cancelling the current low limb with m*N and carrying into the tail.
  for (std::size_t i = 0; i < s; ++i) {
    const limb_t m = t[i] * n0_;
    limb_t carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      dlimb_t cur = static_cast<dlimb_t>(t[i + j]) + static_cast<dlimb_t>(m) * n_[j] + carry;
      t[i + j] = static_cast<limb_t>(cur);
      carry = static_cast<limb_t>(cur >> kLimbBits);
    }
    // Ripple the carry to the top unconditionally: the tail length is
    // fixed by the (public) width, not by where the carry happens to die,
    // and adding zero limbs is free compared to a data-dependent exit.
    for (std::size_t k = i + s; k <= 2 * s; ++k) {
      dlimb_t cur = static_cast<dlimb_t>(t[k]) + carry;
      t[k] = static_cast<limb_t>(cur);
      carry = static_cast<limb_t>(cur >> kLimbBits);
    }
  }
  // a < N gives (a^2 + sum m_i*N*B^i) / R < 2N: one branch-free reduction.
  reduce_once(t + s, t[2 * s], n_.data(), s, out);
}

void MontCtx::to_mont(const limb_t* a, limb_t* out, limb_t* scratch) const {
  mont_mul(a, rr_.data(), out, scratch);
}

void MontCtx::from_mont(const limb_t* a, limb_t* out, limb_t* scratch) const {
  const std::size_t s = n_.size();
  std::vector<limb_t> unit(s, 0);
  unit[0] = 1;
  mont_mul(a, unit.data(), out, scratch);
}

BigInt MontCtx::exp(const BigInt& base, const BigInt& exponent) const {
  const std::size_t s = n_.size();
  const BigInt reduced = base % modulus_;

  // One flat block: 16-entry window table, accumulator, temp, CIOS row.
  std::vector<limb_t> block(16 * s + 2 * s + scratch_size());
  limb_t* table = block.data();
  limb_t* acc = table + 16 * s;
  limb_t* tmp = acc + s;
  limb_t* scratch = tmp + s;

  std::copy(one_.begin(), one_.end(), table);  // base^0 in Montgomery form
  {
    std::vector<limb_t> base_limbs = padded(reduced, s);
    to_mont(base_limbs.data(), table + s, scratch);
  }
  for (std::size_t i = 2; i < 16; ++i) {
    mont_mul(table + (i - 1) * s, table + s, table + i * s, scratch);
  }

  const std::size_t nbits = exponent.bit_length();
  const std::size_t nwindows = (nbits + 3) / 4;
  std::copy(one_.begin(), one_.end(), acc);
  for (std::size_t w = nwindows; w-- > 0;) {
    for (int k = 0; k < 4; ++k) {
      mont_sqr(acc, tmp, scratch);
      std::swap(acc, tmp);
    }
    std::size_t window = 0;
    for (int k = 3; k >= 0; --k) {
      std::size_t bit_idx = w * 4 + static_cast<std::size_t>(k);
      window = (window << 1) | ((bit_idx < nbits && exponent.bit(bit_idx)) ? 1u : 0u);
    }
    if (window != 0) {
      mont_mul(acc, table + window * s, tmp, scratch);
      std::swap(acc, tmp);
    }
  }

  from_mont(acc, tmp, scratch);
  return BigInt::from_limbs(std::vector<limb_t>(tmp, tmp + s));
}

// spider-taint: secret exponent
BigInt MontCtx::exp_ct(const BigInt& base, const BigInt& exponent) const {
  const std::size_t s = n_.size();
  const BigInt reduced = base % modulus_;

  // Same layout as exp() plus one gather buffer for the selected entry.
  std::vector<limb_t> block(16 * s + 3 * s + scratch_size());
  limb_t* table = block.data();
  limb_t* acc = table + 16 * s;
  limb_t* tmp = acc + s;
  limb_t* sel = tmp + s;
  limb_t* scratch = sel + s;

  std::copy(one_.begin(), one_.end(), table);  // base^0 in Montgomery form
  {
    std::vector<limb_t> base_limbs = padded(reduced, s);
    to_mont(base_limbs.data(), table + s, scratch);
  }
  for (std::size_t i = 2; i < 16; ++i) {
    mont_mul(table + (i - 1) * s, table + s, table + i * s, scratch);
  }

  // The window count comes from the public modulus width, never from the
  // exponent: any exponent used with this context is < N < 2^(64*s), so
  // 16*s windows always cover it and the trip count leaks nothing.  Each
  // window is gathered with ct_select and multiplied in unconditionally
  // (window 0 selects table[0] = Montgomery 1, a no-op product).
  std::vector<limb_t> exp_limbs = exponent.limbs();
  if (exp_limbs.size() > s) throw std::domain_error("MontCtx::exp_ct: exponent wider than modulus");
  exp_limbs.resize(s, 0);
  const std::size_t nwindows = kLimbBits * s / 4;
  std::copy(one_.begin(), one_.end(), acc);
  for (std::size_t w = nwindows; w-- > 0;) {
    for (int k = 0; k < 4; ++k) {
      mont_sqr(acc, tmp, scratch);
      std::swap(acc, tmp);
    }
    // 4 divides the limb width, so a window never straddles two limbs.
    const std::size_t bit0 = w * 4;
    const limb_t window = (exp_limbs[bit0 / kLimbBits] >> (bit0 % kLimbBits)) & 0xf;
    ct_select(table, s, window, sel);
    mont_mul(acc, sel, tmp, scratch);
    std::swap(acc, tmp);
  }

  from_mont(acc, tmp, scratch);
  return BigInt::from_limbs(std::vector<limb_t>(tmp, tmp + s));
}

}  // namespace spider::crypto
