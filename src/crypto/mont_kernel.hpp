// Internal 512-bit Montgomery kernel interface: the two width-8 multiply
// kernels behind MontCtx::mont_mul / mont_sqr (the CRT halves of every
// RSA-1024 signature), exposed so the differential battery can drive each
// one directly.  Not part of the public crypto API.
//
// Both kernels compute out = a*b*2^-512 mod n for a, b < n < 2^512, n odd,
// n0 = -n^-1 mod 2^64, over 8-limb little-endian arrays; out may alias a
// or b.  Both are straight-line: no branch, index or early exit depends
// on the operands.
#pragma once

#include "crypto/limb.hpp"

namespace spider::crypto::detail {

/// n0 = -n^-1 mod 2^64 for an odd low limb (Newton iteration).
limb_t mont_n0(limb_t n_low);

/// True when the running CPU (and this build) can execute the BMI2+ADX
/// kernel.  Checked once per process.
bool mont_mul8_adx_supported();
/// mulx/adcx/adox CIOS with the 10-word accumulator held in registers.
/// Only call when mont_mul8_adx_supported().
void mont_mul8_adx(const limb_t* a, const limb_t* b, const limb_t* n, limb_t n0, limb_t* out);

/// The portable fixed-width CIOS kernel: the fallback on CPUs (or
/// targets) without BMI2+ADX, and the oracle the ADX kernel is tested
/// against.
void mont_mul8_portable(const limb_t* a, const limb_t* b, const limb_t* n, limb_t n0,
                        limb_t* out);

}  // namespace spider::crypto::detail
