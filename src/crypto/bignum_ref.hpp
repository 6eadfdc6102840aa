// Retained reference implementations for the differential test battery and
// the "vs seed" benchmark baseline.  They build into the spider_crypto_ref
// library, which production targets never link: tests/test_crypto_diff.cpp,
// the fuzz targets and spider_bench's crypto scenario are the only
// consumers.
//
// Two independent engines, chosen so that a bug in the fast path would
// have to be reproduced by structurally different code to go unnoticed:
//
//  * ref32 — the repository's original bignum engine, verbatim: 32-bit
//    limb vectors, 64-bit accumulation, per-call CIOS Montgomery with a
//    4-bit window.  Fast enough to differentially check full RSA-1024
//    operations, and the honest baseline for the "CRT + Montgomery vs
//    seed" speedup claims in BENCH_crypto.json.
//
//  * ref16 — a deliberately naive engine over 16-bit digits: schoolbook
//    multiply with 32-bit accumulation and bit-at-a-time shift-subtract
//    division.  Shares no carry-chain structure with either the 64-bit
//    kernels or ref32; used on small-to-medium operands where O(n^2 * bits)
//    is affordable.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/rsa.hpp"

namespace spider::crypto::ref {

// ---------------------------------------------------------------- ref16

/// a * b via 16-bit-digit schoolbook.
BigInt mul_simple(const BigInt& a, const BigInt& b);

/// a / b and a % b via binary shift-subtract long division.
BigInt::DivMod divmod_simple(const BigInt& a, const BigInt& b);

/// base^exponent mod modulus via square-and-multiply over divmod_simple.
/// Affordable only for operands up to a few hundred bits.
BigInt mod_exp_simple(const BigInt& base, const BigInt& exponent, const BigInt& modulus);

// ---------------------------------------------------------------- ref32

/// base^exponent mod modulus with the original 32-bit Montgomery engine
/// (odd modulus) or plain square-and-multiply (even modulus).
BigInt mod_exp32(const BigInt& base, const BigInt& exponent, const BigInt& modulus);

/// PKCS#1 v1.5 / SHA-512 signature exactly as the seed produced it: CRT
/// recombination over two ref32 exponentiations.
Bytes rsa_sign_seed(const RsaPrivateKey& key, ByteSpan message);

/// The same signature without CRT: one full-width m^d mod n via ref32.
Bytes rsa_sign_nocrt(const RsaPrivateKey& key, ByteSpan message);

/// Signature verification over ref32 (s^e mod n, constant-time compare).
bool rsa_verify_seed(const RsaPublicKey& key, ByteSpan message, ByteSpan signature);

}  // namespace spider::crypto::ref
