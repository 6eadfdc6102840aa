// Differential battery for the limb-array crypto engine: every fast kernel
// (schoolbook multiply, squaring, Knuth-D division, CIOS Montgomery
// multiplication including the 512-bit BMI2+ADX kernel, windowed and
// constant-time exponentiation, RSA-CRT signing, multi-lane SHA-512) is
// cross-checked against the retained reference
// implementations (crypto/bignum_ref.hpp) over seeded random operands and
// adversarial shapes: all-ones limbs, top-bit-set limbs, zero/one/modulus±1
// operands, powers of two, carry-chain stressors.
//
// The CryptoDiffTsan suite runs the same comparisons from concurrent
// threads against shared const objects; the tsan CMake preset picks those
// tests up via `ctest -R Tsan`.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/commitment.hpp"
#include "core/mtt.hpp"
#include "crypto/bignum.hpp"
#include "crypto/bignum_ref.hpp"
#include "crypto/limb.hpp"
#include "crypto/mont.hpp"
#include "crypto/mont_kernel.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha2.hpp"
#include "crypto/sha2_kernel.hpp"
#include "crypto/sha2_multi.hpp"
#include "mtt_reference.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace sc = spider::crypto;
namespace ref = spider::crypto::ref;
namespace core = spider::core;
namespace sb = spider::bgp;
using sc::BigInt;
using sc::limb_t;
using spider::util::ByteSpan;
using spider::util::Bytes;
using spider::util::Digest20;
using spider::util::SplitMix64;

namespace {

/// Operands the carry chains hate: zero, one, all-ones limbs, exact
/// top-bit-set widths, powers of two, plus plain random widths.
BigInt shaped_operand(SplitMix64& rng, std::size_t max_bits) {
  switch (rng.below(6)) {
    case 0: return BigInt{};
    case 1: return BigInt{1};
    case 2: {
      std::vector<limb_t> limbs(1 + rng.below(max_bits / 64 + 1), ~limb_t{0});
      return BigInt::from_limbs(std::move(limbs));
    }
    case 3: return BigInt::random_bits(64 * (1 + rng.below(max_bits / 64 + 1)), rng);
    case 4: return BigInt{1} << (1 + rng.below(max_bits));
    default: return BigInt::random_bits(1 + rng.below(max_bits), rng);
  }
}

BigInt odd_modulus(SplitMix64& rng, std::size_t min_bits, std::size_t max_bits) {
  BigInt m = BigInt::random_bits(min_bits + rng.below(max_bits - min_bits + 1), rng);
  if (!m.is_odd()) m = m + BigInt{1};
  if (m < BigInt{3}) m = BigInt{3};
  return m;
}

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

}  // namespace

// ------------------------------------------------------------ multiply

TEST(CryptoDiffMul, MatchesRef16OnShapedOperands) {
  SplitMix64 rng(20260807);
  for (int iter = 0; iter < 300; ++iter) {
    BigInt a = shaped_operand(rng, 512);
    BigInt b = shaped_operand(rng, 512);
    BigInt fast = a * b;
    EXPECT_EQ(fast, ref::mul_simple(a, b)) << "a=" << a.to_hex() << " b=" << b.to_hex();
    EXPECT_EQ(fast, b * a);
  }
}

TEST(CryptoDiffMul, SquaringMatchesMultiply) {
  SplitMix64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = shaped_operand(rng, 2048);
    BigInt b = a;  // distinct object so operator* can't take the sqr path
    EXPECT_EQ(a * a, a * b) << a.to_hex();
  }
}

TEST(CryptoDiffMul, KernelSqrAgainstKernelMul) {
  SplitMix64 rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    std::size_t n = 1 + rng.below(40);
    std::vector<limb_t> a(n);
    for (auto& l : a) l = rng.next();
    if (rng.below(4) == 0) a.back() = ~limb_t{0};
    std::vector<limb_t> via_sqr(2 * n), via_mul(2 * n);
    sc::lk::sqr(a.data(), n, via_sqr.data());
    sc::lk::mul(a.data(), n, a.data(), n, via_mul.data());
    EXPECT_EQ(via_sqr, via_mul);
  }
}

TEST(CryptoDiffMul, CarryChainStressor) {
  // (2^k - 1)^2 = 2^(2k) - 2^(k+1) + 1: every partial product carries.
  for (std::size_t limbs : {1u, 2u, 3u, 7u, 8u, 31u, 32u, 33u, 64u}) {
    BigInt a = (BigInt{1} << (64 * limbs)) - BigInt{1};
    BigInt expect = (BigInt{1} << (128 * limbs)) - (BigInt{1} << (64 * limbs + 1)) + BigInt{1};
    EXPECT_EQ(a * a, expect) << limbs;
    EXPECT_EQ(a * a, ref::mul_simple(a, a)) << limbs;
  }
}

// ------------------------------------------------------------ division

TEST(CryptoDiffDivMod, MatchesRef16OnShapedOperands) {
  SplitMix64 rng(314159);
  for (int iter = 0; iter < 300; ++iter) {
    BigInt u = shaped_operand(rng, 512);
    BigInt v = shaped_operand(rng, 300);
    if (v.is_zero()) v = BigInt{1};
    auto fast = u.divmod(v);
    auto slow = ref::divmod_simple(u, v);
    EXPECT_EQ(fast.quotient, slow.quotient) << "u=" << u.to_hex() << " v=" << v.to_hex();
    EXPECT_EQ(fast.remainder, slow.remainder) << "u=" << u.to_hex() << " v=" << v.to_hex();
  }
}

TEST(CryptoDiffDivMod, IdentityHoldsOnWideOperands) {
  SplitMix64 rng(5150);
  for (int iter = 0; iter < 150; ++iter) {
    BigInt u = shaped_operand(rng, 4096);
    BigInt v = shaped_operand(rng, 2048);
    if (v.is_zero()) v = BigInt{1};
    auto [q, r] = u.divmod(v);
    EXPECT_EQ(q * v + r, u);
    EXPECT_LT(r, v);
  }
}

TEST(CryptoDiffDivMod, EdgeShapes) {
  BigInt u = BigInt::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff");
  // v = 1: quotient is u.
  {
    auto [q, r] = u.divmod(BigInt{1});
    EXPECT_EQ(q, u);
    EXPECT_TRUE(r.is_zero());
  }
  // v = u: quotient 1, remainder 0.
  {
    auto [q, r] = u.divmod(u);
    EXPECT_EQ(q, BigInt{1});
    EXPECT_TRUE(r.is_zero());
  }
  // v > u: quotient 0, remainder u.
  {
    auto [q, r] = u.divmod(u + BigInt{1});
    EXPECT_TRUE(q.is_zero());
    EXPECT_EQ(r, u);
  }
  // u = 0.
  {
    auto [q, r] = BigInt{}.divmod(u);
    EXPECT_TRUE(q.is_zero());
    EXPECT_TRUE(r.is_zero());
  }
  // Power-of-two divisor: divmod must agree with shifting.
  {
    BigInt v = BigInt{1} << 100;
    auto [q, r] = u.divmod(v);
    EXPECT_EQ(q, u >> 100);
    EXPECT_EQ(r, u - ((u >> 100) << 100));
  }
  // Knuth-D q_hat overestimate territory: u just below v * 2^64.
  {
    BigInt v = (BigInt{1} << 128) - BigInt{1};
    BigInt w = (v << 64) - BigInt{1};
    auto [q, r] = w.divmod(v);
    EXPECT_EQ(q * v + r, w);
    EXPECT_LT(r, v);
    auto slow = ref::divmod_simple(w, v);
    EXPECT_EQ(q, slow.quotient);
    EXPECT_EQ(r, slow.remainder);
  }
}

// ----------------------------------------------------------- Montgomery

TEST(CryptoDiffMontgomery, RoundTripAndMulAgainstDivmod) {
  SplitMix64 rng(271828);
  for (int iter = 0; iter < 60; ++iter) {
    BigInt n = odd_modulus(rng, 65, 512);
    sc::MontCtx ctx(n);
    const std::size_t s = ctx.width();
    std::vector<limb_t> a(s, 0), b(s, 0), am(s), bm(s), prod(s), plain(s);
    std::vector<limb_t> scratch(ctx.scratch_size());

    auto fill = [&](std::vector<limb_t>& out, const BigInt& v) {
      std::fill(out.begin(), out.end(), 0);
      const auto& limbs = v.limbs();
      std::copy(limbs.begin(), limbs.end(), out.begin());
    };
    BigInt av = shaped_operand(rng, 512) % n;
    BigInt bv = shaped_operand(rng, 512) % n;
    fill(a, av);
    fill(b, bv);

    // to_mont then from_mont is the identity.
    ctx.to_mont(a.data(), am.data(), scratch.data());
    ctx.from_mont(am.data(), plain.data(), scratch.data());
    EXPECT_EQ(BigInt::from_limbs(plain), av);

    // mont_mul in the Montgomery domain is plain modular multiplication.
    ctx.to_mont(b.data(), bm.data(), scratch.data());
    ctx.mont_mul(am.data(), bm.data(), prod.data(), scratch.data());
    ctx.from_mont(prod.data(), plain.data(), scratch.data());
    EXPECT_EQ(BigInt::from_limbs(plain), (av * bv) % n)
        << "n=" << n.to_hex() << " a=" << av.to_hex() << " b=" << bv.to_hex();
  }
}

TEST(CryptoDiffMontgomery, SqrMatchesMulOnEveryWidthPath) {
  // mont_sqr dispatches to register-resident fixed-width kernels at the
  // RSA widths (4/6/8/12/16 limbs) and to a sqr-then-reduce pass
  // everywhere else; both must agree with mont_mul(a, a) exactly.
  SplitMix64 rng(314159);
  for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 13u, 16u, 17u}) {
    for (int iter = 0; iter < 10; ++iter) {
      BigInt n = odd_modulus(rng, 64 * width - 63, 64 * width);
      sc::MontCtx ctx(n);
      const std::size_t s = ctx.width();
      std::vector<limb_t> a(s, 0), via_mul(s), via_sqr(s);
      std::vector<limb_t> scratch(ctx.scratch_size());
      const BigInt av = shaped_operand(rng, 64 * width) % n;
      std::copy(av.limbs().begin(), av.limbs().end(), a.begin());
      ctx.mont_mul(a.data(), a.data(), via_mul.data(), scratch.data());
      ctx.mont_sqr(a.data(), via_sqr.data(), scratch.data());
      EXPECT_EQ(via_mul, via_sqr) << "width=" << width << " n=" << n.to_hex();
    }
  }
}

namespace {

/// Limbs of v zero-padded to exactly `width`.
std::vector<limb_t> padded_limbs(const BigInt& v, std::size_t width) {
  std::vector<limb_t> out = v.limbs();
  out.resize(width, 0);
  return out;
}

/// Runs the width-8 kernels on (a, b) — separate output, output aliasing
/// a, and both kernels as squarings (mont_sqr's width-8 path) with the
/// output aliasing the operand — and checks that they agree and that the
/// result is a*b*2^-512 mod n.
void expect_mont8_kernels_agree(const BigInt& n, const BigInt& av, const BigInt& bv) {
  const std::vector<limb_t> nl = padded_limbs(n, 8);
  const limb_t n0 = sc::detail::mont_n0(nl[0]);
  const std::vector<limb_t> a = padded_limbs(av, 8);
  const std::vector<limb_t> b = padded_limbs(bv, 8);
  std::vector<limb_t> adx(8), portable(8);
  sc::detail::mont_mul8_adx(a.data(), b.data(), nl.data(), n0, adx.data());
  sc::detail::mont_mul8_portable(a.data(), b.data(), nl.data(), n0, portable.data());
  ASSERT_EQ(adx, portable) << "mul n=" << n.to_hex() << " a=" << av.to_hex()
                           << " b=" << bv.to_hex();
  ASSERT_EQ((BigInt::from_limbs(adx) << 512) % n, (av * bv) % n) << "n=" << n.to_hex();

  std::vector<limb_t> aliased = a;
  sc::detail::mont_mul8_adx(aliased.data(), b.data(), nl.data(), n0, aliased.data());
  ASSERT_EQ(aliased, portable) << "out aliasing a, n=" << n.to_hex();

  std::vector<limb_t> sq_adx = a, sq_portable = a;
  sc::detail::mont_mul8_adx(sq_adx.data(), sq_adx.data(), nl.data(), n0, sq_adx.data());
  sc::detail::mont_mul8_portable(sq_portable.data(), sq_portable.data(), nl.data(), n0,
                                 sq_portable.data());
  ASSERT_EQ(sq_adx, sq_portable) << "sqr n=" << n.to_hex() << " a=" << av.to_hex();
  ASSERT_EQ((BigInt::from_limbs(sq_adx) << 512) % n, (av * av) % n) << "sqr n=" << n.to_hex();
}

}  // namespace

TEST(CryptoDiffMontAdx, MatchesPortableOnShapedOperands) {
  if (!sc::detail::mont_mul8_adx_supported()) GTEST_SKIP() << "CPU lacks BMI2 or ADX";
  SplitMix64 rng(5122012);
  BigInt n;
  for (int iter = 0; iter < 12000; ++iter) {
    if (iter % 100 == 0) n = odd_modulus(rng, 449, 512);
    const BigInt av = shaped_operand(rng, 512) % n;
    const BigInt bv = shaped_operand(rng, 512) % n;
    expect_mont8_kernels_agree(n, av, bv);
    if (HasFatalFailure()) return;
  }
}

TEST(CryptoDiffMontAdx, EdgeModuliAndOperands) {
  if (!sc::detail::mont_mul8_adx_supported()) GTEST_SKIP() << "CPU lacks BMI2 or ADX";
  SplitMix64 rng(1024);
  const BigInt top = BigInt{1} << 512;
  // N ≡ -1 (mod 2^64) makes n0 = 1.
  const BigInt n0_one = ((BigInt::random_bits(448, rng) << 64) + (BigInt{1} << 64)) - BigInt{1};
  ASSERT_EQ(sc::detail::mont_n0(n0_one.limbs()[0]), limb_t{1});
  for (const BigInt& n : {top - BigInt{1}, (BigInt{1} << 511) + BigInt{1}, n0_one,
                          odd_modulus(rng, 512, 512)}) {
    const BigInt nm1 = n - BigInt{1};
    std::vector<BigInt> ops = {BigInt{}, BigInt{1}, nm1, nm1 - BigInt{1}, n >> 1,
                               (BigInt{1} << 256) - BigInt{1}};
    for (int i = 0; i < 6; ++i) ops.push_back(BigInt::random_below(n, rng));
    for (const BigInt& av : ops) {
      for (const BigInt& bv : ops) {
        expect_mont8_kernels_agree(n, av, bv);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CryptoDiffMontgomery, ExpCtMatchesExp) {
  // exp_ct's ladder (fixed trip count, masked table gather, unconditional
  // multiply) against the variable-time window and the seed ladder, at
  // every fixed kernel width.
  SplitMix64 rng(7102012);
  for (std::size_t width : {4u, 6u, 8u, 12u, 16u}) {
    for (int iter = 0; iter < 3; ++iter) {
      const BigInt n = odd_modulus(rng, 64 * width - 63, 64 * width);
      const sc::MontCtx ctx(n);
      ASSERT_EQ(ctx.width(), width);
      const BigInt all_ones = (BigInt{1} << (64 * width)) - BigInt{1};
      for (const BigInt& e : {BigInt{}, BigInt{1}, all_ones, n - BigInt{2}}) {
        for (const BigInt& base : {shaped_operand(rng, 64 * width), n - BigInt{1}}) {
          const BigInt ct = ctx.exp_ct(base, e);
          EXPECT_EQ(ct, ctx.exp(base, e)) << "width=" << width << " e=" << e.to_hex();
          EXPECT_EQ(ct, ref::mod_exp32(base, e, n))
              << "width=" << width << " n=" << n.to_hex() << " b=" << base.to_hex()
              << " e=" << e.to_hex();
        }
      }
    }
  }
}

TEST(CryptoDiffMontgomery, ExpMatchesRef32) {
  SplitMix64 rng(161803);
  for (int iter = 0; iter < 40; ++iter) {
    BigInt n = odd_modulus(rng, 64, 512);
    BigInt base = shaped_operand(rng, 600);
    BigInt e = shaped_operand(rng, 256);
    EXPECT_EQ(sc::MontCtx(n).exp(base, e), ref::mod_exp32(base, e, n))
        << "n=" << n.to_hex() << " b=" << base.to_hex() << " e=" << e.to_hex();
  }
}

TEST(CryptoDiffMontgomery, ExpMatchesRef16OnSmallOperands) {
  SplitMix64 rng(66);
  for (int iter = 0; iter < 30; ++iter) {
    BigInt n = odd_modulus(rng, 8, 96);
    BigInt base = BigInt::random_bits(1 + rng.below(96), rng);
    BigInt e = BigInt::random_bits(1 + rng.below(32), rng);
    EXPECT_EQ(sc::MontCtx(n).exp(base, e), ref::mod_exp_simple(base, e, n));
  }
}

TEST(CryptoDiffMontgomery, ExpEdgeOperands) {
  SplitMix64 rng(9);
  BigInt n = odd_modulus(rng, 128, 128);
  sc::MontCtx ctx(n);
  EXPECT_EQ(ctx.exp(BigInt{}, BigInt{5}), BigInt{});          // 0^e = 0
  EXPECT_EQ(ctx.exp(BigInt{7}, BigInt{}), BigInt{1});         // b^0 = 1
  EXPECT_EQ(ctx.exp(BigInt{}, BigInt{}), BigInt{1});          // 0^0 = 1 by convention
  EXPECT_EQ(ctx.exp(BigInt{1}, BigInt{1} << 200), BigInt{1});
  EXPECT_EQ(ctx.exp(n, BigInt{3}), BigInt{});                 // base = modulus
  BigInt nm1 = n - BigInt{1};
  EXPECT_EQ(ctx.exp(nm1, BigInt{2}), BigInt{1});              // (-1)^2
  EXPECT_EQ(ctx.exp(nm1, BigInt{3}), nm1);                    // (-1)^3
  EXPECT_EQ(ctx.exp(n + BigInt{5}, BigInt{4}), ref::mod_exp32(BigInt{5}, BigInt{4}, n));
}

TEST(CryptoDiffMontgomery, RejectsBadModuli) {
  EXPECT_THROW(sc::MontCtx(BigInt{}), std::domain_error);
  EXPECT_THROW(sc::MontCtx(BigInt{1}), std::domain_error);
  EXPECT_THROW(sc::MontCtx(BigInt{4}), std::domain_error);
  EXPECT_THROW(sc::MontCtx(BigInt{1} << 64), std::domain_error);
}

// ------------------------------------------------------------------ RSA

namespace {

const sc::RsaPrivateKey& small_test_key() {
  // 768 bits is the smallest practical size: PKCS#1 v1.5 over SHA-512
  // needs em_len >= 83 + 11 = 94 bytes, i.e. a 752-bit modulus.
  static const sc::RsaPrivateKey key = [] {
    SplitMix64 rng(424242);
    return sc::rsa_generate(768, rng);
  }();
  return key;
}

const sc::RsaPrivateKey& full_test_key() {
  static const sc::RsaPrivateKey key = [] {
    SplitMix64 rng(20120813);  // same seed the pinned-signature tests use
    return sc::rsa_generate(1024, rng);
  }();
  return key;
}

}  // namespace

TEST(CryptoDiffRsa, SignMatchesSeedEngineAndNoCrt) {
  for (const sc::RsaPrivateKey* key : {&small_test_key(), &full_test_key()}) {
    SplitMix64 rng(1);
    for (int iter = 0; iter < 8; ++iter) {
      Bytes msg(rng.below(200), 0);
      for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
      Bytes fast = sc::rsa_sign(*key, msg);
      EXPECT_EQ(fast, ref::rsa_sign_seed(*key, msg));
      EXPECT_EQ(fast, ref::rsa_sign_nocrt(*key, msg));
      EXPECT_TRUE(sc::rsa_verify(key->public_key(), msg, fast));
      EXPECT_TRUE(ref::rsa_verify_seed(key->public_key(), msg, fast));
    }
  }
}

TEST(CryptoDiffRsa, TamperedSignaturesRejectedByBothVerifiers) {
  const auto& key = small_test_key();
  Bytes msg = to_bytes("diff battery tamper check");
  Bytes sig = sc::rsa_sign(key, msg);
  for (std::size_t pos : {std::size_t{0}, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[pos] ^= 1;
    EXPECT_FALSE(sc::rsa_verify(key.public_key(), msg, bad));
    EXPECT_FALSE(ref::rsa_verify_seed(key.public_key(), msg, bad));
  }
  Bytes other = to_bytes("a different message");
  EXPECT_FALSE(sc::rsa_verify(key.public_key(), other, sig));
  EXPECT_FALSE(ref::rsa_verify_seed(key.public_key(), other, sig));
}

// -------------------------------------------------------------- SHA-512

TEST(CryptoDiffSha512, BatchMatchesScalarAcrossPaddingBoundaries) {
  // 110..113 and 238..241 straddle the one/two and two/three padded-block
  // boundaries; the rest sweep the first few block sizes.
  std::vector<std::size_t> lens;
  for (std::size_t l = 0; l <= 130; ++l) lens.push_back(l);
  for (std::size_t l : {238u, 239u, 240u, 241u, 255u, 256u, 257u, 300u, 512u, 600u}) {
    lens.push_back(l);
  }
  SplitMix64 rng(8675309);
  std::vector<Bytes> msgs;
  for (std::size_t l : lens) {
    Bytes m(l, 0);
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.next());
    msgs.push_back(std::move(m));
  }
  std::vector<ByteSpan> spans;
  for (const auto& m : msgs) spans.push_back(ByteSpan{m.data(), m.size()});
  std::vector<sc::Sha512::Digest> outs(spans.size());
  sc::sha512_batch(spans.data(), spans.size(), outs.data());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(outs[i], sc::Sha512::hash(spans[i])) << "len=" << lens[i];
  }
}

TEST(CryptoDiffSha512, ShuffledLengthsDefeatGrouping) {
  // Interleave lengths so runs of equal padded-block counts are short and
  // the batcher constantly switches between lane groups and scalar.
  SplitMix64 rng(24601);
  std::vector<Bytes> msgs;
  for (int i = 0; i < 200; ++i) {
    Bytes m(rng.below(300), 0);
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.next());
    msgs.push_back(std::move(m));
  }
  std::vector<ByteSpan> spans;
  for (const auto& m : msgs) spans.push_back(ByteSpan{m.data(), m.size()});
  std::vector<sc::Sha512::Digest> outs(spans.size());
  sc::sha512_batch(spans.data(), spans.size(), outs.data());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(outs[i], sc::Sha512::hash(spans[i])) << i;
  }
}

TEST(CryptoDiffSha512, Digest20BatchMatchesScalar) {
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < 100; ++i) msgs.emplace_back(41, static_cast<std::uint8_t>(i));
  std::vector<ByteSpan> spans;
  for (const auto& m : msgs) spans.push_back(ByteSpan{m.data(), m.size()});
  std::vector<Digest20> outs(spans.size());
  sc::digest20_batch(spans.data(), spans.size(), outs.data());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(outs[i], sc::digest20(spans[i])) << i;
  }
}

TEST(CryptoDiffSha512, EmptyAndSingletonBatches) {
  sc::sha512_batch(nullptr, 0, nullptr);  // must be a no-op
  Bytes m = to_bytes("one lonely message");
  ByteSpan span{m.data(), m.size()};
  sc::Sha512::Digest out;
  sc::sha512_batch(&span, 1, &out);
  EXPECT_EQ(out, sc::Sha512::hash(span));
}

TEST(CryptoDiffSha512, FixedLengthLanePathMatchesScalar) {
  // Every one-block length, at batch sizes around the lane width and the
  // per-call group count, so full groups, short final groups and a lone
  // message all run.
  SplitMix64 rng(4242);
  for (std::size_t len = 0; len <= sc::kSha512OneBlockMax; ++len) {
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
      Bytes packed(std::max<std::size_t>(1, n * len), 0);
      for (auto& byte : packed) byte = static_cast<std::uint8_t>(rng.next());
      std::vector<Digest20> outs(n + 1);
      const Digest20 canary = sc::digest20(ByteSpan{packed.data(), 1});
      outs[n] = canary;
      sc::digest20_batch(packed.data(), len, n, outs.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(outs[i], sc::digest20(ByteSpan{packed.data() + i * len, len}))
            << "len=" << len << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(outs[n], canary) << "wrote past the batch, len=" << len << " n=" << n;
    }
  }
}

TEST(CryptoDiffSha512, FixedLengthFullDigestMatchesScalarAtEveryWidth) {
  // The full-digest form of the fixed-length feed (the PRF's path), run on
  // every backend this host has: batch sizes around both lane widths, so
  // full groups, short final groups and a lone message all run, at the
  // empty, PRF (41-byte) and longest one-block lengths.
  SplitMix64 rng(5150);
  std::size_t widths_run = 0;
  for (std::size_t lanes : {1u, 4u, 8u}) {
    bool supported = true;
    for (std::size_t len : {0u, 41u, 111u}) {
      for (std::size_t n : {1u, 7u, 8u, 9u, 65u}) {
        Bytes packed(std::max<std::size_t>(1, n * len), 0);
        for (auto& byte : packed) byte = static_cast<std::uint8_t>(rng.next());
        std::vector<sc::Sha512::Digest> outs(n + 1);
        const sc::Sha512::Digest canary = sc::Sha512::hash(ByteSpan{packed.data(), 1});
        outs[n] = canary;
        supported = sc::detail::sha512_batch_fixed_on(lanes, packed.data(), len, n, outs.data());
        if (!supported) break;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(outs[i], sc::Sha512::hash(ByteSpan{packed.data() + i * len, len}))
              << "lanes=" << lanes << " len=" << len << " n=" << n << " i=" << i;
        }
        EXPECT_EQ(outs[n], canary) << "wrote past the batch, lanes=" << lanes << " n=" << n;
      }
      if (!supported) break;
    }
    if (supported) ++widths_run;
  }
  // The scalar width always runs, and so does the width sha512_lanes()
  // reports as the fastest.
  EXPECT_GE(widths_run, sc::sha512_lanes() == 1 ? 1u : 2u);
  // The public entry point takes the same path on the fastest backend.
  Bytes packed(41 * 9, 0);
  for (auto& byte : packed) byte = static_cast<std::uint8_t>(rng.next());
  std::vector<sc::Sha512::Digest> outs(9);
  sc::sha512_batch_fixed(packed.data(), 41, 9, outs.data());
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(outs[i], sc::Sha512::hash(ByteSpan{packed.data() + i * 41, 41})) << i;
  }
}

TEST(CryptoDiffSha512, FixedLengthLanePathRejectsMultiBlockLengths) {
  Bytes packed(2 * (sc::kSha512OneBlockMax + 1), 0);
  Digest20 outs[2];
  EXPECT_THROW(sc::digest20_batch(packed.data(), sc::kSha512OneBlockMax + 1, 2, outs),
               std::invalid_argument);
  sc::Sha512::Digest full[2];
  EXPECT_THROW(sc::sha512_batch_fixed(packed.data(), sc::kSha512OneBlockMax + 1, 2, full),
               std::invalid_argument);
}

TEST(CryptoDiffSha512, StreamingSplitAtEveryOffsetMatchesOneShot) {
  // Two-part streaming at every split point, across the one/two/three
  // block padding boundaries of both hashes.  SHA-512 is also checked
  // against the lane batcher, whose padding code is independent.
  SplitMix64 rng(1701);
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes m(len, 0);
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.next());
    const ByteSpan whole{m.data(), m.size()};
    const sc::Sha512::Digest one_shot512 = sc::Sha512::hash(whole);
    const sc::Sha256::Digest one_shot256 = sc::Sha256::hash(whole);
    const ByteSpan pair[2] = {whole, whole};
    sc::Sha512::Digest lanes[2];
    sc::sha512_batch(pair, 2, lanes);
    ASSERT_EQ(lanes[0], one_shot512) << "len=" << len;
    for (std::size_t split = 0; split <= len; ++split) {
      const ByteSpan head{m.data(), split};
      const ByteSpan tail{m.data() + split, len - split};
      sc::Sha512 h512;
      h512.update(head);
      h512.update(tail);
      ASSERT_EQ(h512.finish(), one_shot512) << "len=" << len << " split=" << split;
      sc::Sha256 h256;
      h256.update(head);
      h256.update(tail);
      ASSERT_EQ(h256.finish(), one_shot256) << "len=" << len << " split=" << split;
    }
  }
}

#if !defined(SPIDER_OBS_DISABLED)
TEST(CryptoDiffSha512, LanePathsCountLikeScalar) {
  // The lane paths count once per call; the totals must equal what the
  // scalar class reports digest by digest.
  auto counters = [] {
    auto snap = spider::obs::MetricsRegistry::instance().snapshot();
    auto get = [&](const char* name) -> std::uint64_t {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    return std::pair{get("crypto/sha512_digests"), get("crypto/sha512_bytes")};
  };
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < 37; ++i) msgs.emplace_back(i * 9, static_cast<std::uint8_t>(i));
  std::vector<ByteSpan> spans;
  for (const auto& m : msgs) spans.push_back(ByteSpan{m.data(), m.size()});
  Bytes packed(41 * 19, 7);

  auto before = counters();
  for (const auto& span : spans) (void)sc::digest20(span);
  for (std::size_t i = 0; i < 19; ++i) (void)sc::digest20(ByteSpan{packed.data() + 41 * i, 41});
  for (std::size_t i = 0; i < 19; ++i) (void)sc::Sha512::hash(ByteSpan{packed.data() + 41 * i, 41});
  auto scalar = counters();
  std::vector<Digest20> outs(spans.size());
  sc::digest20_batch(spans.data(), spans.size(), outs.data());
  sc::digest20_batch(packed.data(), 41, 19, outs.data());
  std::vector<sc::Sha512::Digest> full(19);
  sc::sha512_batch_fixed(packed.data(), 41, 19, full.data());
  auto lanes = counters();

  EXPECT_EQ(scalar.first - before.first, lanes.first - scalar.first);
  EXPECT_EQ(scalar.second - before.second, lanes.second - scalar.second);
}
#endif

// ------------------------------------------------- batched label paths

TEST(CryptoDiffLabels, Derive3WindowsAreTheScalarDigest) {
  // Known answer by definition: derive3(domain, index) is SHA-512(seed ||
  // domain || be64(index)) cut at bytes 0, 20 and 40; bytes 60..63 are
  // dropped.
  sc::Seed seed;
  for (std::size_t i = 0; i < seed.data.size(); ++i) seed.data[i] = static_cast<std::uint8_t>(i);
  const sc::CommitmentPrf prf(seed);
  const std::uint64_t index = 0x0102030405060708ULL;
  for (auto [domain, byte] : {std::pair{sc::CommitmentPrf::Domain::kBit, 'x'},
                              std::pair{sc::CommitmentPrf::Domain::kDummy, 'd'}}) {
    Bytes msg(seed.data.begin(), seed.data.end());
    msg.push_back(static_cast<std::uint8_t>(byte));
    for (std::uint8_t b = 1; b <= 8; ++b) msg.push_back(b);
    const sc::Sha512::Digest full = sc::Sha512::hash(ByteSpan{msg.data(), msg.size()});
    const sc::PrfTriple triple = prf.derive3(domain, index);
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_TRUE(std::equal(triple[w].begin(), triple[w].end(), full.begin() + 20 * w))
          << byte << " window " << w;
    }
    EXPECT_EQ(triple, spider::test::reference_derive3(seed, domain, index)) << byte;
  }
}

TEST(CryptoDiffLabels, PrfBatchMatchesScalar) {
  sc::CommitmentPrf prf(sc::seed_from_string("diff-prf"));
  std::vector<std::uint64_t> indices = {0, 1, 2, 63, 64, 1000000, ~std::uint64_t{0}};
  std::vector<sc::PrfTriple> outs(indices.size());
  prf.derive3_batch(sc::CommitmentPrf::Domain::kBit, indices.data(), indices.size(), outs.data());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(outs[i], prf.derive3(sc::CommitmentPrf::Domain::kBit, indices[i])) << indices[i];
  }
}

TEST(CryptoDiffLabels, DummyPrfBatchMatchesScalar) {
  sc::CommitmentPrf prf(sc::seed_from_string("diff-dummy"));
  SplitMix64 rng(99);
  std::vector<std::uint64_t> indices = {0, 1, 2, 63, 64, 1000000, ~std::uint64_t{0}};
  for (int i = 0; i < 140; ++i) indices.push_back(rng.next());
  std::vector<sc::PrfTriple> outs(indices.size());
  prf.derive3_batch(sc::CommitmentPrf::Domain::kDummy, indices.data(), indices.size(),
                    outs.data());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(outs[i], prf.derive3(sc::CommitmentPrf::Domain::kDummy, indices[i])) << indices[i];
    const sc::PrfTriple bit = prf.derive3(sc::CommitmentPrf::Domain::kBit, indices[i]);
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_NE(outs[i][w], bit[w]) << "domains must stay separate, index " << indices[i];
    }
  }
}

TEST(CryptoDiffLabels, LeafHashBatchMatchesScalar) {
  SplitMix64 rng(13);
  std::vector<std::uint8_t> bits(150);
  std::vector<Digest20> xs(bits.size()), outs(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint8_t>(rng.below(2));
    for (auto& byte : xs[i]) byte = static_cast<std::uint8_t>(rng.next());
  }
  core::bit_leaf_hash_batch(bits.data(), xs.data(), bits.size(), outs.data());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(outs[i], core::bit_leaf_hash(bits[i] != 0, xs[i])) << i;
  }
}

namespace {

using MttEntries = std::vector<std::pair<sb::Prefix, std::vector<bool>>>;

MttEntries random_entries(SplitMix64& rng, int count, std::uint32_t k, std::uint8_t min_len,
                          std::uint8_t max_len) {
  MttEntries entries;
  for (int i = 0; i < count; ++i) {
    std::uint32_t addr = static_cast<std::uint32_t>(rng.next());
    std::uint8_t len = static_cast<std::uint8_t>(min_len + rng.below(max_len - min_len + 1u));
    sb::Prefix p{addr, len};
    bool dup = false;
    for (const auto& e : entries) dup = dup || e.first == p;
    if (dup) continue;
    std::vector<bool> bits(k);
    for (std::uint32_t c = 0; c < k; ++c) bits[c] = rng.below(2) == 1;
    entries.emplace_back(p, bits);
  }
  return entries;
}

/// Labels `entries` at one and at four threads and checks both trees'
/// roots and hash counts against the test-only reference labeler; proofs
/// from the two trees must be byte-identical and open against the
/// reference root.
void expect_labeling_matches_reference(const MttEntries& entries, std::uint32_t k) {
  sc::CommitmentPrf prf(sc::seed_from_string("diff-mtt"));
  const auto reference = spider::test::mtt_reference_label(entries, prf);
  auto serial = core::Mtt::build(entries, k);
  serial.compute_labels(prf, /*threads=*/1);
  auto threaded = core::Mtt::build(entries, k);
  threaded.compute_labels(prf, /*threads=*/4);
  for (const core::Mtt* tree : {&serial, &threaded}) {
    ASSERT_EQ(tree->root_label(), reference.root);
    ASSERT_EQ(tree->last_label_hashes(), reference.hashes);
  }

  const std::vector<core::ClassId> classes = {0, k - 1};
  for (std::size_t i = 0; i < entries.size(); i += 7) {
    const auto proof = serial.prove(prf, entries[i].first, classes);
    EXPECT_EQ(proof.encode(), threaded.prove(prf, entries[i].first, classes).encode());
    EXPECT_TRUE(core::Mtt::verify(reference.root, k, proof));
  }
}

}  // namespace

TEST(CryptoDiffLabels, MttMultilaneLabelingMatchesScalar) {
  SplitMix64 rng(77);
  const std::uint32_t k = 13;
  // Mixed lengths: a moderately dense trie.
  expect_labeling_matches_reference(random_entries(rng, 85, k, 8, 24), k);
  // Sparse /24s: long single-child spines, so nearly every inner node has
  // two dummy children and the dummy PRF batch carries most of the pass;
  // 150 prefixes put more than one lane chunk at each deep level.
  expect_labeling_matches_reference(random_entries(rng, 150, k, 24, 24), k);
  // Large enough that four threads shard both the prefix phase and the
  // deep inner levels.
  expect_labeling_matches_reference(random_entries(rng, 2000, k, 8, 24), k);
  // The empty tree: a root over three dummies.
  expect_labeling_matches_reference({}, k);
  // Both trie extremes: a prefix at the root's E edge and /32s at the
  // deepest level.
  MttEntries extremes = random_entries(rng, 10, k, 0, 32);
  for (const auto& prefix : {sb::Prefix{0, 0}, sb::Prefix{0, 32}, sb::Prefix{0xffffffffu, 32},
                             sb::Prefix{0x0a010203u, 32}}) {
    if (std::any_of(extremes.begin(), extremes.end(),
                    [&](const auto& e) { return e.first == prefix; })) {
      continue;
    }
    std::vector<bool> bits(k);
    for (std::uint32_t c = 0; c < k; ++c) bits[c] = rng.below(2) == 1;
    extremes.emplace_back(prefix, bits);
  }
  expect_labeling_matches_reference(extremes, k);
}

// -------------------------------------------------------- concurrency

// Shared const crypto objects used from many threads at once: signing,
// windowed exponentiation and batched hashing hold no hidden mutable
// state, so results must be identical and TSan must stay quiet.
TEST(CryptoDiffTsan, ConcurrentSignExpAndBatchHashOnSharedObjects) {
  const auto& key = small_test_key();
  const sc::RsaPublicKey pub = key.public_key();
  SplitMix64 seed_rng(3141);
  const BigInt n = [&] {
    BigInt m = BigInt::random_bits(256, seed_rng);
    return m.is_odd() ? m : m + BigInt{1};
  }();
  const sc::MontCtx ctx(n);
  const sc::CommitmentPrf prf(sc::seed_from_string("tsan-prf"));
  // RSA-1024: its CRT halves run on the width-8 kernel.
  const sc::RsaSigner signer(full_test_key());
  const sc::RsaVerifier verifier(full_test_key().public_key());

  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        Bytes msg(32, 0);
        for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
        Bytes sig = sc::rsa_sign(key, msg);
        if (sig != ref::rsa_sign_seed(key, msg)) failures[static_cast<std::size_t>(t)]++;
        if (!sc::rsa_verify(pub, msg, sig)) failures[static_cast<std::size_t>(t)]++;
        Bytes full_sig = signer.sign(msg);
        if (full_sig != ref::rsa_sign_seed(full_test_key(), msg)) {
          failures[static_cast<std::size_t>(t)]++;
        }
        if (!verifier.verify(msg, full_sig)) failures[static_cast<std::size_t>(t)]++;

        BigInt base = BigInt::random_bits(200, rng);
        BigInt e = BigInt::random_bits(48, rng);
        if (ctx.exp(base, e) != ref::mod_exp32(base, e, n)) failures[static_cast<std::size_t>(t)]++;

        std::uint64_t indices[16];
        sc::PrfTriple outs[16];
        for (std::uint64_t j = 0; j < 16; ++j) indices[j] = rng.next();
        prf.derive3_batch(sc::CommitmentPrf::Domain::kBit, indices, 16, outs);
        for (std::uint64_t j = 0; j < 16; ++j) {
          if (outs[j] != prf.derive3(sc::CommitmentPrf::Domain::kBit, indices[j])) {
            failures[static_cast<std::size_t>(t)]++;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << t;
}

TEST(CryptoDiffTsan, ConcurrentMultilaneMttLabelingIsDeterministic) {
  std::vector<std::pair<sb::Prefix, std::vector<bool>>> entries;
  SplitMix64 rng(555);
  const std::uint32_t k = 5;
  for (std::uint32_t i = 0; i < 400; ++i) {
    sb::Prefix p{static_cast<std::uint32_t>(i) << 12, 20};
    std::vector<bool> bits(k);
    for (std::uint32_t c = 0; c < k; ++c) bits[c] = rng.below(2) == 1;
    entries.emplace_back(p, bits);
  }
  sc::CommitmentPrf prf(sc::seed_from_string("tsan-mtt"));
  auto serial = core::Mtt::build(entries, k);
  serial.compute_labels(prf, 1);
  auto threaded = core::Mtt::build(entries, k);
  threaded.compute_labels(prf, 4);
  EXPECT_EQ(serial.root_label(), threaded.root_label());
  EXPECT_EQ(serial.last_label_hashes(), threaded.last_label_hashes());
}
