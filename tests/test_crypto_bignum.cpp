// Bignum arithmetic: known-answer tests plus randomized algebraic
// property sweeps (the substrate under RSA-1024).
#include <gtest/gtest.h>

#include "crypto/bignum.hpp"
#include "util/rng.hpp"

namespace sc = spider::crypto;
using sc::BigInt;

TEST(BigInt, ZeroBasics) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z, BigInt{0});
}

TEST(BigInt, SmallValues) {
  BigInt v{0x1234567890abcdefULL};
  EXPECT_EQ(v.to_hex(), "1234567890abcdef");
  EXPECT_EQ(v.bit_length(), 61u);
  EXPECT_TRUE(v.is_odd());
}

TEST(BigInt, HexRoundtrip) {
  const std::string h = "deadbeefcafebabe0123456789abcdef00ff";
  EXPECT_EQ(BigInt::from_hex(h).to_hex(), h);
}

TEST(BigInt, OddLengthHex) { EXPECT_EQ(BigInt::from_hex("abc").to_hex(), "abc"); }

TEST(BigInt, BytesRoundtripWithPadding) {
  BigInt v{0xabcd};
  auto b = v.to_bytes_be(8);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b[6], 0xab);
  EXPECT_EQ(b[7], 0xcd);
  EXPECT_EQ(BigInt::from_bytes_be(b), v);
}

TEST(BigInt, AdditionCarries) {
  BigInt a = BigInt::from_hex("ffffffffffffffffffffffff");
  BigInt one{1};
  EXPECT_EQ((a + one).to_hex(), "1000000000000000000000000");
}

TEST(BigInt, SubtractionBorrows) {
  BigInt a = BigInt::from_hex("1000000000000000000000000");
  BigInt one{1};
  EXPECT_EQ((a - one).to_hex(), "ffffffffffffffffffffffff");
}

TEST(BigInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt{1} - BigInt{2}, std::domain_error);
}

TEST(BigInt, MultiplicationKnownAnswer) {
  BigInt a = BigInt::from_hex("fedcba9876543210");
  BigInt b = BigInt::from_hex("123456789abcdef");
  EXPECT_EQ((a * b).to_hex(), "121fa00ad77d7422236d88fe5618cf0");
}

TEST(BigInt, MultiplyByZero) {
  BigInt a = BigInt::from_hex("deadbeef");
  EXPECT_TRUE((a * BigInt{}).is_zero());
}

TEST(BigInt, ShiftLeftRightInverse) {
  BigInt a = BigInt::from_hex("deadbeefcafebabe");
  for (std::size_t s : {1u, 7u, 31u, 32u, 33u, 100u}) {
    EXPECT_EQ((a << s) >> s, a) << "shift " << s;
  }
}

TEST(BigInt, ShiftLeftMultipliesByPowerOfTwo) {
  BigInt a{5};
  EXPECT_EQ(a << 3, BigInt{40});
  EXPECT_EQ(a << 32, BigInt{5} * BigInt{1ULL << 32});
}

TEST(BigInt, DivModKnownAnswer) {
  BigInt a = BigInt::from_hex("121fa00ad77d7422236d88fe5618cf0");
  BigInt b = BigInt::from_hex("123456789abcdef");
  auto [q, r] = a.divmod(b);
  EXPECT_EQ(q.to_hex(), "fedcba9876543210");
  EXPECT_TRUE(r.is_zero());
}

TEST(BigInt, DivByZeroThrows) { EXPECT_THROW(BigInt{1}.divmod(BigInt{}), std::domain_error); }

TEST(BigInt, DivSmallerDividend) {
  auto [q, r] = BigInt{5}.divmod(BigInt{7});
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, BigInt{5});
}

TEST(BigInt, SingleLimbDivision) {
  BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  auto [q, r] = a.divmod(BigInt{10});
  EXPECT_EQ(q * BigInt{10} + r, a);
  EXPECT_LT(r, BigInt{10});
}

// Property: (q * b + r == a) and (r < b) for random operands of mixed sizes.
TEST(BigInt, DivModPropertyRandomized) {
  spider::util::SplitMix64 rng(1234);
  for (int iter = 0; iter < 300; ++iter) {
    std::size_t abits = 1 + rng.below(512);
    std::size_t bbits = 1 + rng.below(300);
    BigInt a = BigInt::random_bits(abits, rng);
    BigInt b = BigInt::random_bits(bbits, rng);
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

// Property: addition/subtraction are inverses; multiplication distributes.
TEST(BigInt, RingPropertiesRandomized) {
  spider::util::SplitMix64 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = BigInt::random_bits(1 + rng.below(256), rng);
    BigInt b = BigInt::random_bits(1 + rng.below(256), rng);
    BigInt c = BigInt::random_bits(1 + rng.below(128), rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST(BigInt, ModExpSmallKnownAnswers) {
  EXPECT_EQ(BigInt{2}.mod_exp(BigInt{10}, BigInt{1000}), BigInt{24});
  EXPECT_EQ(BigInt{3}.mod_exp(BigInt{0}, BigInt{7}), BigInt{1});
  EXPECT_EQ(BigInt{5}.mod_exp(BigInt{1}, BigInt{7}), BigInt{5});
  // Fermat: a^(p-1) = 1 mod p
  EXPECT_EQ(BigInt{12345}.mod_exp(BigInt{65536}, BigInt{65537}), BigInt{1});
}

TEST(BigInt, ModExpEvenModulus) {
  // Exercise the non-Montgomery fallback.
  EXPECT_EQ(BigInt{3}.mod_exp(BigInt{5}, BigInt{100}), BigInt{43});
  EXPECT_EQ(BigInt{7}.mod_exp(BigInt{13}, BigInt{64}), BigInt{7 * 7}.mod_exp(BigInt{6}, BigInt{64}) * BigInt{7} % BigInt{64});
}

// Property: Montgomery path agrees with naive square-and-multiply.
TEST(BigInt, ModExpMatchesNaiveRandomized) {
  spider::util::SplitMix64 rng(777);
  for (int iter = 0; iter < 50; ++iter) {
    BigInt base = BigInt::random_bits(1 + rng.below(128), rng);
    BigInt exp = BigInt::random_bits(1 + rng.below(64), rng);
    BigInt mod = BigInt::random_bits(2 + rng.below(128), rng);
    if (!mod.is_odd()) mod = mod + BigInt{1};
    if (mod < BigInt{3}) mod = BigInt{3};

    BigInt naive{1};
    BigInt b = base % mod;
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      naive = (naive * naive) % mod;
      if (exp.bit(i)) naive = (naive * b) % mod;
    }
    EXPECT_EQ(base.mod_exp(exp, mod), naive);
  }
}

TEST(BigInt, ModInverseKnownAnswer) {
  EXPECT_EQ(BigInt{3}.mod_inverse(BigInt{7}), BigInt{5});  // 3*5 = 15 = 1 mod 7
  EXPECT_EQ(BigInt{65537}.mod_inverse(BigInt::from_hex("100000000")),
            BigInt{65537}.mod_inverse(BigInt::from_hex("100000000")));
}

TEST(BigInt, ModInversePropertyRandomized) {
  spider::util::SplitMix64 rng(555);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt mod = BigInt::random_bits(16 + rng.below(200), rng);
    if (!mod.is_odd()) mod = mod + BigInt{1};
    BigInt a = BigInt::random_bits(8 + rng.below(100), rng);
    if (BigInt::gcd(a, mod) != BigInt{1}) continue;
    BigInt inv = a.mod_inverse(mod);
    EXPECT_EQ((a * inv) % mod, BigInt{1});
    EXPECT_LT(inv, mod);
  }
}

TEST(BigInt, ModInverseNotInvertibleThrows) {
  EXPECT_THROW(BigInt{6}.mod_inverse(BigInt{9}), std::domain_error);
  EXPECT_THROW(BigInt{0}.mod_inverse(BigInt{7}), std::domain_error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt{48}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{17}, BigInt{5}), BigInt{1});
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}), BigInt{5});
}

TEST(BigInt, RandomBitsExactLength) {
  spider::util::SplitMix64 rng(31337);
  for (std::size_t bits : {8u, 31u, 32u, 33u, 100u, 512u}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(BigInt::random_bits(bits, rng).bit_length(), bits);
    }
  }
}

TEST(BigInt, RandomBelowInRange) {
  spider::util::SplitMix64 rng(4242);
  BigInt bound = BigInt::from_hex("10000000000000001");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(BigInt::random_below(bound, rng), bound);
  }
}

TEST(Primality, SmallPrimes) {
  spider::util::SplitMix64 rng(1);
  for (std::uint32_t p : {2u, 3u, 5u, 7u, 11u, 101u, 257u, 65537u}) {
    EXPECT_TRUE(sc::is_probable_prime(BigInt{p}, 10, rng)) << p;
  }
}

TEST(Primality, SmallComposites) {
  spider::util::SplitMix64 rng(2);
  for (std::uint32_t c : {1u, 4u, 9u, 15u, 91u, 561u, 6601u, 41041u}) {  // incl. Carmichael numbers
    EXPECT_FALSE(sc::is_probable_prime(BigInt{c}, 10, rng)) << c;
  }
}

TEST(Primality, KnownLargePrime) {
  spider::util::SplitMix64 rng(3);
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt{1} << 127) - BigInt{1};
  EXPECT_TRUE(sc::is_probable_prime(m127, 15, rng));
  // 2^128 - 1 is famously composite.
  BigInt m128 = (BigInt{1} << 128) - BigInt{1};
  EXPECT_FALSE(sc::is_probable_prime(m128, 15, rng));
}

TEST(Primality, GeneratePrimeHasExactBitsAndIsOdd) {
  spider::util::SplitMix64 rng(8);
  for (std::size_t bits : {64u, 96u, 128u}) {
    BigInt p = sc::generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(sc::is_probable_prime(p, 10, rng));
  }
}

// Large-operand multiplies (16..96 limbs, well past anything RSA-1024
// needs) checked through division and distributivity; the names recall
// the Karatsuba branch these once covered.
TEST(BigInt, KaratsubaMatchesSchoolbookRandomized) {
  spider::util::SplitMix64 rng(271828);
  for (int iter = 0; iter < 40; ++iter) {
    std::size_t abits = 1024 + rng.below(5120);  // 16..96 64-bit limbs
    std::size_t bbits = 1024 + rng.below(5120);
    BigInt a = BigInt::random_bits(abits, rng);
    BigInt b = BigInt::random_bits(bbits, rng);
    BigInt product = a * b;
    // Verify with the division identity instead of re-multiplying.
    auto [q, r] = product.divmod(a);
    EXPECT_EQ(q, b);
    EXPECT_TRUE(r.is_zero());
    // And distributivity across a random split of b.
    BigInt c = BigInt::random_bits(512, rng);
    EXPECT_EQ(a * (b + c), product + a * c);
  }
}

TEST(BigInt, KaratsubaAsymmetricOperands) {
  spider::util::SplitMix64 rng(3);
  BigInt big = BigInt::random_bits(4096, rng);
  BigInt small{12345};
  auto [q, r] = (big * small).divmod(small);
  EXPECT_EQ(q, big);
  EXPECT_TRUE(r.is_zero());
}

TEST(BigInt, KaratsubaThresholdBoundary) {
  // Exactly at and around 32 64-bit limbs (2048 bits).
  spider::util::SplitMix64 rng(5);
  for (std::size_t bits : {2047u, 2048u, 2049u, 4095u, 4096u}) {
    BigInt a = BigInt::random_bits(bits, rng);
    BigInt b = BigInt::random_bits(bits, rng);
    auto [q, r] = (a * b).divmod(b);
    EXPECT_EQ(q, a) << bits;
    EXPECT_TRUE(r.is_zero()) << bits;
  }
}

// --------------------------------------------------------------------------
// Algebraic laws over the limb-array engine.  Each law relates at least two
// independent kernels (add/sub, mul/divmod, shift/mul), so a bug in one is
// caught by its partner rather than cancelling out.
namespace {
BigInt law_operand(spider::util::SplitMix64& rng) {
  switch (rng.below(5)) {
    case 0: return BigInt{};
    case 1: return BigInt{1};
    case 2: {
      // All-ones limbs: the worst case for every carry chain.
      return (BigInt{1} << (64 * (1 + rng.below(10)))) - BigInt{1};
    }
    case 3: return BigInt{1} << (1 + rng.below(400));
    default: return BigInt::random_bits(1 + rng.below(640), rng);
  }
}
}  // namespace

TEST(BignumLaws, AdditionAssociativeAndCommutative) {
  spider::util::SplitMix64 rng(1001);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = law_operand(rng), b = law_operand(rng), c = law_operand(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(BignumLaws, MultiplicationAssociative) {
  spider::util::SplitMix64 rng(1002);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a = law_operand(rng), b = law_operand(rng), c = law_operand(rng);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TEST(BignumLaws, ModularReductionCommutesWithMultiplication) {
  // (a * b) mod n == ((a mod n) * (b mod n)) mod n.
  spider::util::SplitMix64 rng(1003);
  for (int iter = 0; iter < 150; ++iter) {
    BigInt a = law_operand(rng), b = law_operand(rng);
    BigInt n = BigInt::random_bits(1 + rng.below(320), rng);
    if (n.is_zero()) n = BigInt{1};
    EXPECT_EQ((a * b) % n, ((a % n) * (b % n)) % n)
        << "a=" << a.to_hex() << " b=" << b.to_hex() << " n=" << n.to_hex();
  }
}

TEST(BignumLaws, ShiftEqualsMultiplyByPowerOfTwo) {
  spider::util::SplitMix64 rng(1004);
  for (int iter = 0; iter < 150; ++iter) {
    BigInt a = law_operand(rng);
    std::size_t k = rng.below(300);
    EXPECT_EQ(a << k, a * (BigInt{1} << k)) << "k=" << k;
    EXPECT_EQ((a << k) >> k, a) << "k=" << k;
  }
}

TEST(BignumLaws, DivModIsEuclideanDivision) {
  spider::util::SplitMix64 rng(1005);
  for (int iter = 0; iter < 150; ++iter) {
    BigInt a = law_operand(rng);
    BigInt b = law_operand(rng);
    if (b.is_zero()) b = BigInt{1};
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BignumLaws, SubtractionInvertsAddition) {
  spider::util::SplitMix64 rng(1006);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = law_operand(rng), b = law_operand(rng);
    EXPECT_EQ((a + b) - a, b);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST(BignumLaws, LimbsRoundTrip) {
  spider::util::SplitMix64 rng(1007);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a = law_operand(rng);
    EXPECT_EQ(BigInt::from_limbs(a.limbs()), a);
    // from_limbs must trim trailing zero limbs to keep the invariant.
    auto padded = a.limbs();
    padded.resize(padded.size() + 3, 0);
    EXPECT_EQ(BigInt::from_limbs(std::move(padded)), a);
  }
}
