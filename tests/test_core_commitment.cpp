// Flat bit commitments and bit proofs (basic VPref, §4.4-4.5).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/commitment.hpp"
#include "mtt_reference.hpp"
#include "util/rng.hpp"

namespace sc = spider::core;
namespace scr = spider::crypto;
namespace su = spider::util;

namespace {
scr::CommitmentPrf prf(const char* label) { return scr::CommitmentPrf(scr::seed_from_string(label)); }

/// x_i of a flat commitment: window i % 3 of the bit triple at i / 3.
su::Digest20 flat_x(const scr::CommitmentPrf& p, std::uint32_t i) {
  return p.derive3(scr::CommitmentPrf::Domain::kBit, i / 3)[i % 3];
}

template <typename Needle>
bool contains(const su::Bytes& haystack, const Needle& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
         haystack.end();
}
}  // namespace

TEST(FlatCommitment, ProveVerifyRoundtripAllBits) {
  std::vector<bool> bits = {true, false, true, true, false};
  sc::FlatCommitment commitment(bits, prf("c1"));
  for (std::uint32_t i = 0; i < bits.size(); ++i) {
    auto proof = commitment.prove(i);
    EXPECT_EQ(proof.bit, bits[i]);
    EXPECT_TRUE(sc::FlatCommitment::verify(commitment.root(), 5, proof)) << "bit " << i;
  }
}

TEST(FlatCommitment, EmptyBitsRejected) {
  EXPECT_THROW(sc::FlatCommitment({}, prf("c")), std::invalid_argument);
}

TEST(FlatCommitment, ProveOutOfRangeThrows) {
  sc::FlatCommitment commitment({true}, prf("c"));
  EXPECT_THROW(commitment.prove(1), std::out_of_range);
}

TEST(FlatCommitment, FlippedBitRejected) {
  // The binding property behind Theorem 1: an elector cannot invert a
  // committed bit (the §7.4 "tampered bit proof" fault).
  sc::FlatCommitment commitment({true, false}, prf("c2"));
  auto proof = commitment.prove(0);
  proof.bit = !proof.bit;
  EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), 2, proof));
}

TEST(FlatCommitment, WrongRandomnessRejected) {
  sc::FlatCommitment commitment({true, false}, prf("c3"));
  auto proof = commitment.prove(0);
  proof.x[0] ^= 1;
  EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), 2, proof));
}

TEST(FlatCommitment, TamperedLeafRejected) {
  sc::FlatCommitment commitment({true, false, true}, prf("c4"));
  auto proof = commitment.prove(0);
  proof.leaves[2][5] ^= 0xff;
  EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), 3, proof));
}

TEST(FlatCommitment, WrongIndexRejected) {
  sc::FlatCommitment commitment({true, true, false}, prf("c5"));
  auto proof = commitment.prove(0);
  proof.index = 2;  // claim the proof is about another bit
  EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), 3, proof));
}

TEST(FlatCommitment, IndexBeyondRangeRejected) {
  sc::FlatCommitment commitment({true}, prf("c6"));
  auto proof = commitment.prove(0);
  proof.index = 7;
  EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), 1, proof));
}

TEST(FlatCommitment, DifferentSeedsDifferentRoots) {
  std::vector<bool> bits = {true, false, true};
  sc::FlatCommitment a(bits, prf("seed-a"));
  sc::FlatCommitment b(bits, prf("seed-b"));
  EXPECT_NE(a.root(), b.root());
}

TEST(FlatCommitment, SameSeedSameRoot) {
  // Replay reconstruction (§6.5): the seed fully determines the commitment.
  std::vector<bool> bits = {true, false, true};
  sc::FlatCommitment a(bits, prf("same"));
  sc::FlatCommitment b(bits, prf("same"));
  EXPECT_EQ(a.root(), b.root());
}

TEST(FlatCommitment, HidingAcrossBitValues) {
  // With fresh randomness, the unopened leaves carry no visible signal:
  // the leaf for a 0-bit and a 1-bit are both 20-byte hash outputs, and
  // two commitments over different bits share no leaves.
  sc::FlatCommitment a({true, true, true}, prf("h1"));
  sc::FlatCommitment b({false, false, false}, prf("h2"));
  auto pa = a.prove(0);
  auto pb = b.prove(0);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_NE(pa.leaves[i], pb.leaves[i]);
  }

  // Three x values share one PRF output.  Opening bit c reveals only its
  // own window: neither group-mate's x nor the 64-byte group digest may
  // appear in the proof, whichever position of the group c takes.
  auto p = prf("h3");
  sc::FlatCommitment wide({true, false, true, false, true, false, true}, p);
  for (std::uint32_t c = 0; c < wide.num_bits(); ++c) {
    const auto encoded = wide.prove(c).encode();
    EXPECT_TRUE(contains(encoded, flat_x(p, c))) << c;
    for (std::uint32_t mate = c / 3 * 3; mate < std::min(c / 3 * 3 + 3, wide.num_bits()); ++mate) {
      if (mate == c) continue;
      EXPECT_FALSE(contains(encoded, flat_x(p, mate))) << "x" << mate << " leaked by " << c;
    }
    const auto group =
        spider::test::reference_prf_digest(p.seed(), scr::CommitmentPrf::Domain::kBit, c / 3);
    EXPECT_FALSE(contains(encoded, group)) << "group digest leaked by " << c;
  }
}

TEST(FlatCommitment, ProofRevealsOnlyQueriedRandomness) {
  // Privacy: the x of unopened bits never appears in a proof.
  auto p = prf("reveal");
  sc::FlatCommitment commitment({true, false, true}, p);
  auto proof = commitment.prove(1);
  EXPECT_EQ(proof.x, flat_x(p, 1));
  auto encoded = proof.encode();
  for (std::uint32_t other : {0u, 2u}) {
    auto secret = flat_x(p, other);
    auto it = std::search(encoded.begin(), encoded.end(), secret.begin(), secret.end());
    EXPECT_EQ(it, encoded.end()) << "secret x" << other << " leaked";
  }
}

TEST(FlatBitProof, EncodeDecodeRoundtrip) {
  sc::FlatCommitment commitment({true, false, true, false}, prf("enc"));
  auto proof = commitment.prove(2);
  auto decoded = sc::FlatBitProof::decode(proof.encode());
  EXPECT_EQ(decoded.index, proof.index);
  EXPECT_EQ(decoded.bit, proof.bit);
  EXPECT_EQ(decoded.x, proof.x);
  EXPECT_EQ(decoded.leaves, proof.leaves);
  EXPECT_TRUE(sc::FlatCommitment::verify(commitment.root(), 4, decoded));
}

TEST(FlatBitProof, DecodeRejectsBadBit) {
  sc::FlatCommitment commitment({true}, prf("bb"));
  auto bytes = commitment.prove(0).encode();
  bytes[4] = 7;  // the bit byte (after u32 index)
  EXPECT_THROW(sc::FlatBitProof::decode(bytes), spider::util::DecodeError);
}

TEST(FlatCommitment, RandomizedProveVerifySweep) {
  spider::util::SplitMix64 rng(2024);
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t k = 1 + rng.below(64);
    std::vector<bool> bits(k);
    for (std::size_t i = 0; i < k; ++i) bits[i] = rng.chance(0.5);
    auto seed = scr::seed_from_string("sweep-" + std::to_string(iter));
    sc::FlatCommitment commitment(bits, scr::CommitmentPrf(seed));
    std::uint32_t probe = static_cast<std::uint32_t>(rng.below(k));
    auto proof = commitment.prove(probe);
    EXPECT_TRUE(sc::FlatCommitment::verify(commitment.root(), static_cast<std::uint32_t>(k), proof));
    EXPECT_EQ(proof.bit, bits[probe]);
    // Any single-byte corruption must invalidate the proof.
    auto bad = proof;
    bad.x[rng.below(20)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), static_cast<std::uint32_t>(k), bad));
  }
}
