// Modified ternary tree: structure, counts, labeling, proofs, privacy.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/mtt.hpp"
#include "mtt_reference.hpp"
#include "trace/routeviews.hpp"
#include "util/rng.hpp"

namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace su = spider::util;

using Entry = std::pair<sb::Prefix, std::vector<bool>>;

namespace {

scr::CommitmentPrf prf(const char* label) {
  return scr::CommitmentPrf(scr::seed_from_string(label));
}

std::vector<bool> bits_of(std::initializer_list<int> ones, std::uint32_t k) {
  std::vector<bool> bits(k, false);
  for (int i : ones) bits[static_cast<std::size_t>(i)] = true;
  return bits;
}

/// The paper's Figure 4 example: prefixes 0/2, 160/3 (= 101b), 128/1.
std::vector<Entry> figure4_entries(std::uint32_t k) {
  return {
      {sb::Prefix::parse("0.0.0.0/2"), bits_of({0}, k)},
      {sb::Prefix::parse("160.0.0.0/3"), bits_of({1}, k)},
      {sb::Prefix::parse("128.0.0.0/1"), bits_of({0, 1}, k)},
  };
}

}  // namespace

TEST(Mtt, Figure4Structure) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  auto counts = tree.counts();
  EXPECT_EQ(counts.prefix, 3u);
  EXPECT_EQ(counts.bit, 6u);  // k=2 per prefix
  // Paths: root -0-> -0-> [0/2]; root -1-> [128/1] -0-> -1-> [160/3].
  // Inner nodes: root, two on the 00 path, two more under 1 (10, 101).
  EXPECT_EQ(counts.inner, 6u);
  // Child-slot conservation: 3*inner = (inner-1) + prefix + dummy.
  EXPECT_EQ(3 * counts.inner, (counts.inner - 1) + counts.prefix + counts.dummy);
}

TEST(Mtt, ChildSlotConservationHoldsForRandomTrees) {
  su::SplitMix64 rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<Entry> entries;
    std::set<sb::Prefix> seen;
    std::uint32_t k = 1 + static_cast<std::uint32_t>(rng.below(8));
    std::size_t n = 1 + rng.below(200);
    while (entries.size() < n) {
      sb::Prefix p(static_cast<std::uint32_t>(rng.next()), static_cast<std::uint8_t>(rng.below(25)));
      if (!seen.insert(p).second) continue;
      std::vector<bool> bits(k);
      for (std::size_t i = 0; i < k; ++i) bits[i] = rng.chance(0.3);
      entries.emplace_back(p, bits);
    }
    auto tree = sc::Mtt::build(entries, k);
    auto counts = tree.counts();
    EXPECT_EQ(counts.prefix, n);
    EXPECT_EQ(counts.bit, n * k);
    EXPECT_EQ(3 * counts.inner, (counts.inner - 1) + counts.prefix + counts.dummy);
  }
}

TEST(Mtt, DuplicatePrefixRejected) {
  std::vector<Entry> entries = {
      {sb::Prefix::parse("10.0.0.0/8"), bits_of({0}, 2)},
      {sb::Prefix::parse("10.0.0.0/8"), bits_of({1}, 2)},
  };
  EXPECT_THROW(sc::Mtt::build(entries, 2), std::invalid_argument);
}

TEST(Mtt, WrongBitCountRejected) {
  std::vector<Entry> entries = {{sb::Prefix::parse("10.0.0.0/8"), bits_of({0}, 3)}};
  EXPECT_THROW(sc::Mtt::build(entries, 2), std::invalid_argument);
}

TEST(Mtt, EmptyTreeStillCommits) {
  auto tree = sc::Mtt::build({}, 4);
  tree.compute_labels(prf("empty"));
  EXPECT_EQ(tree.counts().prefix, 0u);
  EXPECT_EQ(tree.counts().inner, 1u);  // just the root
  EXPECT_EQ(tree.counts().dummy, 3u);
  (void)tree.root_label();
}

TEST(Mtt, StoredBitsReadable) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  EXPECT_EQ(tree.bit(sb::Prefix::parse("0.0.0.0/2"), 0), std::optional<bool>(true));
  EXPECT_EQ(tree.bit(sb::Prefix::parse("0.0.0.0/2"), 1), std::optional<bool>(false));
  EXPECT_EQ(tree.bit(sb::Prefix::parse("128.0.0.0/1"), 1), std::optional<bool>(true));
  EXPECT_FALSE(tree.bit(sb::Prefix::parse("4.0.0.0/8"), 0).has_value());
  EXPECT_FALSE(tree.bit(sb::Prefix::parse("0.0.0.0/2"), 9).has_value());
}

TEST(Mtt, NestedPrefixesCoexist) {
  // A prefix that lies on the path of a longer one (E-edge sharing).
  std::vector<Entry> entries = {
      {sb::Prefix::parse("10.0.0.0/8"), bits_of({0}, 2)},
      {sb::Prefix::parse("10.0.0.0/16"), bits_of({1}, 2)},
      {sb::Prefix::parse("10.1.0.0/16"), bits_of({0, 1}, 2)},
  };
  auto tree = sc::Mtt::build(entries, 2);
  EXPECT_EQ(tree.counts().prefix, 3u);
  auto p = prf("nested");
  tree.compute_labels(p);
  for (const auto& [prefix, bits] : entries) {
    auto proof = tree.prove(p, prefix, {0, 1});
    EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), 2, proof)) << prefix.str();
    EXPECT_EQ(proof.revealed[0].bit, bits[0]);
    EXPECT_EQ(proof.revealed[1].bit, bits[1]);
  }
}

TEST(Mtt, RootPrefixLengthZero) {
  std::vector<Entry> entries = {{sb::Prefix::parse("0.0.0.0/0"), bits_of({0}, 2)}};
  auto tree = sc::Mtt::build(entries, 2);
  auto p = prf("root");
  tree.compute_labels(p);
  auto proof = tree.prove(p, sb::Prefix::parse("0.0.0.0/0"), {0});
  EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), 2, proof));
}

TEST(Mtt, HostRouteLength32) {
  std::vector<Entry> entries = {{sb::Prefix::parse("1.2.3.4/32"), bits_of({1}, 2)}};
  auto tree = sc::Mtt::build(entries, 2);
  auto p = prf("host");
  tree.compute_labels(p);
  auto proof = tree.prove(p, sb::Prefix::parse("1.2.3.4/32"), {1});
  EXPECT_EQ(proof.siblings.size(), 33u);
  EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), 2, proof));
}

TEST(Mtt, ProveVerifyRoundtripFigure4) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  auto p = prf("fig4");
  tree.compute_labels(p);
  for (const auto& [prefix, bits] : figure4_entries(2)) {
    for (sc::ClassId cls = 0; cls < 2; ++cls) {
      auto proof = tree.prove(p, prefix, {cls});
      EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), 2, proof));
      EXPECT_EQ(proof.revealed[0].bit, bits[cls]);
    }
  }
}

TEST(Mtt, ProofForAbsentPrefixThrows) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  auto p = prf("absent");
  tree.compute_labels(p);
  EXPECT_THROW((void)tree.prove(p, sb::Prefix::parse("192.168.0.0/16"), {0}), std::out_of_range);
}

TEST(Mtt, ProveBeforeLabelsThrows) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  EXPECT_THROW((void)tree.prove(prf("x"), sb::Prefix::parse("0.0.0.0/2"), {0}),
               std::logic_error);
  EXPECT_THROW((void)tree.root_label(), std::logic_error);
}

TEST(Mtt, TamperedProofRejected) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  auto p = prf("tamper");
  tree.compute_labels(p);
  auto prefix = sb::Prefix::parse("160.0.0.0/3");
  auto good = tree.prove(p, prefix, {0, 1});
  ASSERT_TRUE(sc::Mtt::verify(tree.root_label(), 2, good));

  {
    auto bad = good;
    bad.revealed[0].bit = !bad.revealed[0].bit;  // flip a bit value
    EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), 2, bad));
  }
  {
    auto bad = good;
    bad.revealed[1].x[3] ^= 0x80;  // corrupt the randomness
    EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), 2, bad));
  }
  {
    auto bad = good;
    bad.bit_labels[0][0] ^= 1;  // corrupt an unopened bit label
    EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), 2, bad));
  }
  {
    auto bad = good;
    bad.siblings[1][0][10] ^= 1;  // corrupt a path sibling
    EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), 2, bad));
  }
  {
    auto bad = good;
    bad.prefix = sb::Prefix::parse("128.0.0.0/3");  // claim another prefix
    EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), 2, bad));
  }
}

TEST(Mtt, ProofAgainstWrongRootRejected) {
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  auto p1 = prf("root-1");
  tree.compute_labels(p1);
  auto proof = tree.prove(p1, sb::Prefix::parse("0.0.0.0/2"), {0});
  auto root1 = tree.root_label();

  tree.compute_labels(prf("root-2"));
  EXPECT_NE(tree.root_label(), root1);  // fresh randomness => fresh root
  EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), 2, proof));
  EXPECT_TRUE(sc::Mtt::verify(root1, 2, proof));
}

TEST(Mtt, SameSeedReproducesRoot) {
  // Replay reconstruction (§6.5): rebuilding the MTT from the same routing
  // state and seed yields a bit-identical root.
  auto entries = figure4_entries(4);
  auto t1 = sc::Mtt::build(entries, 4);
  auto t2 = sc::Mtt::build({entries.rbegin(), entries.rend()}, 4);  // different input order
  t1.compute_labels(prf("replay"));
  t2.compute_labels(prf("replay"));
  EXPECT_EQ(t1.root_label(), t2.root_label());
}

TEST(Mtt, FreshRandomnessUnlinksConsecutiveCommitments) {
  // §5.3: if bitstrings were reused, unchanged subtrees would be linkable
  // across commitments.  With fresh seeds every label changes.
  auto tree = sc::Mtt::build(figure4_entries(2), 2);
  auto pa = prf("epoch-a");
  auto pb = prf("epoch-b");
  tree.compute_labels(pa);
  auto proof_a = tree.prove(pa, sb::Prefix::parse("0.0.0.0/2"), {0});
  tree.compute_labels(pb);
  auto proof_b = tree.prove(pb, sb::Prefix::parse("0.0.0.0/2"), {0});
  // Same prefix, same bits — yet no label survives between epochs.
  for (std::size_t i = 0; i < proof_a.bit_labels.size(); ++i) {
    EXPECT_NE(proof_a.bit_labels[i], proof_b.bit_labels[i]);
  }
  for (std::size_t level = 0; level < proof_a.siblings.size(); ++level) {
    EXPECT_NE(proof_a.siblings[level][0], proof_b.siblings[level][0]);
    EXPECT_NE(proof_a.siblings[level][1], proof_b.siblings[level][1]);
  }
}

TEST(Mtt, ProofDoesNotRevealNeighborPrefixes) {
  // Privacy (§5.3): a bit proof for one prefix contains only the labels of
  // siblings along the path — never the identity of other prefixes, and
  // the verifier cannot tell a dummy label from a populated subtree label.
  std::vector<Entry> entries = {
      {sb::Prefix::parse("10.0.0.0/8"), bits_of({0}, 2)},
      {sb::Prefix::parse("11.0.0.0/8"), bits_of({1}, 2)},
  };
  auto tree = sc::Mtt::build(entries, 2);
  auto p = prf("neighbors");
  tree.compute_labels(p);
  auto proof = tree.prove(p, sb::Prefix::parse("10.0.0.0/8"), {0});
  auto encoded = proof.encode();
  // The encoding contains the queried prefix but not its neighbor's bytes
  // beyond indistinguishable 20-byte labels.  Check no plaintext prefix
  // encoding of 11.0.0.0/8 appears.
  su::ByteWriter w;
  sb::Prefix::parse("11.0.0.0/8").encode(w);
  auto needle = w.take();
  auto it = std::search(encoded.begin(), encoded.end(), needle.begin(), needle.end());
  EXPECT_EQ(it, encoded.end());
}

TEST(Mtt, UnqueriedBitRandomnessNotInProof) {
  // k = 5: one full PRF group (classes 0-2) and one short one (3-4).
  const std::uint32_t k = 5;
  auto tree = sc::Mtt::build(figure4_entries(k), k);
  auto p = prf("secrets");
  tree.compute_labels(p);
  const auto prefix = sb::Prefix::parse("0.0.0.0/2");
  constexpr auto kBit = scr::CommitmentPrf::Domain::kBit;
  auto x_of = [&](sc::ClassId cls) {
    return p.derive3(kBit, sc::Mtt::bit_prf_index(prefix, cls / 3))[cls % 3];
  };
  auto contains = [](const su::Bytes& haystack, const auto& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
           haystack.end();
  };
  for (sc::ClassId opened = 0; opened < k; ++opened) {
    auto encoded = tree.prove(p, prefix, {opened}).encode();
    // The opened class's x appears; every unqueried class's x — its two
    // group-mates in the same PRF output included — must not, nor may the
    // 64-byte group digest the opened window was cut from.
    EXPECT_TRUE(contains(encoded, x_of(opened))) << opened;
    for (sc::ClassId cls = 0; cls < k; ++cls) {
      if (cls == opened) continue;
      EXPECT_FALSE(contains(encoded, x_of(cls))) << cls << " via " << opened;
    }
    const auto group = spider::test::reference_prf_digest(
        p.seed(), kBit, sc::Mtt::bit_prf_index(prefix, opened / 3));
    EXPECT_FALSE(contains(encoded, group)) << "group digest leaked via " << opened;
  }
}

TEST(Mtt, ParallelLabelingMatchesSerial) {
  su::SplitMix64 rng(31337);
  std::vector<Entry> entries;
  std::set<sb::Prefix> seen;
  while (entries.size() < 3000) {
    sb::Prefix p(static_cast<std::uint32_t>(rng.next()), static_cast<std::uint8_t>(8 + rng.below(17)));
    if (!seen.insert(p).second) continue;
    std::vector<bool> bits(8);
    for (std::size_t i = 0; i < 8; ++i) bits[i] = rng.chance(0.4);
    entries.emplace_back(p, bits);
  }
  auto serial = sc::Mtt::build(entries, 8);
  auto parallel = sc::Mtt::build(entries, 8);
  serial.compute_labels(prf("par"), 1);
  parallel.compute_labels(prf("par"), 4);
  EXPECT_EQ(serial.root_label(), parallel.root_label());
  EXPECT_EQ(serial.last_label_hashes(), parallel.last_label_hashes());
}

TEST(Mtt, ProofEncodingRoundtrip) {
  auto tree = sc::Mtt::build(figure4_entries(3), 3);
  auto p = prf("enc");
  tree.compute_labels(p);
  auto proof = tree.prove(p, sb::Prefix::parse("160.0.0.0/3"), {0, 2});
  auto decoded = sc::MttPrefixProof::decode(proof.encode());
  EXPECT_EQ(decoded.prefix, proof.prefix);
  EXPECT_EQ(decoded.revealed, proof.revealed);
  EXPECT_EQ(decoded.bit_labels, proof.bit_labels);
  EXPECT_EQ(decoded.siblings, proof.siblings);
  EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), 3, decoded));
  EXPECT_EQ(proof.byte_size(), proof.encode().size());
}

TEST(Mtt, ProofSizeMatchesPaperApproximation) {
  // Paper §7.3: "each bit proof with k indifference classes contributes k
  // hashes, or 20k bytes, plus potentially some hashes of dummy nodes".
  // For k=50 and a /24 prefix: 50*20 = 1000 bytes of bit labels plus
  // 25 levels * 2 siblings * 20 = 1000 bytes of path, ~2.1 KB total,
  // matching the single-prefix "route to Google" experiment.
  std::vector<Entry> entries = {{sb::Prefix::parse("172.217.0.0/24"), std::vector<bool>(50, false)}};
  auto tree = sc::Mtt::build(entries, 50);
  auto p = prf("google");
  tree.compute_labels(p);
  auto proof = tree.prove(p, sb::Prefix::parse("172.217.0.0/24"), {0});
  EXPECT_GT(proof.byte_size(), 1900u);
  EXPECT_LT(proof.byte_size(), 2300u);
}

TEST(Mtt, RandomizedProveVerifySweepOverTraceLikeTable) {
  spider::trace::TraceConfig config;
  config.num_prefixes = 2000;
  config.num_updates = 1;
  config.seed = 5;
  auto trace = spider::trace::generate(config);

  const std::uint32_t k = 10;
  std::vector<Entry> entries;
  su::SplitMix64 rng(1);
  for (const auto& route : trace.rib_snapshot) {
    std::vector<bool> bits(k);
    for (std::size_t i = 0; i < k; ++i) bits[i] = rng.chance(0.2);
    entries.emplace_back(route.prefix, bits);
  }
  auto tree = sc::Mtt::build(entries, k);
  auto p = prf("sweep");
  tree.compute_labels(p, 2);

  for (int probe = 0; probe < 50; ++probe) {
    const auto& entry = entries[rng.below(entries.size())];
    sc::ClassId cls = static_cast<sc::ClassId>(rng.below(k));
    auto proof = tree.prove(p, entry.first, {cls});
    EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), k, proof));
    EXPECT_EQ(proof.revealed[0].bit, entry.second[cls]);
  }
}

TEST(Mtt, CountsScaleWithPaperRatios) {
  // At realistic table shapes, bit nodes = k * prefix and inner nodes land
  // around 2-3x prefix count (paper: 950,372 inner / 389,653 prefix ≈ 2.4).
  spider::trace::TraceConfig config;
  config.num_prefixes = 20000;
  config.num_updates = 1;
  config.seed = 6;
  auto trace = spider::trace::generate(config);
  std::vector<Entry> entries;
  for (const auto& route : trace.rib_snapshot) {
    entries.emplace_back(route.prefix, std::vector<bool>(50, false));
  }
  auto tree = sc::Mtt::build(entries, 50);
  auto counts = tree.counts();
  EXPECT_EQ(counts.bit, 50u * 20000u);
  double inner_ratio = static_cast<double>(counts.inner) / static_cast<double>(counts.prefix);
  EXPECT_GT(inner_ratio, 1.2);
  EXPECT_LT(inner_ratio, 4.0);
  EXPECT_GT(tree.memory_bytes(), 0u);
}
