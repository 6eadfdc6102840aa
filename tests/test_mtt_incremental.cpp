// MTT structure maintenance: the differential battery asserting that a
// tree whose structure is grown through any sequence of apply() batches,
// then relabeled under a fresh seed the way the recorder commits, is
// indistinguishable from one built fresh over the same final table —
// identical roots, hash counts, proofs and node counts — and matches the
// test-only reference labeler.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/mtt.hpp"
#include "mtt_reference.hpp"
#include "util/rng.hpp"

namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace su = spider::util;

using Entry = std::pair<sb::Prefix, std::vector<bool>>;
using Model = std::map<sb::Prefix, std::vector<bool>>;

namespace {

scr::CommitmentPrf prf(const std::string& label) {
  return scr::CommitmentPrf(scr::seed_from_string(label));
}

std::vector<bool> random_bits(su::SplitMix64& rng, std::uint32_t k) {
  std::vector<bool> bits(k);
  for (std::uint32_t i = 0; i < k; ++i) bits[i] = rng.chance(0.3);
  return bits;
}

Model random_model(su::SplitMix64& rng, std::size_t n, std::uint32_t k) {
  Model model;
  while (model.size() < n) {
    sb::Prefix p(static_cast<std::uint32_t>(rng.next()),
                 static_cast<std::uint8_t>(rng.below(25)));
    model[p] = random_bits(rng, k);
  }
  return model;
}

std::vector<Entry> entries_of(const Model& model) {
  return std::vector<Entry>(model.begin(), model.end());
}

/// A batch mixing inserts of new prefixes, removals and bit rewrites of
/// existing ones, mirrored into `model`.
std::vector<sc::MttUpdate> random_batch(su::SplitMix64& rng, Model& model, std::size_t ops,
                                        std::uint32_t k) {
  std::vector<sc::MttUpdate> batch;
  for (std::size_t i = 0; i < ops; ++i) {
    const double roll = static_cast<double>(rng.below(100)) / 100.0;
    if (roll < 0.35 || model.empty()) {
      sb::Prefix p(static_cast<std::uint32_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.below(25)));
      auto bits = random_bits(rng, k);
      model[p] = bits;
      batch.push_back({p, std::move(bits)});
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      if (roll < 0.65) {
        batch.push_back({it->first, std::nullopt});
        model.erase(it);
      } else {
        auto bits = it->second;
        const std::size_t flip = rng.below(k);
        bits[flip] = !bits[flip];
        it->second = bits;
        batch.push_back({it->first, std::move(bits)});
      }
    }
  }
  return batch;
}

/// Hash count of labeling the minimal MTT over `model`, counted from the
/// trie shape alone: ceil(k/3) PRF triples + k leaves + 1 label per prefix
/// node, and per inner node 1 combining hash plus 1 PRF triple when any of
/// its three child slots holds a dummy.
std::uint64_t closed_form_label_hashes(const Model& model, std::uint32_t k) {
  // Inner node (path bits, depth) -> mask of its real child slots.
  std::map<std::pair<std::uint32_t, std::uint8_t>, unsigned> inner;
  inner[{0u, std::uint8_t{0}}];  // the root always exists
  for (const auto& [prefix, bits] : model) {
    for (std::uint8_t d = 0; d <= prefix.length(); ++d) {
      const std::uint32_t path = d == 0 ? 0u : (prefix.bits() >> (32 - d)) << (32 - d);
      unsigned& mask = inner[{path, d}];
      if (d == prefix.length()) {
        mask |= 4u;
      } else {
        mask |= prefix.bit(d) ? 2u : 1u;
      }
    }
  }
  std::uint64_t hashes = model.size() * static_cast<std::uint64_t>((k + 2) / 3 + k + 1);
  for (const auto& [position, mask] : inner) hashes += mask == 7u ? 1 : 2;
  return hashes;
}

/// Relabels `incremental` under `p` (the recorder's commit: structure-only
/// apply, then a full labeling under the round's seed) and compares it
/// with a fresh build and with the reference labeler.
void expect_equivalent(sc::Mtt& incremental, const Model& model, std::uint32_t k,
                       const scr::CommitmentPrf& p, unsigned threads, const std::string& when) {
  incremental.compute_labels(p, threads);
  auto fresh = sc::Mtt::build(entries_of(model), k);
  fresh.compute_labels(p, threads);
  EXPECT_EQ(incremental.root_label(), fresh.root_label()) << when;
  EXPECT_EQ(incremental.last_label_hashes(), fresh.last_label_hashes()) << when;
  const auto reference = spider::test::mtt_reference_label(entries_of(model), p);
  EXPECT_EQ(incremental.root_label(), reference.root) << when;
  EXPECT_EQ(incremental.last_label_hashes(), reference.hashes) << when;
  auto a = incremental.counts();
  auto b = fresh.counts();
  EXPECT_EQ(a.inner, b.inner) << when;
  EXPECT_EQ(a.prefix, b.prefix) << when;
  EXPECT_EQ(a.dummy, b.dummy) << when;
  EXPECT_EQ(a.bit, b.bit) << when;
  if (!model.empty()) {
    // Proofs from the two trees must be byte-identical, not just verify.
    const sb::Prefix& sample = model.begin()->first;
    std::vector<sc::ClassId> classes;
    for (sc::ClassId c = 0; c < k; c += 2) classes.push_back(c);
    auto proof_a = incremental.prove(p, sample, classes);
    auto proof_b = fresh.prove(p, sample, classes);
    EXPECT_EQ(proof_a.encode(), proof_b.encode()) << when;
    EXPECT_TRUE(sc::Mtt::verify(fresh.root_label(), k, proof_a)) << when;
  }
}

}  // namespace

TEST(MttIncremental, RandomizedDifferentialAgainstFreshBuild) {
  struct Case {
    std::size_t size;
    unsigned threads;
  };
  for (const Case& c : {Case{40, 1}, Case{40, 4}, Case{400, 1}, Case{400, 4}, Case{2500, 4}}) {
    su::SplitMix64 rng(0xD1FF ^ (c.size * 8 + c.threads));
    const std::uint32_t k = 1 + static_cast<std::uint32_t>(rng.below(10));
    Model model = random_model(rng, c.size, k);
    auto tree = sc::Mtt::build(entries_of(model), k);
    tree.compute_labels(prf("incremental-diff"), c.threads);
    for (int round = 0; round < 4; ++round) {
      auto batch = random_batch(rng, model, std::max<std::size_t>(4, c.size / 8), k);
      tree.apply(batch);
      // Every commitment has its own seed (§6.5).
      expect_equivalent(tree, model, k, prf("incremental-diff-" + std::to_string(round)),
                        c.threads,
                        "size=" + std::to_string(c.size) + " threads=" +
                            std::to_string(c.threads) + " round=" + std::to_string(round));
    }
  }
}

TEST(MttIncremental, EdgeClassCountsMatchReferenceAndClosedForm) {
  // Class counts around the three-labels-per-PRF-output grouping: a lone
  // window (k = 1, 4), a two-window group (k = 2, 50) and full groups only
  // (k = 3), each labeled serially and across four threads.
  for (const std::uint32_t k : {1u, 2u, 3u, 4u, 50u}) {
    for (const unsigned threads : {1u, 4u}) {
      const std::string when = "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      su::SplitMix64 rng(0xED6E ^ (k * 8 + threads));
      Model model = random_model(rng, k == 50 ? 300 : 1200, k);
      auto tree = sc::Mtt::build(entries_of(model), k);
      tree.compute_labels(prf("edge-k"), threads);
      EXPECT_EQ(tree.last_label_hashes(), closed_form_label_hashes(model, k)) << when;
      tree.apply(random_batch(rng, model, 60, k));
      expect_equivalent(tree, model, k, prf("edge-k-1"), threads, when);
      EXPECT_EQ(tree.last_label_hashes(), closed_form_label_hashes(model, k)) << when;
    }
  }
}

TEST(MttIncremental, EmptyAndRefillSubtreeMatchesFreshBuild) {
  // Adversarial shape for the pruning logic: a dense subtree (all under
  // 10.0.0.0/8) is emptied in one batch — collapsing its whole spine to a
  // dummy — then refilled with different bits, recycling freed arena slots.
  const std::uint32_t k = 4;
  su::SplitMix64 rng(777);
  Model model;
  for (std::uint32_t host = 0; host < 64; ++host) {
    sb::Prefix p((10u << 24) | (host << 10), 22);
    model[p] = random_bits(rng, k);
  }
  // Plus some prefixes outside the subtree that must be untouched.
  Model outside = random_model(rng, 30, k);
  for (const auto& [pfx, bits] : outside) model[pfx] = bits;

  auto tree = sc::Mtt::build(entries_of(model), k);
  tree.compute_labels(prf("refill"));

  std::vector<sc::MttUpdate> drain;
  for (std::uint32_t host = 0; host < 64; ++host) {
    drain.push_back({sb::Prefix((10u << 24) | (host << 10), 22), std::nullopt});
    model.erase(sb::Prefix((10u << 24) | (host << 10), 22));
  }
  tree.apply(drain);
  expect_equivalent(tree, model, k, prf("refill-drain"), 1, "after drain");

  std::vector<sc::MttUpdate> refill;
  for (std::uint32_t host = 0; host < 64; ++host) {
    sb::Prefix pfx((10u << 24) | (host << 10), 22);
    auto bits = random_bits(rng, k);
    model[pfx] = bits;
    refill.push_back({pfx, std::move(bits)});
  }
  tree.apply(refill);
  const auto p = prf("refill-refill");
  expect_equivalent(tree, model, k, p, 1, "after refill");

  // A no-op batch — unchanged bits and an absent removal — leaves the
  // structure, so the same seed yields the same root.
  const auto root = tree.root_label();
  const auto counts = tree.counts();
  std::vector<sc::MttUpdate> noop;
  noop.push_back({model.begin()->first, model.begin()->second});
  noop.push_back({sb::Prefix(0x0a0b0c00, 30), std::nullopt});
  tree.apply(noop);
  EXPECT_FALSE(tree.labels_computed());
  expect_equivalent(tree, model, k, p, 1, "after no-op batch");
  EXPECT_EQ(tree.root_label(), root);
  EXPECT_EQ(tree.counts().total(), counts.total());
}

TEST(MttIncremental, StructureOnlyApplyInvalidatesLabels) {
  const std::uint32_t k = 3;
  su::SplitMix64 rng(31337);
  Model model = random_model(rng, 100, k);
  auto p1 = prf("epoch-1");
  auto tree = sc::Mtt::build(entries_of(model), k);
  tree.compute_labels(p1);
  ASSERT_TRUE(tree.labels_computed());

  auto batch = random_batch(rng, model, 10, k);
  tree.apply(batch);  // structure only: the seed is rotating
  EXPECT_FALSE(tree.labels_computed());
  EXPECT_THROW((void)tree.root_label(), std::logic_error);

  expect_equivalent(tree, model, k, prf("epoch-2"), 1, "after seed rotation");
}

TEST(MttIncremental, ProofXValuesMatchCanonicalPrfDerivation) {
  // The prove() fast path derives each opened class's x once and reuses it
  // for both the revealed tuple and the bit-label recomputation; both must
  // equal the canonical content-addressed derivation.
  const std::uint32_t k = 6;
  su::SplitMix64 rng(99);
  Model model = random_model(rng, 50, k);
  auto p = prf("prove-once");
  auto tree = sc::Mtt::build(entries_of(model), k);
  tree.compute_labels(p);
  const sb::Prefix& target = model.begin()->first;
  auto proof = tree.prove(p, target, {0, 3, 5});
  ASSERT_EQ(proof.revealed.size(), 3u);
  for (const auto& opened : proof.revealed) {
    EXPECT_EQ(opened.x, spider::test::reference_derive3(
                            p.seed(), scr::CommitmentPrf::Domain::kBit,
                            sc::Mtt::bit_prf_index(target, opened.cls / 3))[opened.cls % 3]);
  }
  EXPECT_TRUE(sc::Mtt::verify(tree.root_label(), k, proof));
}
