// BGP substrate: prefixes, routes, the decision process, and RIBs.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "bgp/decision.hpp"

#include "util/rng.hpp"
#include "bgp/prefix.hpp"
#include "bgp/rib.hpp"
#include "bgp/route.hpp"

namespace sb = spider::bgp;
namespace su = spider::util;

using sb::Prefix;
using sb::Route;

namespace {
Route route(const std::string& prefix, std::vector<sb::AsNumber> path, std::uint32_t lp = 100) {
  Route r;
  r.prefix = Prefix::parse(prefix);
  r.as_path = std::move(path);
  r.learned_from = r.as_path.empty() ? 0 : r.as_path.front();
  r.local_pref = lp;
  return r;
}
}  // namespace

TEST(Prefix, ParseAndFormat) {
  auto p = Prefix::parse("192.168.1.0/24");
  EXPECT_EQ(p.str(), "192.168.1.0/24");
  EXPECT_EQ(p.length(), 24);
  EXPECT_EQ(p.bits(), 0xc0a80100u);
}

TEST(Prefix, ParseMasksHostBits) {
  // 10.1.2.3/8 canonicalizes to 10.0.0.0/8.
  EXPECT_EQ(Prefix::parse("10.1.2.3/8").str(), "10.0.0.0/8");
}

TEST(Prefix, DefaultRouteAndHostRoute) {
  EXPECT_EQ(Prefix::parse("0.0.0.0/0").str(), "0.0.0.0/0");
  EXPECT_EQ(Prefix::parse("1.2.3.4/32").str(), "1.2.3.4/32");
}

TEST(Prefix, ParseRejectsMalformed) {
  for (const char* bad : {"10.0.0.0", "10.0.0/8", "256.0.0.0/8", "10.0.0.0/33", "10.0.0.0/8x",
                          "a.b.c.d/8", "10,0,0,0/8"}) {
    EXPECT_THROW(Prefix::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Prefix, Containment) {
  auto p8 = Prefix::parse("10.0.0.0/8");
  auto p16 = Prefix::parse("10.1.0.0/16");
  auto other = Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(p8.contains(p16));
  EXPECT_FALSE(p16.contains(p8));
  EXPECT_TRUE(p8.contains(p8));
  EXPECT_FALSE(p8.contains(other));
  EXPECT_TRUE(Prefix::parse("0.0.0.0/0").contains(other));
}

TEST(Prefix, BitAccess) {
  auto p = Prefix::parse("160.0.0.0/3");  // 101 in the top three bits (paper Fig. 4)
  EXPECT_TRUE(p.bit(0));
  EXPECT_FALSE(p.bit(1));
  EXPECT_TRUE(p.bit(2));
}

TEST(Prefix, OrderingIsTotal) {
  auto a = Prefix::parse("10.0.0.0/8");
  auto b = Prefix::parse("10.0.0.0/16");
  auto c = Prefix::parse("11.0.0.0/8");
  EXPECT_LT(a, b);  // same bits, shorter length first
  EXPECT_LT(a, c);
  EXPECT_LT(b, c);
}

TEST(Prefix, SubtreeIsOneContiguousKeyRange) {
  // subtree_of must select exactly what `contains` accepts, including the
  // edge cases: a shorter prefix with the same bits (sorts just before the
  // subtree), the host route at the top of the range, /0 and /32 roots.
  su::SplitMix64 rng(7);
  std::map<Prefix, int> table;
  for (int i = 0; i < 3000; ++i) {
    // Few distinct top bytes so subtrees are dense and share boundaries.
    const auto bits =
        static_cast<std::uint32_t>((rng.below(4) << 30) | (rng.next() & 0x3fffffffu));
    table.emplace(Prefix(bits, static_cast<std::uint8_t>(rng.below(33))), i);
  }
  std::vector<Prefix> roots = {Prefix::parse("0.0.0.0/0"), Prefix::parse("64.0.0.0/2"),
                               Prefix::parse("255.255.255.255/32")};
  for (const auto& [prefix, value] : table) {
    if (rng.below(20) == 0) roots.push_back(prefix);
  }
  for (const Prefix& root : roots) {
    std::vector<Prefix> filtered, ranged;
    for (const auto& [prefix, value] : table) {
      if (root.contains(prefix)) filtered.push_back(prefix);
    }
    for (const auto& [prefix, value] : sb::subtree_of(table, root)) ranged.push_back(prefix);
    EXPECT_EQ(ranged, filtered) << root.str();
    EXPECT_TRUE(root.contains(root.last_contained())) << root.str();
  }
  const auto whole = sb::subtree_of(table, std::nullopt);
  EXPECT_TRUE(whole.begin() == table.begin() && whole.end() == table.end());
}

TEST(Prefix, EncodeDecodeRoundtrip) {
  su::ByteWriter w;
  Prefix::parse("172.16.0.0/12").encode(w);
  su::ByteReader r(w.data());
  EXPECT_EQ(Prefix::decode(r), Prefix::parse("172.16.0.0/12"));
}

TEST(Prefix, DecodeRejectsNonCanonical) {
  su::ByteWriter w;
  w.u32(0xc0a80101);  // host bits set
  w.u8(24);
  su::ByteReader r(w.data());
  EXPECT_THROW(Prefix::decode(r), su::DecodeError);
}

TEST(Route, CommunityHelpers) {
  EXPECT_EQ(sb::make_community(65001, 100), 0xfde90064u);
  EXPECT_EQ(sb::community_str(sb::make_community(65001, 100)), "65001:100");
  Route r = route("10.0.0.0/8", {2, 3});
  r.communities.push_back(sb::make_community(1, 2));
  EXPECT_TRUE(r.has_community(sb::make_community(1, 2)));
  EXPECT_FALSE(r.has_community(sb::make_community(1, 3)));
}

TEST(Route, PathHelpers) {
  Route r = route("10.0.0.0/8", {2, 3, 7});
  EXPECT_EQ(r.path_length(), 3u);
  EXPECT_TRUE(r.path_contains(3));
  EXPECT_FALSE(r.path_contains(9));
}

TEST(Route, EncodeDecodeRoundtrip) {
  Route r = route("10.20.0.0/16", {2, 3, 7}, 150);
  r.origin = sb::Origin::kEgp;
  r.med = 42;
  r.communities = {sb::make_community(2, 100), sb::make_community(2, 200)};
  su::ByteWriter w;
  r.encode(w);
  su::ByteReader reader(w.data());
  EXPECT_EQ(Route::decode(reader), r);
}

TEST(Update, EncodeDecodeRoundtrip) {
  sb::Update u;
  u.announced.push_back(route("10.0.0.0/8", {5, 9}));
  u.withdrawn.push_back(Prefix::parse("11.0.0.0/8"));
  auto bytes = u.encode();
  auto decoded = sb::Update::decode(bytes);
  EXPECT_EQ(decoded.announced, u.announced);
  EXPECT_EQ(decoded.withdrawn, u.withdrawn);
}

TEST(Update, DecodeRejectsTrailingGarbage) {
  sb::Update u;
  u.announced.push_back(route("10.0.0.0/8", {5}));
  auto bytes = u.encode();
  bytes.push_back(0xff);
  EXPECT_THROW(sb::Update::decode(bytes), su::DecodeError);
}

// ----------------------------------------------------------- decision

TEST(Decision, LocalPrefDominates) {
  // Longer path but higher local-pref wins.
  auto a = route("10.0.0.0/8", {2, 3, 4, 5}, 200);
  auto b = route("10.0.0.0/8", {6}, 100);
  EXPECT_TRUE(sb::better(a, b));
  EXPECT_FALSE(sb::better(b, a));
}

TEST(Decision, PathLengthBreaksLocalPrefTie) {
  auto a = route("10.0.0.0/8", {2, 3}, 100);
  auto b = route("10.0.0.0/8", {6}, 100);
  EXPECT_TRUE(sb::better(b, a));
}

TEST(Decision, OriginBreaksTie) {
  auto a = route("10.0.0.0/8", {2}, 100);
  auto b = route("10.0.0.0/8", {3}, 100);
  a.origin = sb::Origin::kIncomplete;
  b.origin = sb::Origin::kIgp;
  EXPECT_TRUE(sb::better(b, a));
}

TEST(Decision, MedComparedOnlySameNeighbor) {
  auto a = route("10.0.0.0/8", {2}, 100);
  auto b = route("10.0.0.0/8", {2}, 100);
  a.med = 10;
  b.med = 20;
  EXPECT_TRUE(sb::better(a, b));

  // Different neighbor: MED skipped, falls through to neighbor-AS tiebreak.
  auto c = route("10.0.0.0/8", {3}, 100);
  c.med = 0;
  sb::DecisionStep step;
  EXPECT_TRUE(sb::better_explained(a, c, step));
  EXPECT_EQ(step, sb::DecisionStep::kNeighborAs);
}

TEST(Decision, NeighborAsFinalTiebreak) {
  auto a = route("10.0.0.0/8", {2}, 100);
  auto b = route("10.0.0.0/8", {3}, 100);
  EXPECT_TRUE(sb::better(a, b));
  EXPECT_FALSE(sb::better(b, a));
}

TEST(Decision, IdenticalRoutesNotBetter) {
  auto a = route("10.0.0.0/8", {2}, 100);
  sb::DecisionStep step;
  EXPECT_FALSE(sb::better_explained(a, a, step));
  EXPECT_EQ(step, sb::DecisionStep::kTie);
}

TEST(Decision, StrictWeakOrderOnRandomRoutes) {
  // Asymmetry and transitivity over a randomized sample.
  spider::util::SplitMix64 rng(5150);
  std::vector<Route> routes;
  for (int i = 0; i < 40; ++i) {
    Route r = route("10.0.0.0/8", {}, static_cast<std::uint32_t>(100 + rng.below(3) * 50));
    std::size_t len = 1 + rng.below(4);
    for (std::size_t j = 0; j < len; ++j) r.as_path.push_back(static_cast<sb::AsNumber>(2 + rng.below(5)));
    r.learned_from = r.as_path.front();
    r.med = static_cast<std::uint32_t>(rng.below(3));
    r.origin = static_cast<sb::Origin>(rng.below(3));
    routes.push_back(std::move(r));
  }
  for (const auto& a : routes) {
    EXPECT_FALSE(sb::better(a, a));
    for (const auto& b : routes) {
      if (sb::better(a, b)) {
        EXPECT_FALSE(sb::better(b, a));
      }
      for (const auto& c : routes) {
        if (sb::better(a, b) && sb::better(b, c)) {
          EXPECT_TRUE(sb::better(a, c));
        }
      }
    }
  }
}

TEST(Decision, DecidePicksUniqueBest) {
  std::vector<Route> candidates = {
      route("10.0.0.0/8", {2, 3}, 100),
      route("10.0.0.0/8", {4}, 200),
      route("10.0.0.0/8", {5}, 150),
  };
  auto best = sb::decide(candidates);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->local_pref, 200u);
}

TEST(Decision, DecideEmptyIsNull) { EXPECT_FALSE(sb::decide({}).has_value()); }

TEST(Decision, DecideAgreesWithPairwiseBetter) {
  spider::util::SplitMix64 rng(777);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Route> candidates;
    std::size_t n = 1 + rng.below(6);
    for (std::size_t i = 0; i < n; ++i) {
      Route r = route("10.0.0.0/8", {static_cast<sb::AsNumber>(2 + i)},
                      static_cast<std::uint32_t>(100 + rng.below(3) * 50));
      for (std::size_t j = 0; j < rng.below(3); ++j) r.as_path.push_back(99);
      candidates.push_back(std::move(r));
    }
    auto best = sb::decide(candidates);
    ASSERT_TRUE(best.has_value());
    for (const auto& c : candidates) EXPECT_FALSE(sb::better(c, *best));
  }
}

// ----------------------------------------------------------------- RIBs

TEST(AdjRibIn, ReplaceAndWithdraw) {
  sb::AdjRibIn rib;
  rib.set(2, route("10.0.0.0/8", {2, 9}));
  rib.set(2, route("10.0.0.0/8", {2, 7}));  // implicit replace
  ASSERT_NE(rib.find(2, Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(rib.find(2, Prefix::parse("10.0.0.0/8"))->as_path, (std::vector<sb::AsNumber>{2, 7}));
  EXPECT_EQ(rib.size(), 1u);

  rib.withdraw(2, Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(rib.find(2, Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(rib.size(), 0u);
  rib.withdraw(2, Prefix::parse("10.0.0.0/8"));  // idempotent
}

TEST(AdjRibIn, CandidatesAcrossNeighbors) {
  sb::AdjRibIn rib;
  rib.set(2, route("10.0.0.0/8", {2}));
  rib.set(3, route("10.0.0.0/8", {3}));
  rib.set(3, route("11.0.0.0/8", {3}));
  EXPECT_EQ(rib.candidates(Prefix::parse("10.0.0.0/8")).size(), 2u);
  EXPECT_EQ(rib.candidates(Prefix::parse("11.0.0.0/8")).size(), 1u);
  EXPECT_EQ(rib.candidates(Prefix::parse("12.0.0.0/8")).size(), 0u);
  EXPECT_EQ(rib.prefixes().size(), 2u);
  EXPECT_EQ(rib.offers(Prefix::parse("10.0.0.0/8")).size(), 2u);
}

TEST(LocRib, ChangeDetection) {
  sb::LocRib rib;
  auto p = Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(rib.set(p, route("10.0.0.0/8", {2})));
  EXPECT_FALSE(rib.set(p, route("10.0.0.0/8", {2})));  // same route, no change
  EXPECT_TRUE(rib.set(p, route("10.0.0.0/8", {3})));
  EXPECT_TRUE(rib.set(p, std::nullopt));
  EXPECT_FALSE(rib.set(p, std::nullopt));  // already absent
  EXPECT_EQ(rib.find(p), nullptr);
}

TEST(AdjRibOut, TracksPerNeighborState) {
  sb::AdjRibOut rib;
  auto p = Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(rib.set(7, p, route("10.0.0.0/8", {1, 2})));
  EXPECT_FALSE(rib.set(7, p, route("10.0.0.0/8", {1, 2})));
  EXPECT_NE(rib.find(7, p), nullptr);
  EXPECT_EQ(rib.find(8, p), nullptr);
  EXPECT_EQ(rib.routes_to(7).size(), 1u);
  EXPECT_TRUE(rib.routes_to(8).empty());
  EXPECT_TRUE(rib.set(7, p, std::nullopt));
  EXPECT_EQ(rib.find(7, p), nullptr);
}
