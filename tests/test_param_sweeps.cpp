// Parameterized property sweeps (TEST_P) across the protocol stack:
// VPref theorems over a grid of (class count, producer count, fault),
// MTT commit/prove/verify over a grid of (table size, class count), and
// promise-algebra properties over class counts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "core/mtt.hpp"
#include "core/vpref.hpp"
#include "trace/routeviews.hpp"
#include "util/rng.hpp"

namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace su = spider::util;

// ------------------------------------------------------ VPref fault grid

namespace {

/// Concatenates test-name parts by appending.  `"k" + std::to_string(n)`
/// inlines an insert-at-front that trips GCC 12's -Wrestrict false
/// positive at -O3.
template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

enum class Fault { kNone, kIgnoreInput, kForceExport, kTamperProof, kRefuseProof, kEquivocate };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "None";
    case Fault::kIgnoreInput: return "IgnoreInput";
    case Fault::kForceExport: return "ForceExport";
    case Fault::kTamperProof: return "TamperProof";
    case Fault::kRefuseProof: return "RefuseProof";
    case Fault::kEquivocate: return "Equivocate";
  }
  return "?";
}

sb::Route route_with_path(std::size_t hops) {
  sb::Route r;
  r.prefix = sb::Prefix::parse("10.0.0.0/8");
  for (std::size_t i = 0; i < hops; ++i) r.as_path.push_back(static_cast<sb::AsNumber>(100 + i));
  r.learned_from = r.as_path.empty() ? 0 : r.as_path.front();
  return r;
}

su::Bytes key_of(sc::PartyId id) {
  std::string s = "sweep-key-" + std::to_string(id);
  return su::Bytes(s.begin(), s.end());
}

}  // namespace

class VprefFaultSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, int, Fault>> {};

TEST_P(VprefFaultSweep, FaultsDetectedHonestyAccepted) {
  const auto [k, n_producers, fault] = GetParam();
  sc::PathLengthClassifier classifier(k);
  sc::KeyRegistry keys;
  std::map<sc::PartyId, std::unique_ptr<scr::HashSigner>> signers;
  auto signer = [&](sc::PartyId id) -> scr::HashSigner& {
    auto it = signers.find(id);
    if (it == signers.end()) {
      it = signers.emplace(id, std::make_unique<scr::HashSigner>(key_of(id))).first;
      keys.add(id, std::make_unique<scr::HashVerifier>(key_of(id)));
    }
    return *it->second;
  };

  const sc::PartyId kElector = 1, kConsumer = 50;
  std::vector<sc::ClassId> pref;
  for (sc::ClassId c = 0; c < k; ++c) pref.push_back(c);
  sc::Elector elector(kElector, 1, signer(kElector), classifier, pref);

  // For ForceExport the promise must rank some route classes below ⊥, or
  // exporting can never be a violation: use "only 1-hop routes may be
  // exported" (null beats classes 1..k-2).
  sc::Promise promise = sc::Promise::total_order(k);
  if (fault == Fault::kForceExport) {
    promise = sc::Promise(k);
    promise.add_preference(0, k - 1);
    for (sc::ClassId cls = 1; cls + 1 < k; ++cls) promise.add_preference(k - 1, cls);
  }
  auto signed_promise = elector.promise_to(kConsumer, promise);
  sc::Consumer consumer(kConsumer, kElector, 1, classifier);
  ASSERT_FALSE(consumer.receive_promise(signed_promise, keys).has_value());

  // Producers with routes of length 2..; producer 10 has the best (shortest).
  std::map<sc::PartyId, std::unique_ptr<sc::Producer>> producers;
  for (int i = 0; i < n_producers; ++i) {
    sc::PartyId id = static_cast<sc::PartyId>(10 + i);
    producers[id] = std::make_unique<sc::Producer>(id, kElector, 1, signer(id), classifier);
    auto ack = elector.receive_announcement(
        producers[id]->announce(route_with_path(2 + static_cast<std::size_t>(i))), keys);
    ASSERT_FALSE(producers[id]->receive_ack(ack, keys).has_value());
  }

  switch (fault) {
    case Fault::kNone: break;
    case Fault::kIgnoreInput: elector.faults().ignore_producers = {10}; break;
    case Fault::kForceExport: elector.faults().force_export = {kConsumer}; break;
    case Fault::kTamperProof:
      elector.faults().ignore_producers = {10};
      elector.faults().tamper_proof_classes = {1};  // class of producer 10's 2-hop route
      break;
    case Fault::kRefuseProof:
      elector.faults().ignore_producers = {10};
      elector.faults().refuse_proof_classes = {1};
      break;
    case Fault::kEquivocate: elector.faults().equivocate_to = {kConsumer}; break;
  }

  elector.decide_and_commit(scr::seed_from_string("sweep"));

  bool detected = false;
  std::vector<sc::SignedEnvelope> commits;
  for (auto& [id, producer] : producers) {
    auto commit = elector.commitment_for(id);
    commits.push_back(commit);
    if (producer->receive_commitment(commit, keys)) detected = true;
  }
  auto consumer_commit = elector.commitment_for(kConsumer);
  commits.push_back(consumer_commit);
  if (consumer.receive_commitment(consumer_commit, keys)) detected = true;
  if (consumer.receive_offer(elector.offer_for(kConsumer), keys)) detected = true;
  if (sc::cross_check_commitments(commits, keys)) detected = true;

  for (auto& [id, producer] : producers) {
    if (auto cls = producer->my_class()) {
      if (producer->check_bit_proof(elector.bit_proof_for(*cls), keys)) detected = true;
    }
  }
  std::map<sc::ClassId, sc::SignedEnvelope> proofs;
  for (sc::ClassId cls : consumer.due_classes()) {
    if (auto proof = elector.bit_proof_for(cls)) proofs.emplace(cls, *proof);
  }
  if (consumer.check_bit_proofs(proofs, keys)) detected = true;

  if (fault == Fault::kNone) {
    EXPECT_FALSE(detected) << "spurious detection (accuracy violated)";
  } else {
    EXPECT_TRUE(detected) << "fault " << fault_name(fault) << " went undetected";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VprefFaultSweep,
    ::testing::Combine(::testing::Values(4u, 8u, 50u), ::testing::Values(1, 3, 5),
                       ::testing::Values(Fault::kNone, Fault::kIgnoreInput, Fault::kForceExport,
                                         Fault::kTamperProof, Fault::kRefuseProof,
                                         Fault::kEquivocate)),
    [](const ::testing::TestParamInfo<VprefFaultSweep::ParamType>& sweep_info) {
      return concat("k", std::to_string(std::get<0>(sweep_info.param)), "_p",
                    std::to_string(std::get<1>(sweep_info.param)), "_",
                    fault_name(std::get<2>(sweep_info.param)));
    });

// -------------------------------------------------------- MTT size sweep

class MttRoundtripSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {};

TEST_P(MttRoundtripSweep, CommitProveVerifyAndTamper) {
  const auto [n, k] = GetParam();
  spider::trace::TraceConfig config;
  config.num_prefixes = n;
  config.num_updates = 1;
  config.seed = n * 31 + k;
  auto tr = spider::trace::generate(config);

  su::SplitMix64 rng(n + k);
  std::vector<std::pair<sb::Prefix, std::vector<bool>>> entries;
  for (const auto& route : tr.rib_snapshot) {
    std::vector<bool> bits(k);
    for (std::size_t i = 0; i < k; ++i) bits[i] = rng.chance(0.3);
    entries.emplace_back(route.prefix, bits);
  }
  auto tree = sc::Mtt::build(entries, k);
  scr::CommitmentPrf prf(scr::seed_from_string("sweep-" + std::to_string(n)));
  tree.compute_labels(prf, 2);

  // Structure identity holds at every size.
  auto counts = tree.counts();
  EXPECT_EQ(counts.prefix, n);
  EXPECT_EQ(3 * counts.inner, (counts.inner - 1) + counts.prefix + counts.dummy);

  // Probe random prefixes; verify opens and any corruption is caught.
  for (int probe = 0; probe < 10; ++probe) {
    const auto& [prefix, bits] = entries[rng.below(entries.size())];
    sc::ClassId cls = static_cast<sc::ClassId>(rng.below(k));
    auto proof = tree.prove(prf, prefix, {cls});
    ASSERT_TRUE(sc::Mtt::verify(tree.root_label(), k, proof));
    EXPECT_EQ(proof.revealed[0].bit, bits[cls]);

    auto bad = proof;
    bad.revealed[0].bit = !bad.revealed[0].bit;
    EXPECT_FALSE(sc::Mtt::verify(tree.root_label(), k, bad));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MttRoundtripSweep,
                         ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{10},
                                                              std::size_t{500}, std::size_t{5000}),
                                            ::testing::Values(2u, 5u, 50u)),
                         [](const ::testing::TestParamInfo<MttRoundtripSweep::ParamType>& sweep_info) {
                           return concat("n", std::to_string(std::get<0>(sweep_info.param)),
                                         "_k", std::to_string(std::get<1>(sweep_info.param)));
                         });

// --------------------------------------------------- promise order sweep

class PromiseOrderSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PromiseOrderSweep, RandomOrdersStayStrictAndRoundtrip) {
  const std::uint32_t k = GetParam();
  su::SplitMix64 rng(k * 7919);
  for (int iter = 0; iter < 20; ++iter) {
    sc::Promise promise(k);
    // Random DAG built by only adding (a, b) with a < b: always acyclic.
    for (sc::ClassId a = 0; a < k; ++a) {
      for (sc::ClassId b = a + 1; b < k; ++b) {
        if (rng.chance(0.3)) promise.add_preference(a, b);
      }
    }
    // Strictness: irreflexive + asymmetric + transitive.
    for (sc::ClassId a = 0; a < k; ++a) {
      EXPECT_FALSE(promise.prefers(a, a));
      for (sc::ClassId b = 0; b < k; ++b) {
        if (promise.prefers(a, b)) {
          EXPECT_FALSE(promise.prefers(b, a));
        }
        for (sc::ClassId c = 0; c < k; ++c) {
          if (promise.prefers(a, b) && promise.prefers(b, c)) {
            EXPECT_TRUE(promise.prefers(a, c));
          }
        }
      }
    }
    // Encoding roundtrip and self-consistency.
    EXPECT_EQ(sc::Promise::decode(promise.encode()), promise);
    EXPECT_FALSE(promise.conflict_with(promise).has_value());
    // classes_better_than agrees with prefers().
    for (sc::ClassId c = 0; c < k; ++c) {
      for (sc::ClassId better : promise.classes_better_than(c)) {
        EXPECT_TRUE(promise.prefers(better, c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PromiseOrderSweep, ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& sweep_info) {
                           return concat("k", std::to_string(sweep_info.param));
                         });

// ------------------------------------------------ flat commitment sweep

class FlatCommitmentSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FlatCommitmentSweep, EveryBitOpensAndBinds) {
  const std::uint32_t k = GetParam();
  su::SplitMix64 rng(k);
  std::vector<bool> bits(k);
  for (std::uint32_t i = 0; i < k; ++i) bits[i] = rng.chance(0.5);
  scr::CommitmentPrf prf(scr::seed_from_string("flat-" + std::to_string(k)));
  sc::FlatCommitment commitment(bits, prf);
  for (std::uint32_t i = 0; i < k; ++i) {
    auto proof = commitment.prove(i);
    EXPECT_TRUE(sc::FlatCommitment::verify(commitment.root(), k, proof));
    EXPECT_EQ(proof.bit, bits[i]);
    proof.bit = !proof.bit;
    EXPECT_FALSE(sc::FlatCommitment::verify(commitment.root(), k, proof));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlatCommitmentSweep,
                         ::testing::Values(1u, 2u, 3u, 12u, 50u, 128u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& sweep_info) {
                           return concat("k", std::to_string(sweep_info.param));
                         });
