// VPref protocol tests: full rounds over every role, plus the paper's four
// theorems (Verifiability, Evidence, Accuracy, Privacy) and Theorem 5
// (inconsistent promises) exercised as executable properties.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "core/vpref.hpp"
#include "util/rng.hpp"

namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace su = spider::util;

using sc::ClassId;
using sc::Detection;
using sc::FaultKind;
using sc::PartyId;
using sc::Promise;

namespace {

/// x_i of the elector's flat commitment: window i % 3 of the bit triple at
/// i / 3.
su::Digest20 flat_x(const scr::CommitmentPrf& prf, ClassId i) {
  return prf.derive3(scr::CommitmentPrf::Domain::kBit, i / 3)[i % 3];
}

sb::Route route_with_path(std::size_t hops) {
  sb::Route r;
  r.prefix = sb::Prefix::parse("10.0.0.0/8");
  for (std::size_t i = 0; i < hops; ++i) r.as_path.push_back(static_cast<sb::AsNumber>(100 + i));
  r.learned_from = r.as_path.empty() ? 0 : r.as_path.front();
  return r;
}

su::Bytes key_bytes(PartyId id) {
  std::string s = "party-key-" + std::to_string(id);
  return su::Bytes(s.begin(), s.end());
}

/// A complete single-prefix VPref round with freely configurable inputs,
/// promises and injected faults.  Runs both phases and records every
/// detection along with who made it.
struct Round {
  static constexpr PartyId kElectorId = 1;

  explicit Round(std::uint32_t k = 4) : classifier(k) {}

  sc::PathLengthClassifier classifier;
  std::map<PartyId, std::optional<sb::Route>> producer_routes;
  std::map<PartyId, Promise> consumer_promises;
  sc::Elector::Faults faults;
  std::vector<ClassId> true_pref;  // empty = identity (matches total_order)

  // Populated by run():
  sc::KeyRegistry keys;
  std::map<PartyId, std::unique_ptr<scr::HashSigner>> signers;
  std::unique_ptr<sc::Elector> elector;
  std::map<PartyId, std::unique_ptr<sc::Producer>> producers;
  std::map<PartyId, std::unique_ptr<sc::Consumer>> consumers;
  std::map<PartyId, sc::SignedEnvelope> commitments;  // as received per party
  std::vector<std::pair<PartyId, Detection>> detections;

  scr::HashSigner& signer(PartyId id) {
    auto it = signers.find(id);
    if (it == signers.end()) {
      it = signers.emplace(id, std::make_unique<scr::HashSigner>(key_bytes(id))).first;
      keys.add(id, std::make_unique<scr::HashVerifier>(key_bytes(id)));
    }
    return *it->second;
  }

  void note(PartyId who, const std::optional<Detection>& detection) {
    if (detection) detections.emplace_back(who, *detection);
  }

  void run() {
    const std::uint32_t k = classifier.num_classes();
    if (true_pref.empty()) {
      for (ClassId c = 0; c < k; ++c) true_pref.push_back(c);
    }
    elector = std::make_unique<sc::Elector>(kElectorId, 1, signer(kElectorId), classifier,
                                            true_pref);
    elector->faults() = faults;

    // Out-of-band: signed promises.
    for (const auto& [cid, promise] : consumer_promises) {
      auto signed_promise = elector->promise_to(cid, promise);
      consumers.emplace(cid, std::make_unique<sc::Consumer>(cid, kElectorId, 1, classifier));
      signer(cid);  // register key
      note(cid, consumers[cid]->receive_promise(signed_promise, keys));
    }

    // Commitment phase, steps 1-2.
    for (const auto& [pid, route] : producer_routes) {
      producers.emplace(pid, std::make_unique<sc::Producer>(pid, kElectorId, 1, signer(pid),
                                                            classifier));
      auto announce = producers[pid]->announce(route);
      auto ack = elector->receive_announcement(announce, keys);
      note(pid, producers[pid]->receive_ack(ack, keys));
    }

    // Steps 3-5.
    elector->decide_and_commit(scr::seed_from_string("round-seed"));
    for (auto& [pid, producer] : producers) {
      auto commit = elector->commitment_for(pid);
      commitments.emplace(pid, commit);
      note(pid, producer->receive_commitment(commit, keys));
    }
    for (auto& [cid, consumer] : consumers) {
      auto commit = elector->commitment_for(cid);
      commitments.emplace(cid, commit);
      note(cid, consumer->receive_commitment(commit, keys));
    }

    // Step 6.
    for (auto& [cid, consumer] : consumers) {
      note(cid, consumer->receive_offer(elector->offer_for(cid), keys));
    }

    // Verification phase: cross-check commitments, then bit proofs.
    std::vector<sc::SignedEnvelope> all_commits;
    for (const auto& [pid, commit] : commitments) all_commits.push_back(commit);
    if (auto pair = sc::cross_check_commitments(all_commits, keys)) {
      Detection d{FaultKind::kInconsistentCommit, kElectorId, "equivocation"};
      detections.emplace_back(0, d);
    }

    for (auto& [pid, producer] : producers) {
      if (auto cls = producer->my_class()) {
        note(pid, producer->check_bit_proof(elector->bit_proof_for(*cls), keys));
      }
    }
    for (auto& [cid, consumer] : consumers) {
      std::map<ClassId, sc::SignedEnvelope> proofs;
      for (ClassId cls : consumer->due_classes()) {
        if (auto proof = elector->bit_proof_for(cls)) proofs.emplace(cls, *proof);
      }
      note(cid, consumer->check_bit_proofs(proofs, keys));
    }
  }

  bool detected(FaultKind kind) const {
    for (const auto& [who, d] : detections) {
      if (d.kind == kind) return true;
    }
    return false;
  }
};

}  // namespace

// ------------------------------------------------------- honest execution

TEST(Vpref, HonestRunProducesNoDetections) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.producer_routes[11] = route_with_path(2);
  round.producer_routes[12] = std::nullopt;  // a producer advertising ⊥
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.consumer_promises.emplace(21, Promise::total_order(4));
  round.run();
  EXPECT_TRUE(round.detections.empty());
  ASSERT_TRUE(round.elector->chosen().has_value());
  EXPECT_EQ(round.elector->chosen_class(), 0u);  // the 1-hop route wins
}

TEST(Vpref, HonestElectorOffersChosenRouteToConsumers) {
  Round round;
  round.producer_routes[10] = route_with_path(2);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  ASSERT_TRUE(round.consumers[20]->offered_route().has_value());
  EXPECT_EQ(round.consumers[20]->offered_route()->path_length(), 2u);
}

TEST(Vpref, BitsReflectInputsAndNullRoute) {
  Round round;
  round.producer_routes[10] = route_with_path(2);  // class 1
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  const auto& bits = round.elector->bits();
  EXPECT_FALSE(bits[0]);
  EXPECT_TRUE(bits[1]);   // the input
  EXPECT_TRUE(bits[3]);   // ⊥ is always available
  // Class 2 is worse than the chosen class 1 under the promise => bit set.
  EXPECT_TRUE(bits[2]);
}

TEST(Vpref, NoInputsElectorOffersNull) {
  Round round;
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  EXPECT_TRUE(round.detections.empty());
  EXPECT_FALSE(round.elector->chosen().has_value());
  EXPECT_FALSE(round.consumers[20]->offered_route().has_value());
  // The consumer demanded proofs for every class better than ⊥ — all 0.
  EXPECT_EQ(round.consumers[20]->due_classes().size(), 3u);
}

TEST(Vpref, ProducerSendingNullGetsNoProofAndRaisesNothing) {
  Round round;
  round.producer_routes[10] = std::nullopt;
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  EXPECT_TRUE(round.detections.empty());
  EXPECT_FALSE(round.producers[10]->my_class().has_value());
}

// ------------------------------------------------ Theorem 1: verifiability

TEST(Vpref, Theorem1_OveraggressiveFilterDetectedByProducer) {
  // §7.4 fault 1: the elector ignores a good route from an upstream AS.
  Round round;
  round.producer_routes[10] = route_with_path(1);  // the good route, class 0
  round.producer_routes[11] = route_with_path(3);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.ignore_producers = {10};
  round.run();
  EXPECT_TRUE(round.detected(FaultKind::kOmittedInput));
  // And it is producer 10 who detects.
  bool by_producer = false;
  for (const auto& [who, d] : round.detections) {
    if (who == 10 && d.kind == FaultKind::kOmittedInput) by_producer = true;
  }
  EXPECT_TRUE(by_producer);
}

TEST(Vpref, Theorem1_WronglyExportingDetectedByConsumer) {
  // §7.4 fault 2 (transposed to path classes): the promise ranks class 2
  // below ⊥ (class 3) — "never export such routes" — but the elector
  // exports one anyway.
  Round round;
  // Promise: 0 > 1 > 3(⊥) > 2 — class-2 routes must never be exported.
  Promise promise(4);
  promise.add_preference(0, 1);
  promise.add_preference(1, 3);
  promise.add_preference(3, 2);
  round.consumer_promises.emplace(20, promise);
  round.producer_routes[10] = route_with_path(3);  // class 2
  // Elector privately prefers any route over ⊥ (true pref: 0,1,2,3).
  round.true_pref = {0, 1, 2, 3};
  round.faults.force_export = {20};
  round.run();
  // The consumer received a class-2 route but holds a proof that class 3
  // (the null route, better under its promise) was available.
  EXPECT_TRUE(round.detected(FaultKind::kBrokenPromise));
}

TEST(Vpref, Theorem1_TamperedBitProofDetected) {
  // §7.4 fault 3: the elector flips a bit in a proof to hide a good route.
  Round round;
  round.producer_routes[10] = route_with_path(1);  // class 0
  round.producer_routes[11] = route_with_path(3);  // class 2
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.ignore_producers = {10};      // hide the good route
  round.faults.tamper_proof_classes = {0};   // and lie to whoever asks about it
  round.run();
  // The producer (or the consumer, who also asks about class 0) sees a
  // proof that does not open the commitment.
  EXPECT_TRUE(round.detected(FaultKind::kInvalidBitProof));
}

TEST(Vpref, Theorem1_BrokenPromiseWithoutFilterDetected) {
  // The elector's private order conflicts with the promise: it prefers
  // longer routes, promise says shorter.  Consumer must detect.
  Round round;
  round.producer_routes[10] = route_with_path(1);  // class 0
  round.producer_routes[11] = route_with_path(3);  // class 2
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.true_pref = {2, 1, 0, 3};  // privately prefers class 2!
  round.run();
  EXPECT_TRUE(round.detected(FaultKind::kBrokenPromise));
}

TEST(Vpref, Theorem1_EquivocationDetectedByCrossCheck) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.equivocate_to = {20};
  round.run();
  EXPECT_TRUE(round.detected(FaultKind::kInconsistentCommit));
}

TEST(Vpref, Theorem1_RefusedProofDetected) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.ignore_producers = {10};
  round.faults.refuse_proof_classes = {0};
  round.run();
  EXPECT_TRUE(round.detected(FaultKind::kMissingBitProof));
}

// Randomized sweep: any ignored producer with a route strictly better than
// what remains is detected by someone.
TEST(Vpref, Theorem1_RandomizedFilterSweep) {
  su::SplitMix64 rng(20120813);
  for (int iter = 0; iter < 25; ++iter) {
    Round round(6);
    std::size_t n_producers = 1 + rng.below(4);
    for (std::size_t i = 0; i < n_producers; ++i) {
      round.producer_routes[static_cast<PartyId>(10 + i)] =
          route_with_path(1 + rng.below(4));
    }
    round.consumer_promises.emplace(20, Promise::total_order(6));
    PartyId victim = static_cast<PartyId>(10 + rng.below(n_producers));
    round.faults.ignore_producers = {victim};
    round.run();
    // The victim's proof shows bit 0 for its class unless another
    // considered input (or clause-2 padding) sets the same class bit.
    // In every case where the elector's choice got *worse*, someone must
    // notice; when the ignored route was not uniquely best, the filter may
    // be invisible — which the paper permits (the promise still holds).
    bool ignored_was_strictly_best = true;
    auto victim_len = round.producer_routes[victim]->path_length();
    for (const auto& [pid, r] : round.producer_routes) {
      if (pid != victim && r && r->path_length() <= victim_len) {
        ignored_was_strictly_best = false;
      }
    }
    if (ignored_was_strictly_best) {
      EXPECT_FALSE(round.detections.empty())
          << "iter " << iter << ": strictly-best route hidden but nobody noticed";
    }
  }
}

// --------------------------------------------------- Theorem 2: evidence

TEST(Vpref, Theorem2_ProducerChallengeConvictsFilteringElector) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.ignore_producers = {10};
  round.run();
  ASSERT_TRUE(round.detected(FaultKind::kOmittedInput));

  // The producer broadcasts its challenge; a third party re-challenges the
  // elector and judges the response.
  auto challenge = round.producers[10]->make_challenge();
  auto response = round.elector->bit_proof_for(0);
  auto verdict = sc::judge_producer_challenge(challenge, round.commitments.at(10), response,
                                              round.keys, round.classifier);
  EXPECT_EQ(verdict, sc::Verdict::kElectorGuilty);
}

TEST(Vpref, Theorem2_ProducerChallengeSurvivesSerialization) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.ignore_producers = {10};
  round.run();
  auto challenge = sc::ProducerChallenge::decode(round.producers[10]->make_challenge().encode());
  auto verdict = sc::judge_producer_challenge(challenge, round.commitments.at(10),
                                              round.elector->bit_proof_for(0), round.keys,
                                              round.classifier);
  EXPECT_EQ(verdict, sc::Verdict::kElectorGuilty);
}

TEST(Vpref, Theorem2_RefusalConvicts) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.ignore_producers = {10};
  round.run();
  auto challenge = round.producers[10]->make_challenge();
  auto verdict = sc::judge_producer_challenge(challenge, round.commitments.at(10), std::nullopt,
                                              round.keys, round.classifier);
  EXPECT_EQ(verdict, sc::Verdict::kElectorGuilty);
}

TEST(Vpref, Theorem2_ConsumerChallengeConvictsBrokenPromise) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.producer_routes[11] = route_with_path(3);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.true_pref = {2, 1, 0, 3};  // elector privately inverts the order
  round.run();
  ASSERT_TRUE(round.detected(FaultKind::kBrokenPromise));

  auto challenge = sc::ConsumerChallenge::decode(round.consumers[20]->make_challenge().encode());
  std::map<ClassId, sc::SignedEnvelope> responses;
  for (ClassId cls = 0; cls < 4; ++cls) {
    if (auto proof = round.elector->bit_proof_for(cls)) responses.emplace(cls, *proof);
  }
  auto verdict = sc::judge_consumer_challenge(challenge, round.commitments.at(20), responses,
                                              round.keys, round.classifier);
  EXPECT_EQ(verdict, sc::Verdict::kElectorGuilty);
}

TEST(Vpref, Theorem2_InvalidCommitPairIsSelfContainedEvidence) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.faults.equivocate_to = {20};
  round.run();
  EXPECT_TRUE(sc::validate_inconsistent_commit(round.commitments.at(10),
                                               round.commitments.at(20), round.keys));
  // Same commitment twice is NOT evidence.
  EXPECT_FALSE(sc::validate_inconsistent_commit(round.commitments.at(10),
                                                round.commitments.at(10), round.keys));
}

// --------------------------------------------------- Theorem 3: accuracy

TEST(Vpref, Theorem3_NoEvidenceAgainstCorrectElector) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.producer_routes[11] = route_with_path(2);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  ASSERT_TRUE(round.detections.empty());

  // A malicious producer fabricates a challenge anyway: the judge must
  // exonerate the elector, because the elector can answer.
  auto challenge = round.producers[11]->make_challenge();
  auto response = round.elector->bit_proof_for(1);  // class of producer 11's route
  auto verdict = sc::judge_producer_challenge(challenge, round.commitments.at(11), response,
                                              round.keys, round.classifier);
  EXPECT_EQ(verdict, sc::Verdict::kChallengeRejected);

  // Same for a spurious consumer challenge.
  auto cchallenge = round.consumers[20]->make_challenge();
  std::map<ClassId, sc::SignedEnvelope> responses;
  for (ClassId cls = 0; cls < 4; ++cls) {
    if (auto proof = round.elector->bit_proof_for(cls)) responses.emplace(cls, *proof);
  }
  auto cverdict = sc::judge_consumer_challenge(cchallenge, round.commitments.at(20), responses,
                                               round.keys, round.classifier);
  EXPECT_EQ(cverdict, sc::Verdict::kChallengeRejected);
}

TEST(Vpref, Theorem3_ForgedChallengeRejected) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  auto challenge = round.producers[10]->make_challenge();
  // Tamper with the announcement: the producer's signature no longer holds.
  challenge.announce.payload.back() ^= 1;
  auto verdict = sc::judge_producer_challenge(challenge, round.commitments.at(10),
                                              round.elector->bit_proof_for(0), round.keys,
                                              round.classifier);
  EXPECT_EQ(verdict, sc::Verdict::kChallengeRejected);
}

TEST(Vpref, Theorem3_RandomizedHonestSweep) {
  su::SplitMix64 rng(777);
  for (int iter = 0; iter < 20; ++iter) {
    Round round(5);
    std::size_t n_producers = rng.below(4);
    for (std::size_t i = 0; i < n_producers; ++i) {
      if (rng.chance(0.2)) {
        round.producer_routes[static_cast<PartyId>(10 + i)] = std::nullopt;
      } else {
        round.producer_routes[static_cast<PartyId>(10 + i)] = route_with_path(1 + rng.below(4));
      }
    }
    std::size_t n_consumers = 1 + rng.below(3);
    for (std::size_t i = 0; i < n_consumers; ++i) {
      // Random sub-promises of the total order: pick a subset of pairs.
      Promise promise(5);
      for (ClassId a = 0; a < 5; ++a) {
        for (ClassId b = a + 1; b < 5; ++b) {
          if (rng.chance(0.5)) promise.add_preference(a, b);
        }
      }
      round.consumer_promises.emplace(static_cast<PartyId>(20 + i), promise);
    }
    round.run();
    EXPECT_TRUE(round.detections.empty()) << "iter " << iter;
  }
}

// ---------------------------------------------------- Theorem 4: privacy

TEST(Vpref, Theorem4_UnqueriedRandomnessNeverReachesConsumer) {
  Round round;
  round.producer_routes[10] = route_with_path(1);  // class 0 (chosen)
  round.producer_routes[11] = route_with_path(3);  // class 2 (hidden from consumer)
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  ASSERT_TRUE(round.detections.empty());

  // Gather every byte the consumer received.
  su::Bytes consumer_view;
  su::append(consumer_view, round.commitments.at(20).encode());
  su::append(consumer_view, round.elector->offer_for(20).encode());
  for (ClassId cls : round.consumers[20]->due_classes()) {
    if (auto proof = round.elector->bit_proof_for(cls)) {
      su::append(consumer_view, proof->encode());
    }
  }

  // The consumer was offered class 0, so it queried nothing (no better
  // classes).  The x values of classes 1..3 must not appear anywhere.
  scr::CommitmentPrf prf(scr::seed_from_string("round-seed"));
  for (ClassId cls = 1; cls < 4; ++cls) {
    auto secret = flat_x(prf, cls);
    auto it = std::search(consumer_view.begin(), consumer_view.end(), secret.begin(), secret.end());
    EXPECT_EQ(it, consumer_view.end()) << "x for class " << cls << " leaked to consumer";
  }
}

TEST(Vpref, Theorem4_ConsumerViewIndependentOfHiddenInputs) {
  // Two worlds: in A, producer 11 offers a (worse) route; in B it offers ⊥.
  // The consumer is offered the same winning route in both; the bits it is
  // entitled to see (better classes) are identical, so its *checked view*
  // (offer + revealed bits) is identical.  Roots differ only through
  // unopenable randomness.
  auto build = [](bool world_a) {
    auto round = std::make_unique<Round>(4);
    round->producer_routes[10] = route_with_path(2);  // class 1, the winner
    if (world_a) round->producer_routes[11] = route_with_path(4);  // class 3... careful: 3 = ⊥ class
    round->consumer_promises.emplace(20, Promise::total_order(4));
    round->run();
    return round;
  };
  auto a = build(true);
  auto b = build(false);
  EXPECT_TRUE(a->detections.empty());
  EXPECT_TRUE(b->detections.empty());
  EXPECT_EQ(a->consumers[20]->offered_route(), b->consumers[20]->offered_route());
  EXPECT_EQ(a->consumers[20]->due_classes(), b->consumers[20]->due_classes());
  // Every bit the consumer checks is 0 in both worlds — it cannot tell the
  // worlds apart from what it verifies.
  for (ClassId cls : a->consumers[20]->due_classes()) {
    EXPECT_FALSE(a->elector->bits()[cls]);
    EXPECT_FALSE(b->elector->bits()[cls]);
  }
}

TEST(Vpref, Theorem4_ProducerLearnsOnlyItsOwnBit) {
  Round round;
  round.producer_routes[10] = route_with_path(2);
  round.producer_routes[11] = route_with_path(3);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();

  // Producer 10's bit proof reveals x only for class 1 (its own class).
  auto proof_env = round.elector->bit_proof_for(1);
  ASSERT_TRUE(proof_env.has_value());
  auto payload = sc::BitProofPayload::decode(proof_env->payload);
  scr::CommitmentPrf prf(scr::seed_from_string("round-seed"));
  EXPECT_EQ(payload.proof.x, flat_x(prf, 1));
  auto encoded = proof_env->encode();
  for (ClassId other : {0u, 2u, 3u}) {
    auto secret = flat_x(prf, other);
    auto it = std::search(encoded.begin(), encoded.end(), secret.begin(), secret.end());
    EXPECT_EQ(it, encoded.end());
  }
}

// --------------------------------------- Theorem 5: inconsistent promises

TEST(Vpref, Theorem5_InconsistentPromisesForceViolation) {
  // C_20 is promised class 1 > class 2; C_21 is promised class 2 > class 1.
  // With inputs in both classes, any non-null choice breaks one promise.
  Promise p20(4), p21(4);
  p20.add_preference(1, 2);
  p21.add_preference(2, 1);
  ASSERT_TRUE(p20.conflict_with(p21).has_value());

  for (const std::vector<ClassId>& pref :
       {std::vector<ClassId>{1, 2, 0, 3}, std::vector<ClassId>{2, 1, 0, 3}}) {
    Round round;
    round.producer_routes[10] = route_with_path(2);  // class 1
    round.producer_routes[11] = route_with_path(3);  // class 2
    round.consumer_promises.emplace(20, p20);
    round.consumer_promises.emplace(21, p21);
    round.true_pref = pref;
    round.run();
    EXPECT_TRUE(round.detected(FaultKind::kBrokenPromise))
        << "no violation detected for preference starting with " << pref[0];
  }
}

// ----------------------------------------------------- message hardening

TEST(Vpref, ElectorRejectsBadAnnouncementSignature) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  auto announce = round.producers[10]->make_challenge().announce;
  announce.signature.back() ^= 1;
  EXPECT_THROW((void)round.elector->receive_announcement(announce, round.keys),
               std::invalid_argument);
}

TEST(Vpref, ConsumerRejectsForgedOffer) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  auto offer = round.elector->offer_for(20);
  offer.payload[offer.payload.size() / 2] ^= 1;
  sc::Consumer fresh(20, Round::kElectorId, 1, round.classifier);
  auto detection = fresh.receive_offer(offer, round.keys);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, FaultKind::kBadSignature);
}

TEST(Vpref, ConsumerRejectsFabricatedRouteInOffer) {
  // An offer whose embedded producer announcement does not match the route
  // (the elector invented a route) must be rejected.
  Round round;
  round.producer_routes[10] = route_with_path(2);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  auto offer_env = round.elector->offer_for(20);
  auto offer = sc::OfferPayload::decode(offer_env.payload);
  ASSERT_TRUE(offer.route.has_value());
  offer.route->as_path.pop_back();  // shorten the path: a "better" fake
  auto forged = sc::sign_envelope(Round::kElectorId, round.signer(Round::kElectorId),
                                  offer.encode());
  sc::Consumer fresh(20, Round::kElectorId, 1, round.classifier);
  auto detection = fresh.receive_offer(forged, round.keys);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, FaultKind::kMalformedMessage);
}

TEST(Vpref, ProducerDetectsMissingAck) {
  Round round;
  sc::Producer producer(10, Round::kElectorId, 1, round.signer(10), round.classifier);
  producer.announce(route_with_path(1));
  auto detection = producer.receive_ack(std::nullopt, round.keys);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, FaultKind::kMissingMessage);
}

TEST(Vpref, ProducerDetectsAckForWrongAnnouncement) {
  Round round;
  round.producer_routes[10] = route_with_path(1);
  round.consumer_promises.emplace(20, Promise::total_order(4));
  round.run();
  sc::Producer fresh(11, Round::kElectorId, 1, round.signer(11), round.classifier);
  fresh.announce(route_with_path(2));
  // Hand it the ACK that was issued for producer 10's announcement.
  auto wrong_ack = round.elector->receive_announcement(
      round.producers[10]->make_challenge().announce, round.keys);
  auto detection = fresh.receive_ack(wrong_ack, round.keys);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, FaultKind::kMalformedMessage);
}

TEST(Vpref, FaultKindNamesAreStable) {
  EXPECT_EQ(sc::fault_kind_name(FaultKind::kBrokenPromise), "broken-promise");
  EXPECT_EQ(sc::fault_kind_name(FaultKind::kOmittedInput), "omitted-input");
  EXPECT_EQ(sc::fault_kind_name(FaultKind::kNone), "none");
}
