// Extended SPIDeR features: link failures + retransmission (Assumption 7),
// MRAI batching (§6.4), retention pruning and periodic checkpoints (§6.5),
// evidence quoting from real recorder logs (§6.3), and subtree
// verification (§7.3).
#include <gtest/gtest.h>

#include "spider/checker.hpp"
#include "spider/deployment.hpp"
#include "spider/evidence.hpp"
#include "spider/proof_generator.hpp"

namespace sp = spider::proto;
namespace sc = spider::core;
namespace sb = spider::bgp;
namespace st = spider::trace;
namespace sn = spider::netsim;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

st::RouteViewsTrace tiny_trace(std::size_t prefixes = 150, std::uint64_t seed = 99) {
  st::TraceConfig config;
  config.num_prefixes = prefixes;
  config.num_updates = 80;
  config.duration = 20 * kSecond;
  config.seed = seed;
  return st::generate(config);
}

sp::DeploymentConfig tiny_config() {
  sp::DeploymentConfig config;
  config.num_classes = 8;
  config.commit_ases = {};
  return config;
}

}  // namespace

// ------------------------------------------------------- netsim failures

TEST(LinkFailure, DroppedMessagesAreCounted) {
  sp::Fig5Deployment deploy(tiny_config());
  auto& sim = deploy.sim();
  auto s2 = deploy.speaker(2).node_id();
  auto s5 = deploy.speaker(5).node_id();
  ASSERT_TRUE(sim.link_up(s2, s5));
  sim.set_link_up(s2, s5, false);
  sim.send(s2, s5, spider::util::str_bytes("lost"));
  EXPECT_EQ(sim.dropped_messages(s2, s5), 1u);
  sim.set_link_up(s2, s5, true);
  sim.send(s2, s5, spider::util::str_bytes("delivered"));
  EXPECT_EQ(sim.dropped_messages(s2, s5), 1u);
}

TEST(LinkFailure, RecorderRetransmitsUntilLinkHeals) {
  // Assumption 7: disruptions are eventually repaired, and correct
  // recorders keep retrying until the ACK arrives.
  auto tr = tiny_trace();
  sp::Fig5Deployment deploy(tiny_config());
  auto& sim = deploy.sim();
  auto r2 = deploy.recorder_node(2);
  auto r5 = deploy.recorder_node(5);

  // Break the recorder link across the first injection burst (setup
  // chunks start at ~5 s), then heal it.
  sim.set_link_up(r2, r5, false);
  sim.schedule_at(8 * kSecond, [&sim, r2, r5] { sim.set_link_up(r2, r5, true); });

  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 10 * kSecond);

  // Messages were dropped, retransmissions happened, and after healing the
  // mirror converged: AS5 knows AS2's exports exactly.
  EXPECT_GT(sim.dropped_messages(r2, r5), 0u);
  EXPECT_GT(deploy.recorder(2).retransmissions(), 0u);
  auto as5_view = deploy.recorder(5).my_imports_from(2);
  auto as2_view = deploy.recorder(2).my_exports_to(5);
  EXPECT_EQ(as5_view.size(), as2_view.size());
}

TEST(LinkFailure, PermanentFailureRaisesAlarm) {
  auto tr = tiny_trace();
  sp::Fig5Deployment deploy(tiny_config());
  auto& sim = deploy.sim();
  sim.set_link_up(deploy.recorder_node(2), deploy.recorder_node(5), false);
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 20 * kSecond);
  // The sender exhausted its retransmissions and raised the T_max alarm.
  bool found = false;
  for (const auto& alarm : deploy.recorder(2).alarms()) {
    if (alarm.find("no ACK") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------------ MRAI

TEST(Mrai, BatchesUpdatesTowardNeighbor) {
  sn::Simulator sim;
  sb::Speaker a(sim, 1, sb::Policy{}), b(sim, 2, sb::Policy{});
  auto na = sim.add_node(a, "a");
  auto nb = sim.add_node(b, "b");
  sim.connect(na, nb, 1000);
  a.add_neighbor(2, nb);
  b.add_neighbor(1, na);
  a.set_mrai(5 * kSecond);

  // Two quick originations: without MRAI these would be two UPDATEs.
  a.originate(sb::Prefix::parse("10.0.0.0/8"));
  sim.run_until(kSecond);
  a.originate(sb::Prefix::parse("11.0.0.0/8"));
  sim.run();

  EXPECT_EQ(a.updates_sent(), 2u);  // first immediate, second held by MRAI
  EXPECT_NE(b.loc_rib().find(sb::Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_NE(b.loc_rib().find(sb::Prefix::parse("11.0.0.0/8")), nullptr);
}

TEST(Mrai, SupersededChangeCollapses) {
  sn::Simulator sim;
  sb::Speaker a(sim, 1, sb::Policy{}), b(sim, 2, sb::Policy{});
  auto na = sim.add_node(a, "a");
  auto nb = sim.add_node(b, "b");
  sim.connect(na, nb, 1000);
  a.add_neighbor(2, nb);
  b.add_neighbor(1, na);
  a.set_mrai(5 * kSecond);

  a.originate(sb::Prefix::parse("10.0.0.0/8"));  // sent immediately
  sim.run_until(kSecond);
  // Announce then withdraw within one MRAI window: only the withdraw ships.
  a.originate(sb::Prefix::parse("12.0.0.0/8"));
  a.withdraw_origin(sb::Prefix::parse("12.0.0.0/8"));
  sim.run();

  EXPECT_EQ(b.loc_rib().find(sb::Prefix::parse("12.0.0.0/8")), nullptr);
  // 10/8 up front, one merged update later.
  EXPECT_EQ(a.updates_sent(), 2u);
}

TEST(Mrai, DisabledMeansImmediate) {
  sn::Simulator sim;
  sb::Speaker a(sim, 1, sb::Policy{}), b(sim, 2, sb::Policy{});
  auto na = sim.add_node(a, "a");
  auto nb = sim.add_node(b, "b");
  sim.connect(na, nb, 1000);
  a.add_neighbor(2, nb);
  b.add_neighbor(1, na);
  a.originate(sb::Prefix::parse("10.0.0.0/8"));
  a.originate(sb::Prefix::parse("11.0.0.0/8"));
  sim.run();
  EXPECT_EQ(a.updates_sent(), 2u);
}

// -------------------------------------------- retention and checkpoints

TEST(Retention, PruneKeepsRecentCommitmentsVerifiable) {
  auto tr = tiny_trace();
  sp::DeploymentConfig config = tiny_config();
  sp::Fig5Deployment deploy(config);
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);

  // Two commitments with a checkpoint in between.
  const auto t1 = deploy.recorder(5).make_commitment().timestamp;
  deploy.sim().run();
  deploy.recorder(5).make_checkpoint();
  deploy.sim().run_until(deploy.sim().now() + 10 * kSecond);
  auto& rec = deploy.recorder(5);
  const auto t2 = rec.make_commitment().timestamp;
  deploy.sim().run();
  ASSERT_LT(t1, t2);

  // Retention cutoff between the two: the old commitment becomes
  // unverifiable, the new one still reconstructs bit-identically.
  rec.enforce_retention(t1 + 1);
  EXPECT_TRUE(rec.log().verify_chain());
  sp::ProofGenerator generator(rec);
  EXPECT_THROW((void)generator.reconstruct(t1), std::invalid_argument);
  auto recon = generator.reconstruct(t2);
  EXPECT_TRUE(recon.root_matches);
}

TEST(Retention, PeriodicCheckpointsBoundReplay) {
  auto tr = tiny_trace();
  sp::DeploymentConfig config = tiny_config();
  sp::Fig5Deployment deploy(config);
  // Restarting recorders isn't supported; instead drive checkpoints
  // manually at several times and confirm the proof generator picks the
  // latest one before T (replay window shrinks).
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.recorder(5).make_checkpoint();
  deploy.run_replay(tr, start, 5 * kSecond);
  deploy.recorder(5).make_checkpoint();

  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();
  sp::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);
  // The base checkpoint used must be the latest one at/before T.
  const auto* base = deploy.recorder(5).log().checkpoint_before(record.timestamp);
  ASSERT_NE(base, nullptr);
  EXPECT_GE(base->timestamp, start);
}

// --------------------------------------------- evidence from real logs

TEST(EvidenceFromLogs, ImportEvidenceBuildsAndUpholds) {
  auto tr = tiny_trace();
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);

  // AS2 proves to a third party that it was exporting some route to AS5.
  auto exports = deploy.recorder(2).my_exports_to(5);
  ASSERT_FALSE(exports.empty());
  const sb::Prefix prefix = exports.begin()->first;
  const sn::Time now = deploy.sim().now();

  auto quote = deploy.recorder(2).find_announce_quote(sp::LogDirection::kSent, 5, prefix, now);
  ASSERT_TRUE(quote.has_value());
  auto ack = deploy.recorder(2).find_ack_for(quote->batch.digest());
  ASSERT_TRUE(ack.has_value());

  sp::ImportEvidence evidence{{*quote}, *ack};
  EXPECT_EQ(sp::check_evidence_of_import(evidence, now + 1, std::nullopt, deploy.keys()),
            sp::EvidenceVerdict::kUpheld);
}

TEST(EvidenceFromLogs, AckRidingAMixedBatchUpholdsImportEvidence) {
  // ACKs ride the next batch to their neighbour, beside that neighbour's
  // own announces and withdraws.  Such a mixed batch is still the ACK
  // evidence of import needs: find_ack_for returns it and the verdict
  // checks it like any other batch.
  auto tr = tiny_trace();
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);
  const sn::Time now = deploy.sim().now();

  std::size_t mixed = 0;
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    const sp::Recorder& recorder = deploy.recorder(asn);
    for (const sp::LogEntry& entry : recorder.log().entries()) {
      if (entry.direction != sp::LogDirection::kSent) continue;
      const auto envelope = sc::SignedEnvelope::decode(entry.message);
      const auto batch = sp::SpiderBatch::decode(envelope.payload);
      std::optional<std::uint32_t> announce;
      for (std::uint32_t i = 0; i < batch.parts.size() && !announce; ++i) {
        if (batch.parts[i].type == sp::SpiderMsgType::kAnnounce) announce = i;
      }
      if (!announce) continue;
      auto ack = recorder.find_ack_for(envelope.digest());
      ASSERT_TRUE(ack.has_value()) << "AS" << asn << " batch to AS" << entry.peer_as;
      const auto ack_batch = sp::SpiderBatch::decode(ack->payload);
      const bool carries_more =
          std::any_of(ack_batch.parts.begin(), ack_batch.parts.end(),
                      [](const auto& part) { return part.type != sp::SpiderMsgType::kAck; });
      if (!carries_more) continue;
      ++mixed;
      sp::ImportEvidence evidence{{sp::MessageQuote{envelope, *announce}}, *ack};
      EXPECT_EQ(sp::check_evidence_of_import(evidence, now + 1, std::nullopt, deploy.keys()),
                sp::EvidenceVerdict::kUpheld)
          << "AS" << asn << " batch to AS" << entry.peer_as;
    }
  }
  EXPECT_GT(mixed, 0u);
}

TEST(EvidenceFromLogs, WithdrawnRouteEvidenceIsRefutable) {
  auto tr = tiny_trace(150, 7);
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);

  // Find a prefix AS2 currently exports, then withdraw it upstream so AS2
  // sends a WITHDRAW to AS5.
  auto exports = deploy.recorder(2).my_exports_to(5);
  ASSERT_FALSE(exports.empty());
  const sb::Prefix victim = exports.begin()->first;
  sb::Update wd;
  wd.withdrawn.push_back(victim);
  deploy.speaker(2).inject(1000, wd);
  deploy.sim().run();

  const sn::Time now = deploy.sim().now();
  auto announce_quote =
      deploy.recorder(2).find_announce_quote(sp::LogDirection::kSent, 5, victim, now);
  ASSERT_TRUE(announce_quote.has_value());
  auto ack = deploy.recorder(2).find_ack_for(announce_quote->batch.digest());
  ASSERT_TRUE(ack.has_value());
  auto withdraw_quote =
      deploy.recorder(2).find_withdraw_quote(sp::LogDirection::kSent, 5, victim, now);
  ASSERT_TRUE(withdraw_quote.has_value());

  // The stale claim "I was exporting it at now+1" is refuted by AS2's own
  // logged withdraw.
  sp::ImportEvidence evidence{{*announce_quote}, *ack};
  sp::EvidenceRefutation refutation{{*withdraw_quote}, std::nullopt};
  EXPECT_EQ(sp::check_evidence_of_import(evidence, now + 1, refutation, deploy.keys()),
            sp::EvidenceVerdict::kRefuted);
}

// ------------------------------------------------- subtree verification

TEST(SubtreeVerification, ProofsRestrictedToCoveringPrefix) {
  auto tr = tiny_trace(400, 21);
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();

  sp::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  // Pick the /8 that covers the most exported prefixes.
  auto imports = deploy.recorder(6).my_imports_from(5);
  ASSERT_FALSE(imports.empty());
  const sb::Prefix subtree(imports.begin()->first.bits(), 8);

  auto full = generator.proofs_for_consumer(recon, 6);
  auto restricted = generator.proofs_for_consumer(recon, 6, subtree);
  EXPECT_LT(restricted.items.size(), full.items.size());
  EXPECT_GT(restricted.items.size(), 0u);
  EXPECT_LT(restricted.total_bytes(), full.total_bytes());
  for (const auto& item : restricted.items) {
    EXPECT_TRUE(subtree.contains(item.prefix));
  }

  // The restricted proofs verify against the same commitment, over the
  // correspondingly restricted import set.
  std::map<sb::Prefix, sb::Route> restricted_imports;
  for (const auto& [prefix, route] : imports) {
    if (subtree.contains(prefix)) restricted_imports.emplace(prefix, route);
  }
  auto commit = deploy.recorder(6).received_commitments().at(5).at(record.timestamp);
  auto detection = sp::Checker::check_consumer_proofs(
      commit, 5, sc::Promise::total_order(8), restricted_imports, restricted, 6,
      deploy.recorder(6).classifier());
  EXPECT_FALSE(detection.has_value()) << detection->detail;
}

TEST(SubtreeVerification, ProducerSideAlsoRestricts) {
  auto tr = tiny_trace(300, 22);
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();

  sp::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  auto exports = deploy.recorder(2).my_exports_to(5);
  ASSERT_FALSE(exports.empty());
  const sb::Prefix subtree(exports.begin()->first.bits(), 8);

  auto restricted = generator.proofs_for_producer(recon, 2, subtree);
  for (const auto& item : restricted.items) EXPECT_TRUE(subtree.contains(item.prefix));

  std::map<sb::Prefix, std::vector<sb::Route>> window;
  for (const auto& [prefix, route] : exports) {
    if (subtree.contains(prefix)) window[prefix] = {route};
  }
  auto commit = deploy.recorder(2).received_commitments().at(5).at(record.timestamp);
  auto detection = sp::Checker::check_producer_proofs(commit, 5, window, restricted,
                                                      deploy.recorder(2).classifier());
  EXPECT_FALSE(detection.has_value()) << detection->detail;
}

// --------------------------------------------- proof-set serialization

TEST(ProofSerialization, ProducerAndConsumerProofsRoundtrip) {
  auto tr = tiny_trace(120, 31);
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();

  sp::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  auto pproofs = generator.proofs_for_producer(recon, 2);
  auto pdecoded = sp::ProducerProofs::decode(pproofs.encode());
  ASSERT_EQ(pdecoded.items.size(), pproofs.items.size());
  EXPECT_EQ(pdecoded.commit_time, pproofs.commit_time);
  EXPECT_EQ(pdecoded.total_bytes(), pproofs.total_bytes());

  auto cproofs = generator.proofs_for_consumer(recon, 6);
  auto cdecoded = sp::ConsumerProofs::decode(cproofs.encode());
  ASSERT_EQ(cdecoded.items.size(), cproofs.items.size());

  // The decoded sets still satisfy the checkers against the commitment.
  auto commit2 = deploy.recorder(2).received_commitments().at(5).at(record.timestamp);
  std::map<sb::Prefix, std::vector<sb::Route>> window;
  for (const auto& [p, r] : deploy.recorder(2).my_exports_to(5)) window[p] = {r};
  EXPECT_FALSE(sp::Checker::check_producer_proofs(commit2, 5, window, pdecoded,
                                                  deploy.recorder(2).classifier()));
  auto commit6 = deploy.recorder(6).received_commitments().at(5).at(record.timestamp);
  EXPECT_FALSE(sp::Checker::check_consumer_proofs(commit6, 5, sc::Promise::total_order(8),
                                                  deploy.recorder(6).my_imports_from(5),
                                                  cdecoded, 6, deploy.recorder(6).classifier()));
}

TEST(ProofSerialization, TamperedEncodingRejected) {
  auto tr = tiny_trace(60, 32);
  sp::Fig5Deployment deploy(tiny_config());
  auto start = deploy.run_setup(tr, 20 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();
  sp::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  auto bytes = generator.proofs_for_producer(recon, 2).encode();
  bytes.pop_back();
  EXPECT_THROW(sp::ProducerProofs::decode(bytes), spider::util::DecodeError);
}
