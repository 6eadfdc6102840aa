// End-to-end SPIDeR over the Figure-5 deployment: mirroring, commitments,
// checkpoint+replay reconstruction, producer/consumer verification, the
// three §7.4 fault injections, extended verification, and the NetReview
// baseline.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "netreview/auditor.hpp"
#include "obs/metrics.hpp"
#include "spider/checker.hpp"
#include "spider/deployment.hpp"
#include "spider/proof_generator.hpp"

namespace sp = spider::proto;
namespace sc = spider::core;
namespace sb = spider::bgp;
namespace st = spider::trace;
namespace sn = spider::netsim;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

st::RouteViewsTrace small_trace() {
  st::TraceConfig config;
  config.num_prefixes = 200;
  config.num_updates = 120;
  config.duration = 30 * kSecond;
  config.seed = 77;
  return st::generate(config);
}

sp::DeploymentConfig small_config() {
  sp::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};  // commitments driven manually by the tests
  return config;
}

/// A deployment that has completed setup + replay of the small trace.
struct World {
  st::RouteViewsTrace trace = small_trace();
  sp::Fig5Deployment deploy;

  explicit World(sp::DeploymentConfig config = small_config(),
                 std::function<void(sp::Fig5Deployment&)> before_traffic = {})
      : deploy(std::move(config)) {
    if (before_traffic) before_traffic(deploy);
    sn::Time start = deploy.run_setup(trace, 30 * kSecond);
    deploy.run_replay(trace, start, 5 * kSecond);
  }

  /// Commits at AS 5 and returns (record, reconstruction-ready generator).
  const sp::CommitmentRecord& commit_as5() {
    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();  // deliver the commitment + acks
    return record;
  }

  sp::SpiderCommit commit_seen_by(sb::AsNumber neighbor, sn::Time t) {
    return deploy.recorder(neighbor).received_commitments().at(5).at(t);
  }

  /// The producer-side window `producer`'s checker expects AS 5 to prove.
  std::map<sb::Prefix, std::vector<sb::Route>> window_of(sb::AsNumber producer) {
    return sp::Checker::expectation(deploy.recorder(producer), 5).window;
  }
};

/// The root a from-scratch build over `rec`'s current mirror would commit
/// to under `seed` — the oracle every recorder commitment must match.
auto fresh_build_root(const sp::Recorder& rec, const spider::crypto::Seed& seed) {
  auto entries = sp::build_mtt_entries(rec.state(), rec.classifier(), rec.promises(),
                                       rec.faults().ignore_inputs);
  auto fresh = sc::Mtt::build(std::move(entries), rec.config().num_classes);
  fresh.compute_labels(spider::crypto::CommitmentPrf(seed));
  return fresh.root_label();
}

/// Salts of every flush-window envelope `log` records as sent.
std::vector<sp::WindowSalt> sent_salts(const sp::MessageLog& log) {
  std::vector<sp::WindowSalt> out;
  for (const sp::LogEntry& entry : log.entries()) {
    if (entry.direction != sp::LogDirection::kSent) continue;
    const auto envelope = sc::SignedEnvelope::decode(entry.message);
    out.push_back(sp::WindowProof::decode(envelope.signature).salt);
  }
  return out;
}

/// The late budget of announce_timely: how long dedup state must last.
sn::Time late_budget(const sp::RecorderConfig& config) {
  return config.max_clock_skew + config.ack_deadline * (config.max_retransmits + 1);
}

#if !defined(SPIDER_OBS_DISABLED)
std::uint64_t full_builds_counted() {
  const auto snap = spider::obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find("spider/commit_full_builds");
  return it == snap.counters.end() ? 0 : it->second;
}
#endif

}  // namespace

TEST(SpiderIntegration, SetupPropagatesRoutesEverywhere) {
  World world;
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    EXPECT_GT(world.deploy.speaker(asn).loc_rib().size(), world.trace.rib_snapshot.size() * 9 / 10)
        << "AS" << asn << " is missing routes";
  }
}

TEST(SpiderIntegration, NoAlarmsInFaultFreeRun) {
  World world;
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    EXPECT_TRUE(world.deploy.recorder(asn).alarms().empty())
        << "AS" << asn << ": " << world.deploy.recorder(asn).alarms().front();
  }
}

TEST(SpiderIntegration, RecorderMirrorsMatchBgpState) {
  World world;
  // AS5's mirrored inputs from AS2 must equal what AS2's recorder says it
  // exported to AS5, and agree with AS5's own BGP Adj-RIB-In.
  auto as5_inputs = world.deploy.recorder(5).my_imports_from(2);
  auto as2_exports = world.deploy.recorder(2).my_exports_to(5);
  EXPECT_EQ(as5_inputs.size(), as2_exports.size());
  for (const auto& [prefix, route] : as5_inputs) {
    auto it = as2_exports.find(prefix);
    ASSERT_NE(it, as2_exports.end()) << prefix.str();
    EXPECT_EQ(it->second.as_path, route.as_path);
    const sb::Route* raw = world.deploy.speaker(5).adj_rib_in().find(2, prefix);
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(raw->as_path, route.as_path);
  }
  EXPECT_GT(as5_inputs.size(), 0u);
}

TEST(SpiderIntegration, SignaturesAreBatched) {
  World world;
  const auto& recorder = world.deploy.recorder(2);
  // Far fewer signatures than mirrored updates (Nagle batching, §6.2).
  EXPECT_GT(recorder.updates_mirrored(), 0u);
  EXPECT_LT(recorder.signatures_performed(), recorder.updates_mirrored());
}

TEST(SpiderIntegration, LosslessRunOutlastsTheAckBudgetQuietly) {
  // ACKs ride ordinary batches, and a batch carrying only ACKs is neither
  // ACKed nor awaited: once every retransmission deadline has passed, a
  // lossless run has retransmitted nothing and raised no "no ACK" alarm.
  World world;
  auto& sim = world.deploy.sim();
  sim.run_until(sim.now() + late_budget(world.deploy.recorder(5).config()) + kSecond);
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    const auto& recorder = world.deploy.recorder(asn);
    EXPECT_TRUE(recorder.alarms().empty()) << "AS" << asn << ": " << recorder.alarms().front();
    EXPECT_EQ(recorder.retransmissions(), 0u) << "AS" << asn;
  }
}

TEST(SpiderIntegration, OneSignaturePerFlushWindow) {
  // Every batch a flush sends shares the window's one root signature; the
  // per-slot salts differ, so the same payload in two windows (or two
  // slots) hashes to different leaves.
  World world;
  const auto& log = world.deploy.recorder(5).log();
  std::map<sn::Time, spider::util::Bytes> signature_of_flush;
  std::set<sp::WindowSalt> salts;
  std::size_t sent = 0;
  for (const sp::LogEntry& entry : log.entries()) {
    if (entry.direction != sp::LogDirection::kSent) continue;
    ++sent;
    const auto envelope = sc::SignedEnvelope::decode(entry.message);
    const auto proof = sp::WindowProof::decode(envelope.signature);
    EXPECT_TRUE(sp::check_batch(envelope, world.deploy.keys()));
    // Five neighbours: an 8-slot window, three siblings on every path.
    EXPECT_EQ(proof.siblings.size(), 3u);
    const auto [flush, first] = signature_of_flush.emplace(entry.timestamp, proof.root_signature);
    if (!first) {
      EXPECT_EQ(flush->second, proof.root_signature) << "t=" << entry.timestamp;
    }
    EXPECT_TRUE(salts.insert(proof.salt).second) << "salt reused at t=" << entry.timestamp;
  }
  ASSERT_GT(sent, signature_of_flush.size());  // some flush served several neighbours
  EXPECT_EQ(world.deploy.recorder(5).signatures_performed(), signature_of_flush.size());

  const sp::WindowSalt& first = *salts.begin();
  const sp::WindowSalt& second = *std::next(salts.begin());
  const spider::util::Bytes payload = spider::util::str_bytes("same batch payload");
  EXPECT_NE(sp::window_leaf(first, payload), sp::window_leaf(second, payload));
}

TEST(SpiderIntegration, CommitmentReachesAllNeighbors) {
  World world;
  const auto& record = world.commit_as5();
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    auto commit = world.commit_seen_by(neighbor, record.timestamp);
    EXPECT_EQ(commit.root, record.root);
    EXPECT_EQ(commit.num_classes, 10u);
  }
}

TEST(SpiderIntegration, ReplayReconstructsIdenticalRoot) {
  // The §6.5 property: checkpoint + log replay + stored seed reproduce a
  // bit-identical MTT root, so MTTs need not be stored.
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);
  EXPECT_EQ(recon.tree.root_label(), record.root);
  // And the replayed mirror equals the live mirror (no traffic since T).
  EXPECT_TRUE(recon.state == world.deploy.recorder(5).state());
}

TEST(SpiderIntegration, ProducerProofsSatisfyHonestNeighbors) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    auto proofs = generator.proofs_for_producer(recon, producer);
    auto commit = world.commit_seen_by(producer, record.timestamp);
    auto detection = sp::Checker::check_producer_proofs(
        commit, 5, world.window_of(producer), proofs,
        world.deploy.recorder(producer).classifier());
    EXPECT_FALSE(detection.has_value())
        << "AS" << producer << ": " << detection->detail;
    // Items exist exactly for neighbors that export routes to AS 5 (split
    // horizon means AS 5's downstream neighbors often export nothing back).
    EXPECT_EQ(proofs.items.empty(), world.window_of(producer).empty());
  }
}

TEST(SpiderIntegration, ConsumerProofsSatisfyHonestNeighbors) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  for (sb::AsNumber consumer : world.deploy.neighbors_of(5)) {
    auto proofs = generator.proofs_for_consumer(recon, consumer);
    auto commit = world.commit_seen_by(consumer, record.timestamp);
    const auto& rec = world.deploy.recorder(consumer);
    auto detection = sp::Checker::check_consumer_proofs(
        commit, 5, sc::Promise::total_order(10), rec.my_imports_from(5), proofs, consumer,
        rec.classifier());
    EXPECT_FALSE(detection.has_value())
        << "AS" << consumer << ": " << detection->detail;
    EXPECT_EQ(proofs.items.empty(), rec.my_imports_from(5).empty());
  }
}

// ------------------------------------------------- §7.4 fault injections

TEST(SpiderIntegration, Fault1_OveraggressiveFilterDetectedByProducer) {
  // AS5 filters everything AS2 sends (and its recorder lies consistently).
  World world(small_config(), [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  EXPECT_TRUE(recon.root_matches);

  auto proofs = generator.proofs_for_producer(recon, 2);
  auto commit = world.commit_seen_by(2, record.timestamp);
  auto detection = sp::Checker::check_producer_proofs(commit, 5, world.window_of(2), proofs,
                                                      world.deploy.recorder(2).classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kOmittedInput);
  EXPECT_EQ(detection->accused, 5u);

  // The consumers, meanwhile, see nothing wrong: the commitment matches
  // the (worse) routes they actually received.
  for (sb::AsNumber consumer : {6u, 7u, 8u}) {
    auto cproofs = generator.proofs_for_consumer(recon, consumer);
    auto ccommit = world.commit_seen_by(consumer, record.timestamp);
    const auto& rec = world.deploy.recorder(consumer);
    auto cdetection = sp::Checker::check_consumer_proofs(ccommit, 5,
                                                         sc::Promise::total_order(10),
                                                         rec.my_imports_from(5), cproofs,
                                                         consumer, rec.classifier());
    EXPECT_FALSE(cdetection.has_value()) << "AS" << consumer << ": " << cdetection->detail;
  }
}

TEST(SpiderIntegration, Fault2_WronglyExportedRouteDetectedByConsumer) {
  // The promise to AS6 says: routes with underlying path length >= 3
  // (classes 2..8) must never be exported — the null route (class 9) is
  // ranked above them.  AS5 exports them anyway (its BGP config ignores
  // the agreement), and AS6 catches it because the null class bit is
  // always 1.
  sc::Promise never_long(10);
  never_long.add_preference(0, 1);
  for (sc::ClassId cls = 2; cls < 9; ++cls) never_long.add_preference(9, cls);
  never_long.add_preference(1, 9);
  World world(small_config(), [&](sp::Fig5Deployment& deploy) {
    deploy.recorder(5).set_promise(6, never_long);
  });

  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  auto proofs = generator.proofs_for_consumer(recon, 6);
  auto commit = world.commit_seen_by(6, record.timestamp);
  const auto& rec = world.deploy.recorder(6);
  auto detection = sp::Checker::check_consumer_proofs(commit, 5, never_long,
                                                      rec.my_imports_from(5), proofs, 6,
                                                      rec.classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kBrokenPromise);
  EXPECT_EQ(detection->accused, 5u);
}

TEST(SpiderIntegration, Fault3_TamperedBitProofDetected) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  generator.faults().tamper_classes = {0};  // lie about the best class
  auto recon = generator.reconstruct(record.timestamp);

  auto proofs = generator.proofs_for_consumer(recon, 6);
  auto commit = world.commit_seen_by(6, record.timestamp);
  const auto& rec = world.deploy.recorder(6);
  auto detection = sp::Checker::check_consumer_proofs(commit, 5, sc::Promise::total_order(10),
                                                      rec.my_imports_from(5), proofs, 6,
                                                      rec.classifier());
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kInvalidBitProof);
}

TEST(SpiderIntegration, CrossCheckCatchesEquivocation) {
  World world;
  const auto& record = world.commit_as5();
  auto honest = world.commit_seen_by(2, record.timestamp);
  auto forged = honest;
  forged.root[0] ^= 1;
  auto detection = sp::Checker::cross_check_commits(5, {honest, forged});
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kInconsistentCommit);
  EXPECT_FALSE(sp::Checker::cross_check_commits(5, {honest, honest}).has_value());
}

// ------------------------------------------- extended verification (§6.6)

TEST(SpiderIntegration, ExtendedVerificationPassesWhenConsistent) {
  World world;
  const auto& record = world.commit_as5();
  sp::ProofGenerator generator(world.deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);

  std::vector<sp::ReAnnounceSet> sets;
  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    sets.push_back(sp::build_re_announce_set(world.deploy.recorder(producer), 5,
                                             record.timestamp));
  }
  auto selected = generator.select_re_announcements(recon, 6, sets);
  auto detection = sp::Checker::check_re_announcements(
      5, world.deploy.recorder(6).my_imports_from(5), selected);
  EXPECT_FALSE(detection.has_value()) << detection->detail;
  EXPECT_FALSE(selected.empty());
  for (const auto& announce : selected) EXPECT_TRUE(announce.re_announce);
}

TEST(SpiderIntegration, ExtendedVerificationCatchesUnpropagatedWithdrawal) {
  World world;
  const auto& record = world.commit_as5();

  // Snapshot what AS6 believes it holds from AS5 *before* the withdrawal.
  auto imports_before = world.deploy.recorder(6).my_imports_from(5);
  ASSERT_FALSE(imports_before.empty());

  // The producers later withdraw a prefix AS6 still relies on; a faulty
  // elector fails to propagate.  RE-ANNOUNCE sets built afterwards no
  // longer cover that route.
  const sb::Prefix victim = imports_before.begin()->first;
  std::vector<sp::ReAnnounceSet> sets;
  for (sb::AsNumber producer : world.deploy.neighbors_of(5)) {
    auto set = sp::build_re_announce_set(world.deploy.recorder(producer), 5, record.timestamp);
    set.announcements.erase(
        std::remove_if(set.announcements.begin(), set.announcements.end(),
                       [&](const sp::SpiderAnnounce& a) { return a.route.prefix == victim; }),
        set.announcements.end());
    sets.push_back(std::move(set));
  }

  std::vector<sp::SpiderAnnounce> selected;
  for (const auto& set : sets) {
    for (const auto& announce : set.announcements) selected.push_back(announce);
  }
  auto detection = sp::Checker::check_re_announcements(5, imports_before, selected);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->kind, sc::FaultKind::kBrokenPromise);
}

// ------------------------------------------------------------- NetReview

TEST(NetReview, CleanRunAuditsClean) {
  World world;
  auto report = spider::netreview::audit_full_disclosure(world.deploy.recorder(5).state(), 5);
  EXPECT_TRUE(report.clean()) << report.findings.front().what;
  EXPECT_GT(report.prefixes_checked, 0u);
  EXPECT_GT(report.decisions_checked, 0u);
}

TEST(NetReview, HiddenRouteFoundByFullDisclosureAudit) {
  // Under NetReview the same "overaggressive filter" fault is visible in
  // the disclosed state itself: the exports are worse than the best input.
  World world(small_config(), [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    // Note: the recorder still mirrors AS2's *actual* inputs — NetReview
    // requires full disclosure, so the audit sees the hidden route.
  });
  auto report = spider::netreview::audit_full_disclosure(world.deploy.recorder(5).state(), 5);
  EXPECT_FALSE(report.clean());
}

TEST(NetReview, ComparisonCountScalesWithState) {
  World world;
  auto count = spider::netreview::audit_comparison_count(world.deploy.recorder(5).state());
  EXPECT_GT(count, world.trace.rib_snapshot.size());
}

// ------------------------------------------- crash restore & fresh seeds

TEST(RecorderRestore, RestoredRecorderDerivesFreshSeeds) {
  World world;
  auto& original = world.deploy.recorder(5);
  const auto record1 = world.commit_as5();
  const std::vector<sp::WindowSalt> pre_crash_salts = sent_salts(original.log());
  ASSERT_FALSE(pre_crash_salts.empty());

  // "Crash": a fresh recorder process (same ASN, same salt, empty runtime
  // state) adopts the logged history, as §6.5 prescribes.
  sn::Simulator sim;
  std::string secret = "fig5-key-5";
  spider::util::Bytes key(secret.begin(), secret.end());
  spider::crypto::HashSigner signer(key);
  sc::KeyRegistry keys;
  keys.add(5, std::make_unique<spider::crypto::HashVerifier>(key));
  sb::Speaker speaker(sim, 5, sb::Policy{});
  sim.add_node(speaker, "bgp-as5");
  sp::RecorderConfig rc;
  rc.asn = 5;
  rc.num_classes = small_config().num_classes;
  spider::transport::NetsimTransport endpoint(sim);
  sim.add_node(endpoint, "rec-as5");
  sp::Recorder restored(endpoint, rc, signer, keys, speaker);
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) restored.add_neighbor(neighbor);
  restored.restore_from(original.log());
  restored.start(/*schedule_commitments=*/false);

  // Checkpoint + replay must reproduce the pre-crash mirror exactly.
  EXPECT_TRUE(restored.state() == original.state());

  // Flush-window salts never repeat either, even for a flush at the very
  // time of a pre-crash flush: the salt PRF input is (flush time, flush
  // seq, slot), and the flush seq resumes past the adopted log.
  const std::size_t adopted = restored.log().entries().size();
  const sn::Time pre_crash_flush = [&] {
    for (const sp::LogEntry& entry : original.log().entries()) {
      if (entry.direction == sp::LogDirection::kSent) return entry.timestamp;
    }
    return sn::Time{0};
  }();
  ASSERT_GT(pre_crash_flush, 0);
  sim.run_until(pre_crash_flush);
  restored.make_commitment();  // one flush to every neighbour slot
  const std::vector<sp::WindowSalt> post_restore_salts = sent_salts(restored.log());
  ASSERT_GT(restored.log().entries().size(), adopted);
  const std::set<sp::WindowSalt> before(pre_crash_salts.begin(), pre_crash_salts.end());
  std::size_t fresh = 0;
  for (std::size_t i = pre_crash_salts.size(); i < post_restore_salts.size(); ++i) {
    EXPECT_EQ(before.count(post_restore_salts[i]), 0u) << "salt reused after restore";
    ++fresh;
  }
  EXPECT_EQ(fresh, world.deploy.neighbors_of(5).size());

  // The restarted clock sits ahead of everything logged; commit again.
  sim.run_until(record1.timestamp + 60 * kSecond);
  const auto record2 = restored.make_commitment();
  EXPECT_GT(record2.timestamp, record1.timestamp);
  // The regression this guards: a counter-derived seed restarts at zero
  // after restore and re-derives the seed record1 already used — the same
  // PRF stream under a commitment an adversary can open proofs against,
  // which breaks hiding.  Timestamp-derived seeds cannot collide with any
  // pre-crash commitment.
  EXPECT_NE(record2.seed, record1.seed);
  for (const auto& [t, logged] : restored.log().commitments()) {
    if (t != record2.timestamp) {
      EXPECT_NE(logged.seed, record2.seed) << "seed reused from commitment at t=" << t;
    }
  }
  // Restore dropped the live tree; the first commitment after it rebuilds
  // over the restored mirror.
  EXPECT_EQ(fresh_build_root(restored, record2.seed), record2.root);
}

// -------------------------------------------------- bounded dedup state

TEST(RecorderDedup, DuplicateInsideTheBudgetIsDedupedAndReAcked) {
  World world;
  auto& as5 = world.deploy.recorder(5);
  auto& sim = world.deploy.sim();
  sim.run();

  // The newest batch AS5 received from AS2 that carried an announce.
  const sp::LogEntry* original = nullptr;
  for (const sp::LogEntry& entry : as5.log().entries()) {
    if (entry.direction != sp::LogDirection::kReceived || entry.peer_as != 2) continue;
    const auto batch =
        sp::SpiderBatch::decode(sc::SignedEnvelope::decode(entry.message).payload);
    for (const auto& part : batch.parts) {
      if (part.type == sp::SpiderMsgType::kAnnounce) original = &entry;
    }
  }
  ASSERT_NE(original, nullptr);
  const spider::util::Bytes frame = original->message;
  const sn::Time received_at = original->timestamp;
  const auto digest = sc::SignedEnvelope::decode(frame).digest();

  // A commitment prunes the dedup state, but the batch is still inside
  // the budget, so its duplicate must be recognised.
  as5.make_commitment();
  sim.run();
  ASSERT_LT(sim.now() - received_at, late_budget(as5.config()));
  const auto mirror = as5.state();
  const std::size_t logged = as5.log().entries().size();
  as5.handle_frame(2, frame);
  sim.run();

  EXPECT_TRUE(as5.state() == mirror);  // not re-applied
  bool re_acked = false;
  for (std::size_t i = logged; i < as5.log().entries().size(); ++i) {
    const sp::LogEntry& entry = as5.log().entries()[i];
    EXPECT_EQ(entry.direction, sp::LogDirection::kSent) << "duplicate was logged as new input";
    const auto batch =
        sp::SpiderBatch::decode(sc::SignedEnvelope::decode(entry.message).payload);
    for (const auto& part : batch.parts) {
      if (part.type == sp::SpiderMsgType::kAck &&
          sp::SpiderAck::decode(part.body).message_digest == digest) {
        re_acked = true;
      }
    }
  }
  EXPECT_TRUE(re_acked);
  EXPECT_TRUE(as5.alarms().empty()) << as5.alarms().front();
  EXPECT_TRUE(world.deploy.recorder(2).alarms().empty())
      << world.deploy.recorder(2).alarms().front();
}

TEST(RecorderDedup, StateStaysBoundedAcrossRounds) {
  // Three replay rounds, each followed by a quiet spell longer than the
  // late budget and a commitment: each commitment drops everything the
  // round left behind, so the state does not grow with history.
  World world;
  auto& as5 = world.deploy.recorder(5);
  auto& sim = world.deploy.sim();
  const sn::Time budget = late_budget(as5.config());
  for (int round = 0; round < 3; ++round) {
    if (round > 0) world.deploy.run_replay(world.trace, sim.now() + kSecond, 5 * kSecond);
    sim.run_until(sim.now() + budget + kSecond);
    EXPECT_GT(as5.dedup_entries(), 0u) << "round " << round;
    as5.make_commitment();
    EXPECT_EQ(as5.dedup_entries(), 0u) << "round " << round;
  }
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    EXPECT_TRUE(world.deploy.recorder(asn).alarms().empty())
        << "AS" << asn << ": " << world.deploy.recorder(asn).alarms().front();
  }
}

TEST(IncrementalCommits, LiveTreeMatchesFullRebuildAcrossRounds) {
  World world;
  auto& rec = world.deploy.recorder(5);

  const auto record1 = world.commit_as5();
  EXPECT_EQ(fresh_build_root(rec, record1.seed), record1.root);

  // More churn, then a second commitment: the live tree keeps its
  // structure, applies only the dirty prefixes and relabels under the
  // round's fresh seed; the root must match a from-scratch build over the
  // final mirror.
  world.deploy.run_replay(world.trace, 70 * kSecond, 5 * kSecond);
  const auto record2 = world.commit_as5();
  EXPECT_GT(record2.timestamp, record1.timestamp);
  EXPECT_NE(record2.seed, record1.seed);  // every commitment draws a fresh seed
  EXPECT_EQ(fresh_build_root(rec, record2.seed), record2.root);

  // Checkpoint + replay reconstruction rebuilds from scratch and must
  // reproduce the incrementally produced root (§6.5).
  sp::ProofGenerator generator(rec);
  auto recon = generator.reconstruct(record2.timestamp);
  EXPECT_TRUE(recon.root_matches);
}

TEST(IncrementalCommits, SeedRotationAcrossEpochsStaysCorrect) {
  // Default epochs (one per round): consecutive commitments use different
  // seeds, the live tree's structure survives but every label rehashes, and
  // roots still match full rebuilds.
  World world;
  auto& rec = world.deploy.recorder(5);

  const auto record1 = world.commit_as5();
  world.deploy.run_replay(world.trace, 70 * kSecond, 5 * kSecond);
  const auto record2 = world.commit_as5();
  EXPECT_NE(record2.seed, record1.seed);  // per-round unlinkability kept
  EXPECT_EQ(fresh_build_root(rec, record2.seed), record2.root);
}

TEST(IncrementalCommits, IgnoreInputsChangeForcesRebuild) {
  // An ignore-input fault rewrites every prefix's bits at once, so the
  // live tree cannot absorb it as churn: the next commitment rebuilds.
  World world;
  auto& rec = world.deploy.recorder(5);
  (void)world.commit_as5();

#if !defined(SPIDER_OBS_DISABLED)
  const std::uint64_t builds_before = full_builds_counted();
#endif
  rec.faults().ignore_inputs = {2};
  const auto record2 = world.commit_as5();
  EXPECT_EQ(fresh_build_root(rec, record2.seed), record2.root);
#if !defined(SPIDER_OBS_DISABLED)
  EXPECT_EQ(full_builds_counted(), builds_before + 1);
#endif
}

TEST(IncrementalCommits, PromiseChangeForcesRebuild) {
  // Promises feed every prefix's bit vector too; a set_promise between
  // commitments forces the same rebuild.  Withdrawing every total-order
  // promise clears the bits they set, so the root really changes.
  World world;
  auto& rec = world.deploy.recorder(5);
  (void)world.commit_as5();

#if !defined(SPIDER_OBS_DISABLED)
  const std::uint64_t builds_before = full_builds_counted();
#endif
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    rec.set_promise(neighbor, sc::Promise(rec.config().num_classes));
  }
  const auto record2 = world.commit_as5();
  EXPECT_EQ(fresh_build_root(rec, record2.seed), record2.root);
#if !defined(SPIDER_OBS_DISABLED)
  EXPECT_EQ(full_builds_counted(), builds_before + 1);
#endif
}

// ----------------------------------------------------------- state serde

TEST(MirrorState, SerializeDeserializeRoundtrip) {
  World world;
  const auto& state = world.deploy.recorder(5).state();
  auto restored = sp::MirrorState::deserialize(state.serialize());
  EXPECT_TRUE(restored == state);
}

TEST(MirrorState, ChunkedSerializationRestoresDeploymentStateIdentically) {
  // The streamed checkpoint path on a real mirrored RIB: many chunks, each
  // bounded near the target, restoring byte-identical state.
  World world;
  const auto& state = world.deploy.recorder(5).state();
  const std::size_t target = 512;
  auto chunks = state.serialize_chunked(target);
  EXPECT_GT(chunks.size(), 1u);
  for (const auto& chunk : chunks) {
    // A chunk may overshoot by at most one section header + one record.
    EXPECT_LE(chunk.size(), target + 256);
  }
  auto restored = sp::MirrorState::deserialize_chunked(chunks);
  EXPECT_TRUE(restored == state);
  EXPECT_EQ(restored.serialize(), state.serialize());
}
