// The src/verify session engine: at 1 and 4 workers it must be
// observationally identical to the sequential reference in
// session_reference.hpp — same verdicts, same evidence strings, same
// detections — across clean and misbehaving deployments, including tables
// large enough that one neighbor role spans several rounds.  Plus the unit
// batteries for the pieces: ProofPathCache under eviction and
// cross-subtree collisions, CachedProofVerifier with a thrashing cache,
// rsa_verify_batch against the scalar verifier (including one-bad-in-batch
// isolation), and the generator-side MttProofMemo bit-identity contract.
// The VerifySessionTsan suite runs under the tsan preset's `ctest -R Tsan`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mtt.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "session_reference.hpp"
#include "spider/proof_generator.hpp"
#include "transport/netsim_transport.hpp"
#include "util/rng.hpp"
#include "verify/proof_path_cache.hpp"
#include "verify/session.hpp"

namespace sv = spider::verify;
namespace sp = spider::proto;
namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace st = spider::trace;
namespace sn = spider::netsim;
namespace su = spider::util;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

st::RouteViewsTrace engine_trace(std::uint64_t seed, std::size_t prefixes) {
  st::TraceConfig config;
  config.num_prefixes = prefixes;
  config.num_updates = 100;
  config.duration = 20 * kSecond;
  config.seed = seed;
  return st::generate(config);
}

sp::DeploymentConfig engine_config(bool rsa = false) {
  sp::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};
  if (rsa) config.scheme = sp::DeploymentConfig::SignScheme::kRsa;
  return config;
}

struct EngineWorld {
  st::RouteViewsTrace trace;
  sp::Fig5Deployment deploy;
  sn::Time commit_time = 0;

  explicit EngineWorld(std::uint64_t seed = 5, bool rsa = false,
                       std::function<void(sp::Fig5Deployment&)> before = {},
                       std::size_t prefixes = 250)
      : trace(engine_trace(seed, prefixes)), deploy(engine_config(rsa)) {
    if (before) before(deploy);
    auto start = deploy.run_setup(trace, 20 * kSecond);
    deploy.run_replay(trace, start, 5 * kSecond);
    commit_time = deploy.recorder(5).make_commitment().timestamp;
    deploy.sim().run();
  }
};

/// Commits AS 5 again one simulated second later, over unchanged state:
/// the fresh seed gives the new round a different root.
sn::Time commit_again(EngineWorld& world) {
  world.deploy.sim().run_until(world.deploy.sim().now() + kSecond);
  const sn::Time t = world.deploy.recorder(5).make_commitment().timestamp;
  world.deploy.sim().run();
  return t;
}

void expect_same_detection(const std::optional<sc::Detection>& a,
                           const std::optional<sc::Detection>& b, const char* what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (!a) return;
  EXPECT_EQ(a->kind, b->kind) << what;
  EXPECT_EQ(a->accused, b->accused) << what;
  EXPECT_EQ(a->detail, b->detail) << what;
}

/// The differential contract: every observable verdict and its evidence
/// string must match between the reference and the engine.
void expect_identical_reports(const sp::VerificationReport& want,
                              const sp::VerificationReport& got) {
  EXPECT_EQ(want.elector, got.elector);
  EXPECT_EQ(want.commit_time, got.commit_time);
  EXPECT_EQ(want.root_matches, got.root_matches);
  expect_same_detection(want.equivocation, got.equivocation, "equivocation");
  ASSERT_EQ(want.verdicts.size(), got.verdicts.size());
  for (std::size_t i = 0; i < want.verdicts.size(); ++i) {
    EXPECT_EQ(want.verdicts[i].neighbor, got.verdicts[i].neighbor);
    expect_same_detection(want.verdicts[i].as_producer, got.verdicts[i].as_producer,
                          "as_producer");
    expect_same_detection(want.verdicts[i].as_consumer, got.verdicts[i].as_consumer,
                          "as_consumer");
    expect_same_detection(want.verdicts[i].extended, got.verdicts[i].extended, "extended");
  }
}

/// Runs an extended session on `jobs` workers and checks it against the
/// sequential reference.  A clean session checks each expected proof
/// exactly once, as the reference does; a faulty one may check more,
/// since every round runs to its own first detection.
sv::SessionResult check_against_reference(EngineWorld& world, unsigned jobs,
                                          const spider::test::ReferenceSession& reference) {
  auto session = sv::run_session(world.deploy, 5, world.commit_time, sv::pipelined_config(jobs),
                                 /*extended=*/true);
  expect_identical_reports(reference.report, session.report);
  if (reference.report.clean()) {
    EXPECT_EQ(session.stats.proofs_checked, reference.proofs_checked);
  } else {
    EXPECT_GE(session.stats.proofs_checked, reference.proofs_checked);
  }
  return session;
}

void run_differential(EngineWorld& world, bool expect_clean) {
  const auto reference =
      spider::test::reference_session(world.deploy, 5, world.commit_time, /*extended=*/true);
  EXPECT_EQ(reference.report.clean(), expect_clean);
  for (unsigned jobs : {1u, 4u}) check_against_reference(world, jobs, reference);
}

/// The schedule an extended session makes when every neighbor holds the
/// commitment: one round per 256 prefixes of each (neighbor, role) set the
/// checker expects, plus one RE-ANNOUNCE round-trip per neighbor.
struct ExpectedRounds {
  std::uint64_t round_trips = 0;
  std::size_t widest_set = 0;
};

ExpectedRounds expected_rounds(EngineWorld& world) {
  ExpectedRounds out;
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    ++out.round_trips;
    const auto expected = sp::Checker::expectation(world.deploy.recorder(neighbor), 5);
    for (std::size_t n : {expected.window.size(), expected.imports.size()}) {
      out.round_trips += (n + 255) / 256;
      out.widest_set = std::max(out.widest_set, n);
    }
  }
  return out;
}

/// Runs `jobs` sessions over a world whose widest neighbor role spans
/// several rounds, checking the schedule and the reference verdicts.
void run_multi_round(EngineWorld& world, bool expect_clean, std::initializer_list<unsigned> jobs) {
  const ExpectedRounds rounds = expected_rounds(world);
  ASSERT_GT(rounds.widest_set, 256u);
  const auto reference =
      spider::test::reference_session(world.deploy, 5, world.commit_time, /*extended=*/true);
  EXPECT_EQ(reference.report.clean(), expect_clean);
  for (unsigned j : jobs) {
    auto session = check_against_reference(world, j, reference);
    EXPECT_EQ(session.stats.challenge_round_trips, rounds.round_trips);
  }
}

}  // namespace

// ------------------------------------------------ engine-vs-reference battery

TEST(VerifyEngineDifferential, CleanAcrossSeeds) {
  for (std::uint64_t seed : {5u, 11u, 23u}) {
    EngineWorld world(seed);
    run_differential(world, /*expect_clean=*/true);
  }
}

TEST(VerifyEngineDifferential, OmittedInput) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, Equivocation) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.recorder(5).faults().equivocate_to = {2};
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, WithheldCommitment) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    deploy.recorder(5).faults().withhold_commit_from = {2};
  });
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, BrokenPromise) {
  EngineWorld world(5, false, [](sp::Fig5Deployment& deploy) {
    // Promise "never export long paths" to AS 6, then keep exporting
    // them anyway (§7.4 fault 2).
    sc::Promise never_long(10);
    never_long.add_preference(0, 1);
    for (sc::ClassId cls = 2; cls < 9; ++cls) never_long.add_preference(9, cls);
    never_long.add_preference(1, 9);
    deploy.recorder(5).set_promise(6, never_long);
  });
  run_differential(world, /*expect_clean=*/false);
}

// Misbehavior of the elector's proof generator, staged on the generator
// the session itself asks for proofs (as the chaos matrix stages it).

TEST(VerifyEngineDifferential, TamperedBitProof) {
  EngineWorld world;
  world.deploy.proof_generator(5).faults().tamper_classes = {0};
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, WrongClassBit) {
  EngineWorld world;
  world.deploy.proof_generator(5).faults().misclassify_producer = true;
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, WithheldProof) {
  EngineWorld world;
  world.deploy.proof_generator(5).faults().withhold_producer_proofs = true;
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, HiddenReAnnounce) {
  EngineWorld world;
  const auto imports = world.deploy.recorder(6).my_imports_from(5);
  ASSERT_FALSE(imports.empty());
  world.deploy.proof_generator(5).faults().hide_re_announce = {imports.begin()->first};
  run_differential(world, /*expect_clean=*/false);
}

TEST(VerifyEngineDifferential, StaleAnswer) {
  EngineWorld world;
  const sn::Time first = world.commit_time;
  world.commit_time = commit_again(world);
  world.deploy.proof_generator(5).faults().answer_from = first;
  run_differential(world, /*expect_clean=*/false);
  // Round one's tree still matches round one's root; its proofs fail
  // against the round-two root every neighbor holds.
  auto report = sv::run_session(world.deploy, 5, world.commit_time, {}).report;
  EXPECT_TRUE(report.root_matches);
  std::size_t findings = 0;
  for (const auto& verdict : report.verdicts) {
    for (const auto& detection : {verdict.as_producer, verdict.as_consumer}) {
      if (!detection) continue;
      ++findings;
      EXPECT_EQ(detection->kind, sc::FaultKind::kInvalidBitProof) << detection->detail;
    }
  }
  EXPECT_GT(findings, 0u);
}

TEST(VerifyEngineDifferential, RsaSchemeWithBatching) {
  EngineWorld world(5, /*rsa=*/true);
  const auto reference =
      spider::test::reference_session(world.deploy, 5, world.commit_time, /*extended=*/true);
  for (unsigned jobs : {1u, 4u}) {
    auto session = check_against_reference(world, jobs, reference);
    EXPECT_GT(session.stats.signature_batches, 0u);
    EXPECT_EQ(session.stats.bad_signatures, 0u);
    // Every proof round is signature-checked; the 5 extended RE-ANNOUNCE
    // round-trips carry no proof bundle.
    EXPECT_EQ(session.stats.signatures_verified + 5, session.stats.challenge_round_trips);
  }
}

// Tables large enough that some neighbor role spans several 256-prefix
// rounds: per-round first detections must merge to the reference's.

TEST(VerifyEngineDifferential, MultiRoundClean) {
  EngineWorld world(5, false, {}, /*prefixes=*/700);
  run_multi_round(world, /*expect_clean=*/true, {1, 4});
}

TEST(VerifyEngineDifferential, MultiRoundTamperedBitProof) {
  EngineWorld world(5, false, {}, /*prefixes=*/700);
  world.deploy.proof_generator(5).faults().tamper_classes = {0};
  run_multi_round(world, /*expect_clean=*/false, {1, 4});
}

TEST(VerifyEngine, PipelinedStatsShowTheCacheWorking) {
  EngineWorld world;
  auto pip = sv::run_session(world.deploy, 5, world.commit_time, {}, /*extended=*/true);
  EXPECT_GT(pip.stats.cache_hits, 0u);
  EXPECT_GT(pip.stats.digest_ops_saved, 0u);
  EXPECT_GT(pip.stats.bytes_deduped, 0u);
  EXPECT_GT(pip.stats.challenge_round_trips, 6u);  // proof rounds + RE-ANNOUNCE requests
  // Shipped and deduped bytes are accounted separately: dedup never
  // reduces the shipped figure.
  EXPECT_EQ(pip.report.proof_bytes, pip.stats.bytes_shipped);
  EXPECT_EQ(pip.report.proof_bytes_deduped, pip.stats.bytes_deduped);
}

// ------------------------------------------------------ concurrency (TSan)

// Four workers share the signer, the reconstruction, the mutex-guarded
// MttProofMemo and the in-order consumer hand-off; the tsan preset runs
// this suite via `ctest -R Tsan`.
TEST(VerifySessionTsan, FourWorkersMatchTheReference) {
  EngineWorld world(5, /*rsa=*/true, {}, /*prefixes=*/700);
  world.deploy.proof_generator(5).faults().tamper_classes = {0};
  run_multi_round(world, /*expect_clean=*/false, {4});
}

// ------------------------------------------------ reconstruction cache

namespace {

/// The /8 holding the trace's first table prefix: a populated subtree.
sb::Prefix first_slash8(const st::RouteViewsTrace& trace) {
  return sb::Prefix(trace.rib_snapshot.front().prefix.bits(), 8);
}

/// Every (jobs, within) pair runs once on a fresh world, where the
/// session has to reconstruct, and once on a warmed world, where the
/// deployment's generator serves the reconstruction from its cache.  The
/// two reports must agree on every verdict, detail string, root_matches
/// and proof count.
void run_cache_differential(const std::function<void(sp::Fig5Deployment&)>& before,
                            bool expect_clean) {
  EngineWorld warm(5, false, before);
  (void)sv::run_session(warm.deploy, 5, warm.commit_time, {});
  const std::optional<sb::Prefix> subtree = first_slash8(warm.trace);
  for (unsigned jobs : {1u, 4u}) {
    const sv::SessionConfig config = sv::pipelined_config(jobs);
    for (const std::optional<sb::Prefix>& within : {std::optional<sb::Prefix>{}, subtree}) {
      EngineWorld cold(5, false, before);
      auto fresh = sv::run_session(cold.deploy, 5, cold.commit_time, config, /*extended=*/true,
                                   within);
      auto cached = sv::run_session(warm.deploy, 5, warm.commit_time, config, /*extended=*/true,
                                    within);
      EXPECT_EQ(fresh.stats.reconstruct_cache_hits, 0u);
      EXPECT_GT(fresh.stats.reconstruct_seconds, 0.0);
      EXPECT_EQ(cached.stats.reconstruct_cache_hits, 1u);
      EXPECT_EQ(cached.stats.reconstruct_seconds, 0.0);
      if (!within) {
        EXPECT_EQ(fresh.report.clean(), expect_clean);
      }
      expect_identical_reports(fresh.report, cached.report);
      EXPECT_EQ(fresh.stats.proofs_checked, cached.stats.proofs_checked);
      EXPECT_EQ(fresh.report.proof_bytes, cached.report.proof_bytes);
    }
  }
}

}  // namespace

TEST(ReconstructionCache, CachedSessionsMatchFreshOnesClean) {
  run_cache_differential({}, /*expect_clean=*/true);
}

TEST(ReconstructionCache, CachedSessionsMatchFreshOnesOveraggressiveFilter) {
  run_cache_differential(
      [](sp::Fig5Deployment& deploy) {
        deploy.speaker(5).inject_import_filter_fault(2);
        deploy.recorder(5).faults().ignore_inputs = {2};
      },
      /*expect_clean=*/false);
}

TEST(ReconstructionCache, CachedSessionsMatchFreshOnesEquivocation) {
  run_cache_differential(
      [](sp::Fig5Deployment& deploy) { deploy.recorder(5).faults().equivocate_to = {2}; },
      /*expect_clean=*/false);
}

TEST(ReconstructionCache, CachedSessionsMatchFreshOnesWithheldCommit) {
  run_cache_differential(
      [](sp::Fig5Deployment& deploy) { deploy.recorder(5).faults().withhold_commit_from = {2}; },
      /*expect_clean=*/false);
}

TEST(ReconstructionCache, PruneInvalidatesAndPrunedCommitmentStillThrows) {
  EngineWorld world;
  auto& rec = world.deploy.recorder(5);
  auto& generator = world.deploy.proof_generator(5);
  bool hit = true;
  (void)generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_FALSE(hit);
  (void)generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_TRUE(hit);

  // A prune that keeps the commitment still changes the retained log, so
  // the next lookup rebuilds rather than trusting the old replay.
  rec.enforce_retention(world.commit_time);
  auto rebuilt = generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_FALSE(hit);
  sp::ProofGenerator fresh(rec);
  EXPECT_EQ(rebuilt->root_matches, fresh.reconstruct(world.commit_time).root_matches);
  EXPECT_EQ(rebuilt->tree.root_label(), fresh.reconstruct(world.commit_time).tree.root_label());

  // Past the commitment: it throws exactly as an uncached generator does.
  rec.enforce_retention(world.commit_time + 1);
  EXPECT_THROW((void)fresh.reconstruct(world.commit_time), std::invalid_argument);
  EXPECT_THROW((void)generator.reconstruction(world.commit_time), std::invalid_argument);
  EXPECT_THROW((void)sv::run_session(world.deploy, 5, world.commit_time, {}),
               std::invalid_argument);
}

TEST(ReconstructionCache, RestoreFromRebuildsOrThrows) {
  EngineWorld world;
  const sp::MessageLog& original_log = world.deploy.recorder(5).log();

  // A standalone, never-started recorder for AS 5 that adopts the log.
  sn::Simulator sim;
  const std::string secret = "fig5-key-5";
  su::Bytes key(secret.begin(), secret.end());
  scr::HashSigner signer(key);
  sc::KeyRegistry keys;
  keys.add(5, std::make_unique<scr::HashVerifier>(key));
  sb::Speaker speaker(sim, 5, sb::Policy{});
  sim.add_node(speaker, "bgp-as5");
  spider::transport::NetsimTransport endpoint(sim);
  sim.add_node(endpoint, "rec-as5");
  const sp::DeploymentConfig dc = engine_config();
  sp::RecorderConfig rc;
  rc.asn = 5;
  rc.num_classes = dc.num_classes;
  rc.commit_interval = dc.commit_interval;
  rc.batch_window = dc.batch_window;
  rc.delta = dc.delta;
  sp::Recorder restored(endpoint, rc, signer, keys, speaker);
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    restored.set_promise(neighbor, sc::Promise::total_order(rc.num_classes));
  }
  sp::ProofGenerator generator(restored);

  restored.restore_from(original_log);
  bool hit = true;
  auto first = generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(first->root_matches);
  (void)generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_TRUE(hit);

  // Restoring again, even the same history, replaces the log: rebuild.
  restored.restore_from(original_log);
  auto second = generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(second->root_matches);
  EXPECT_NE(first, second);

  // A restored history that no longer holds the commitment: throw.
  sp::MessageLog pruned = original_log;
  pruned.prune_before(world.commit_time + 1);
  restored.restore_from(std::move(pruned));
  EXPECT_THROW((void)generator.reconstruction(world.commit_time), std::invalid_argument);
}

TEST(ReconstructionCache, ChangedIgnoreInputsRebuilds) {
  EngineWorld world;
  auto& rec = world.deploy.recorder(5);
  auto& generator = world.deploy.proof_generator(5);
  bool hit = true;
  EXPECT_TRUE(generator.reconstruction(world.commit_time, 1, &hit)->root_matches);
  EXPECT_FALSE(hit);

  // The overaggressive-filter knob changes the MTT reconstruct builds: the
  // cached clean tree must not answer for it.
  rec.faults().ignore_inputs = {2};
  auto filtered = generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(filtered->root_matches);
  EXPECT_EQ(filtered->tree.root_label(),
            sp::ProofGenerator(rec).reconstruct(world.commit_time).tree.root_label());

  rec.faults().ignore_inputs.clear();
  auto clean = generator.reconstruction(world.commit_time, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(clean->root_matches);
}

TEST(ReconstructionCache, ThirdCommitmentEvictsTheOldest) {
  EngineWorld world;
  std::vector<sn::Time> times = {world.commit_time};
  for (int i = 0; i < 2; ++i) times.push_back(commit_again(world));
  ASSERT_EQ(sp::ProofGenerator::kReconCacheCapacity, 2u);
  auto& generator = world.deploy.proof_generator(5);
  bool hit = true;
  for (sn::Time t : times) {
    EXPECT_TRUE(generator.reconstruction(t, 1, &hit)->root_matches);
    EXPECT_FALSE(hit);
  }
  // Cached: the two newest.  The oldest was evicted and is rebuilt.
  (void)generator.reconstruction(times[2], 1, &hit);
  EXPECT_TRUE(hit);
  (void)generator.reconstruction(times[1], 1, &hit);
  EXPECT_TRUE(hit);
  auto rebuilt = generator.reconstruction(times[0], 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(rebuilt->root_matches);
  EXPECT_EQ(rebuilt->commit_time, times[0]);
}

TEST(ReconstructionCache, ClearedStaleAnswerRebuilds) {
  EngineWorld world;
  const sn::Time t2 = commit_again(world);
  auto& generator = world.deploy.proof_generator(5);
  generator.faults().answer_from = world.commit_time;
  bool hit = true;
  auto stale = generator.reconstruction(t2, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(stale->commit_time, world.commit_time);

  // The substituted time keyed the cached tree, so clearing the fault
  // must not serve it for t2.
  generator.faults().answer_from.reset();
  auto fresh = generator.reconstruction(t2, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(fresh->commit_time, t2);
  EXPECT_TRUE(fresh->root_matches);
  EXPECT_NE(fresh->tree.root_label(), stale->tree.root_label());
}

TEST(SubtreeSession, ReAnnounceFaultsStayInsideTheirSubtree) {
  EngineWorld world;
  // Two prefixes AS 6 imports from AS 5, in different /8s; `outside`
  // sorts first, so a full session names it.
  const auto imports = world.deploy.recorder(6).my_imports_from(5);
  ASSERT_FALSE(imports.empty());
  const sb::Prefix outside = imports.begin()->first;
  std::optional<sb::Prefix> inside;
  for (const auto& [prefix, route] : imports) {
    if ((prefix.bits() >> 24) != (outside.bits() >> 24)) {
      inside = prefix;
      break;
    }
  }
  ASSERT_TRUE(inside.has_value());
  const sb::Prefix block(inside->bits(), 8);

  // After the commitment AS 2 withdraws both, but the BGP link to AS 5 is
  // down: AS 2's export mirror drops them while AS 5 keeps exporting
  // them — a withdrawal that was not propagated (§6.6).
  auto& sim = world.deploy.sim();
  sim.set_link_up(world.deploy.speaker(2).node_id(), world.deploy.speaker(5).node_id(), false);
  sb::Update withdraw;
  withdraw.withdrawn = {outside, *inside};
  world.deploy.speaker(2).inject(world.deploy.config().trace_peer, withdraw);
  sim.run_until(sim.now() + 10 * kSecond);

  auto detail_for = [](const sb::Prefix& prefix) {
    return "route to " + prefix.str() + " no longer exists upstream: withdrawal was not propagated";
  };
  auto extended_of = [](const sp::VerificationReport& report, sb::AsNumber neighbor) {
    for (const auto& verdict : report.verdicts) {
      if (verdict.neighbor == neighbor) return verdict.extended;
    }
    return std::optional<sc::Detection>{};
  };

  for (unsigned jobs : {1u, 4u}) {
    const sv::SessionConfig config = sv::pipelined_config(jobs);
    auto subtree = sv::run_session(world.deploy, 5, world.commit_time, config,
                                   /*extended=*/true, block);
    auto found = extended_of(subtree.report, 6);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->kind, sc::FaultKind::kBrokenPromise);
    EXPECT_EQ(found->detail, detail_for(*inside));
    for (const std::string& finding : subtree.report.findings()) {
      EXPECT_EQ(finding.find(outside.str()), std::string::npos) << finding;
    }

    auto full = sv::run_session(world.deploy, 5, world.commit_time, config, /*extended=*/true);
    found = extended_of(full.report, 6);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->detail, detail_for(outside));
  }
}

// ----------------------------------------------------------- ProofPathCache

TEST(ProofPathCache, RemembersInsertedPaths) {
  sv::ProofPathCache cache(8);
  spider::util::Digest20 label{};
  label[0] = 0xab;
  EXPECT_FALSE(cache.has_path(7, label));
  cache.insert_path(7, label);
  EXPECT_TRUE(cache.has_path(7, label));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ProofPathCache, CrossSubtreeCollisionsNeverFalselyHit) {
  // Within one root a position has exactly one valid label (positions are
  // injective across the trie; equivocating roots get separate caches).
  // A lookup with a different label at a cached position must MISS, and a
  // conflicting re-insert must not displace the verified original.
  sv::ProofPathCache cache(8);
  spider::util::Digest20 a{}, b{};
  a[0] = 1;
  b[0] = 2;
  cache.insert_path(3, a);
  EXPECT_FALSE(cache.has_path(3, b));  // differing label: no false hit
  cache.insert_path(3, b);             // conflicting insert is ignored
  EXPECT_TRUE(cache.has_path(3, a));
  EXPECT_FALSE(cache.has_path(3, b));
  // Same label at different positions: distinct entries, no aliasing.
  cache.insert_path(4, a);
  EXPECT_TRUE(cache.has_path(4, a));
  EXPECT_FALSE(cache.has_path(5, a));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProofPathCache, FifoEvictionBoundsTheSize) {
  sv::ProofPathCache cache(4);
  std::vector<spider::util::Digest20> labels;
  for (std::uint8_t i = 0; i < 6; ++i) {
    spider::util::Digest20 label{};
    label[0] = i;
    labels.push_back(label);
    cache.insert_path(i, label);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The two oldest are gone; the four newest remain.
  EXPECT_FALSE(cache.has_path(0, labels[0]));
  EXPECT_FALSE(cache.has_path(1, labels[1]));
  for (std::uint8_t i = 2; i < 6; ++i) EXPECT_TRUE(cache.has_path(i, labels[i]));
}

TEST(ProofPathCache, DuplicateInsertIsIdempotent) {
  sv::ProofPathCache cache(4);
  spider::util::Digest20 label{};
  cache.insert_path(1, label);
  cache.insert_path(1, label);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(CachedProofVerifier, TinyCacheStillVerifiesCorrectly) {
  // A verifier whose cache thrashes (capacity 2) must accept exactly the
  // proofs core::Mtt::verify accepts — eviction can cost hits, never
  // correctness.  Tampered class-0 openings supply proofs to reject.
  EngineWorld world;
  sp::ProofGenerator generator(world.deploy.recorder(5));
  generator.faults().tamper_classes = {0};
  const auto recon = generator.reconstruct(world.commit_time);
  const spider::util::Digest20 root = recon.tree.root_label();
  const std::uint32_t k = engine_config().num_classes;
  sv::CachedProofVerifier verifier(2);
  std::size_t accepted = 0, rejected = 0;
  auto check = [&](const sc::MttPrefixProof& proof) {
    const bool want = sc::Mtt::verify(root, k, proof);
    EXPECT_EQ(verifier.verify(root, k, proof), want) << proof.prefix.str();
    ++(want ? accepted : rejected);
  };
  for (sb::AsNumber neighbor : world.deploy.neighbors_of(5)) {
    for (const auto& item : generator.proofs_for_producer(recon, neighbor).items) check(item.proof);
    for (const auto& item : generator.proofs_for_consumer(recon, neighbor).items) check(item.proof);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  sv::SessionStats stats;
  verifier.drain_into(stats);
  EXPECT_EQ(stats.proofs_checked, accepted + rejected);
  EXPECT_EQ(stats.proofs_accepted, accepted);
  EXPECT_GT(stats.cache_evictions, 0u);
}

// --------------------------------------------------- rsa_verify_batch

namespace {

scr::RsaPrivateKey batch_key() {
  // SHA-512 PKCS#1 v1.5 needs >= 752 modulus bits; 1024 matches the
  // deployment signer.
  su::SplitMix64 rng(0x5eedbeef);
  static const scr::RsaPrivateKey key = scr::rsa_generate(1024, rng);
  return key;
}

su::Bytes msg(const char* text) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(text);
  return su::Bytes(p, p + std::strlen(text));
}

}  // namespace

TEST(RsaVerifyBatch, AgreesWithScalarVerify) {
  auto key = batch_key();
  auto pub = key.public_key();
  std::vector<su::Bytes> messages = {msg("route a"), msg("route b"), msg("route c"),
                                     msg("route d")};
  std::vector<su::Bytes> signatures;
  for (const auto& m : messages) {
    signatures.push_back(scr::rsa_sign(key, su::ByteSpan{m.data(), m.size()}));
  }
  std::vector<scr::RsaVerifyItem> items;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    items.push_back({su::ByteSpan{messages[i].data(), messages[i].size()},
                     su::ByteSpan{signatures[i].data(), signatures[i].size()}});
  }
  auto batch = scr::rsa_verify_batch(pub, items);
  ASSERT_EQ(batch.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    bool scalar = scr::rsa_verify(pub, items[i].message, items[i].signature);
    EXPECT_TRUE(scalar) << i;
    EXPECT_EQ(batch[i], scalar) << i;
  }
}

TEST(RsaVerifyBatch, OneBadSignatureIsIsolated) {
  auto key = batch_key();
  auto pub = key.public_key();
  std::vector<su::Bytes> messages = {msg("m0"), msg("m1"), msg("m2"), msg("m3"), msg("m4")};
  std::vector<su::Bytes> signatures;
  for (const auto& m : messages) {
    signatures.push_back(scr::rsa_sign(key, su::ByteSpan{m.data(), m.size()}));
  }
  signatures[2][4] ^= 0x40;  // corrupt exactly one signature
  std::vector<scr::RsaVerifyItem> items;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    items.push_back({su::ByteSpan{messages[i].data(), messages[i].size()},
                     su::ByteSpan{signatures[i].data(), signatures[i].size()}});
  }
  auto batch = scr::rsa_verify_batch(pub, items);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i], i != 2) << i;
}

TEST(RsaVerifyBatch, EmptyBatchIsEmpty) {
  auto key = batch_key();
  EXPECT_TRUE(scr::rsa_verify_batch(key.public_key(), {}).empty());
}

// ------------------------------------------------------------ MttProofMemo

namespace {

std::vector<std::pair<sb::Prefix, std::vector<bool>>> memo_entries(std::size_t n,
                                                                   std::uint32_t k) {
  su::SplitMix64 rng(321);
  std::vector<std::pair<sb::Prefix, std::vector<bool>>> entries;
  std::set<sb::Prefix> seen;
  while (entries.size() < n) {
    sb::Prefix p(static_cast<std::uint32_t>(rng.next()),
                 static_cast<std::uint8_t>(8 + rng.next() % 17));
    if (!seen.insert(p).second) continue;
    std::vector<bool> bits(k);
    for (std::size_t i = 0; i < k; ++i) bits[i] = (rng.next() & 1) != 0;
    entries.emplace_back(p, bits);
  }
  return entries;
}

}  // namespace

TEST(MttProofMemo, ProofsAreBitIdenticalWithAndWithoutTheMemo) {
  constexpr std::uint32_t k = 10;
  auto entries = memo_entries(64, k);
  auto tree = sc::Mtt::build(entries, k);
  scr::CommitmentPrf prf(scr::seed_from_string("memo-differential"));
  tree.compute_labels(prf);

  sc::MttProofMemo memo;
  for (const auto& [prefix, bits] : entries) {
    for (std::vector<sc::ClassId> classes : {std::vector<sc::ClassId>{0},
                                             std::vector<sc::ClassId>{1, 3, 7},
                                             std::vector<sc::ClassId>{}}) {
      auto plain = tree.prove(prf, prefix, classes);
      auto memoized = tree.prove(prf, prefix, classes, &memo);
      EXPECT_EQ(plain.encode(), memoized.encode()) << prefix.str();
    }
  }
  // Three calls per prefix: the first misses, the rest hit.
  auto stats = memo.stats();
  EXPECT_EQ(stats.misses, entries.size());
  EXPECT_EQ(stats.hits, 2 * entries.size());
}

TEST(MttProofMemo, NullMemoIsTheDefaultPath) {
  constexpr std::uint32_t k = 4;
  auto entries = memo_entries(8, k);
  auto tree = sc::Mtt::build(entries, k);
  scr::CommitmentPrf prf(scr::seed_from_string("memo-null"));
  tree.compute_labels(prf);
  auto a = tree.prove(prf, entries[0].first, {0, 2});
  auto b = tree.prove(prf, entries[0].first, {0, 2}, nullptr);
  EXPECT_EQ(a.encode(), b.encode());
}
