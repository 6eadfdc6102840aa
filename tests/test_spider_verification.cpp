// The verification session: one verify::run_session call runs the full
// §4.5/§6.1 flow over a deployment and reports per-neighbor verdicts.
#include <gtest/gtest.h>

#include "spider/verification.hpp"
#include "verify/session.hpp"

namespace sp = spider::proto;
namespace sv = spider::verify;
namespace sc = spider::core;
namespace sb = spider::bgp;
namespace st = spider::trace;
namespace sn = spider::netsim;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

st::RouteViewsTrace session_trace(std::uint64_t seed = 5) {
  st::TraceConfig config;
  config.num_prefixes = 250;
  config.num_updates = 100;
  config.duration = 20 * kSecond;
  config.seed = seed;
  return st::generate(config);
}

sp::DeploymentConfig session_config() {
  sp::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};
  return config;
}

struct SessionWorld {
  st::RouteViewsTrace trace = session_trace();
  sp::Fig5Deployment deploy{session_config()};
  sn::Time commit_time = 0;

  explicit SessionWorld(std::function<void(sp::Fig5Deployment&)> before = {}) {
    if (before) before(deploy);
    auto start = deploy.run_setup(trace, 20 * kSecond);
    deploy.run_replay(trace, start, 5 * kSecond);
    commit_time = deploy.recorder(5).make_commitment().timestamp;
    deploy.sim().run();
  }
};

}  // namespace

TEST(VerificationSession, CleanRunIsClean) {
  SessionWorld world;
  auto report = sv::run_session(world.deploy, 5, world.commit_time, {}).report;
  EXPECT_TRUE(report.clean()) << report.findings().front();
  EXPECT_TRUE(report.root_matches);
  EXPECT_FALSE(report.equivocation.has_value());
  EXPECT_EQ(report.verdicts.size(), 5u);  // AS5's five neighbors
  EXPECT_GT(report.proof_bytes, 0u);
  EXPECT_TRUE(report.findings().empty());
}

TEST(VerificationSession, ExtendedCleanRunIsClean) {
  SessionWorld world;
  auto report = sv::run_session(world.deploy, 5, world.commit_time, {}, /*extended=*/true).report;
  EXPECT_TRUE(report.clean()) << report.findings().front();
}

TEST(VerificationSession, HiddenRouteSurfacesAtTheRightNeighbor) {
  SessionWorld world([](sp::Fig5Deployment& deploy) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
  });
  auto report = sv::run_session(world.deploy, 5, world.commit_time, {}).report;
  EXPECT_FALSE(report.clean());
  for (const auto& verdict : report.verdicts) {
    if (verdict.neighbor == 2) {
      ASSERT_TRUE(verdict.as_producer.has_value());
      EXPECT_EQ(verdict.as_producer->kind, sc::FaultKind::kOmittedInput);
    } else {
      EXPECT_TRUE(verdict.clean()) << "AS" << verdict.neighbor;
    }
  }
  EXPECT_EQ(report.findings().size(), 1u);
}

TEST(VerificationSession, SubtreeRestrictionShrinksProofBytes) {
  SessionWorld world;
  auto full = sv::run_session(world.deploy, 5, world.commit_time, {}).report;
  // Restrict to the /4 covering the first imported prefix.
  auto imports = world.deploy.recorder(6).my_imports_from(5);
  ASSERT_FALSE(imports.empty());
  sb::Prefix subtree(imports.begin()->first.bits(), 4);
  auto restricted = sv::run_session(world.deploy, 5, world.commit_time, {}, false, subtree).report;
  EXPECT_TRUE(restricted.clean());
  EXPECT_LT(restricted.proof_bytes, full.proof_bytes);
  EXPECT_GT(restricted.proof_bytes, 0u);
}

TEST(VerificationSession, ReportsElapsedTime) {
  SessionWorld world;
  auto report = sv::run_session(world.deploy, 5, world.commit_time, {}).report;
  EXPECT_GT(report.elapsed_seconds, 0.0);
  EXPECT_EQ(report.elector, 5u);
  EXPECT_EQ(report.commit_time, world.commit_time);
}

TEST(VerificationSession, VerifiesOtherElectorsToo) {
  // Commit at AS2 and verify it: sessions are not special to AS5.
  SessionWorld world;
  auto t2 = world.deploy.recorder(2).make_commitment().timestamp;
  world.deploy.sim().run();
  auto report = sv::run_session(world.deploy, 2, t2, {}).report;
  EXPECT_TRUE(report.clean()) << report.findings().front();
  EXPECT_EQ(report.verdicts.size(), world.deploy.neighbors_of(2).size());
}
