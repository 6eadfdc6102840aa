// Example: a full SPIDeR deployment on the paper's Figure-5 topology.
//
// Ten ASes, each with a BGP speaker and a SPIDeR recorder; a synthetic
// RouteViews-style trace is injected at AS 2.  After the replay AS 5
// commits to its routing decisions and we verify that commitment with
// verify::run_session: every neighbor runs its checker in both roles
// and — in the second half — AS 5 is misconfigured to hide AS 2's routes,
// and AS 2 catches it.
//
// Build & run:  ./build/examples/spider_deployment
#include <cstdio>

#include "spider/deployment.hpp"
#include "spider/verification.hpp"
#include "verify/session.hpp"

using namespace spider;

namespace {

constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;

trace::RouteViewsTrace demo_trace() {
  trace::TraceConfig config;
  config.num_prefixes = 3000;
  config.num_updates = 800;
  config.duration = 60 * kSecond;
  config.seed = 20120813;
  return trace::generate(config);
}

/// One §6.1 verification session for AS 5's commitment, exactly as a
/// deployment runs it: AS 5's own proof generator answers every neighbor,
/// and each neighbor checks against the promise AS 5 made to it.
void verify_as5(proto::Fig5Deployment& deploy, const proto::CommitmentRecord& record) {
  const proto::VerificationReport report =
      verify::run_session(deploy, 5, record.timestamp, {}).report;
  std::printf("  session: root %s (%.2f s, %zu proof bytes)\n",
              report.root_matches ? "matches" : "MISMATCH", report.elapsed_seconds,
              report.proof_bytes);
  for (const proto::NeighborVerdict& verdict : report.verdicts) {
    std::printf("  AS%-2u producer-check: %-40s consumer-check: %s\n", verdict.neighbor,
                verdict.as_producer ? verdict.as_producer->detail.c_str() : "ok",
                verdict.as_consumer ? verdict.as_consumer->detail.c_str() : "ok");
  }
}

}  // namespace

int main() {
  std::printf("=== SPIDeR on the Figure-5 topology ===\n\n");
  auto tr = demo_trace();
  std::printf("trace: %zu prefixes in the snapshot, %zu replay events\n\n",
              tr.rib_snapshot.size(), tr.events.size());

  {
    std::printf("--- run 1: every AS behaves ---\n");
    proto::DeploymentConfig config;
    config.num_classes = 50;
    config.commit_ases = {};
    proto::Fig5Deployment deploy(config);
    auto start = deploy.run_setup(tr, 60 * kSecond);
    deploy.run_replay(tr, start, 5 * kSecond);

    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();
    std::printf("AS5 committed at T=%llds; root %s...\n",
                static_cast<long long>(record.timestamp / kSecond),
                util::to_hex(record.root).substr(0, 16).c_str());
    verify_as5(deploy, record);

    std::printf("\n  recorder stats at AS5: %llu updates mirrored, %llu signatures, "
                "%llu alarms\n",
                static_cast<unsigned long long>(deploy.recorder(5).updates_mirrored()),
                static_cast<unsigned long long>(deploy.recorder(5).signatures_performed()),
                static_cast<unsigned long long>(deploy.recorder(5).alarms().size()));
  }

  {
    std::printf("\n--- run 2: AS5 silently filters AS2's routes ---\n");
    proto::DeploymentConfig config;
    config.num_classes = 50;
    config.commit_ases = {};
    proto::Fig5Deployment deploy(config);
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
    auto start = deploy.run_setup(tr, 60 * kSecond);
    deploy.run_replay(tr, start, 5 * kSecond);

    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();
    verify_as5(deploy, record);
    std::printf("\n  (AS2's producer check fails: its routes were acknowledged but the\n");
    std::printf("   committed bits say the class was empty — transferable evidence.)\n");
  }
  return 0;
}
