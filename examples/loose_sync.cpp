// Example: loose synchronization (§6.4) — verification stays accurate even
// when routes flap right around commitment time.
//
// BGP updates take time to propagate (MRAI, flap damping, link latency),
// so at any commitment instant T the elector's output may lag its inputs.
// SPIDeR lets the elector justify itself with any input value from the
// window [T−δ, T]: "Alice would be free to choose whether she wants her
// input from Bob to be r1, ⊥, or r2".  This example flaps a prefix at
// AS 2 moments before AS 5 commits and shows that (a) verification still
// passes — no false accusation — and (b) the proof cites a route the
// producer really sent inside the window.
//
// Build & run:  ./build/examples/loose_sync
#include <cstdio>

#include "spider/verification.hpp"
#include "verify/session.hpp"

using namespace spider;

namespace {
constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;
}

int main() {
  std::printf("=== Loose synchronization: committing during route churn ===\n\n");

  trace::TraceConfig tc;
  tc.num_prefixes = 500;
  tc.num_updates = 0;
  tc.duration = 10 * kSecond;
  tc.seed = 64;
  auto tr = trace::generate(tc);

  proto::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};
  config.delta = 5 * kSecond;  // the δ window
  proto::Fig5Deployment deploy(config);
  // MRAI on AS 2 adds the very propagation delay §6.4 worries about.
  deploy.speaker(2).set_mrai(2 * kSecond);

  auto start = deploy.run_setup(tr, 30 * kSecond);
  std::printf("setup done: %zu prefixes propagated through 10 ASes (AS2 under MRAI)\n",
              tr.rib_snapshot.size());

  // Flap one prefix from the trace peer in the seconds before the commit:
  // withdraw, re-announce with a longer path, re-announce again.
  const bgp::Prefix victim = tr.rib_snapshot.front().prefix;
  auto flap = [&](netsim::Time at, int extra_hops) {
    deploy.sim().schedule_at(at, [&deploy, &tr, victim, extra_hops] {
      bgp::Update update;
      if (extra_hops < 0) {
        update.withdrawn.push_back(victim);
      } else {
        bgp::Route r = tr.rib_snapshot.front();
        for (int i = 0; i < extra_hops; ++i) r.as_path.push_back(60000 + static_cast<bgp::AsNumber>(i));
        update.announced.push_back(r);
      }
      deploy.speaker(2).inject(1000, update);
    });
  };
  flap(start + 1 * kSecond, -1);  // withdraw
  flap(start + 2 * kSecond, 3);   // back, longer
  flap(start + 3 * kSecond, 1);   // back, shorter again
  deploy.sim().run_until(start + 4 * kSecond - 200'000);  // commit mid-churn

  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();
  std::printf("AS5 committed at T=%.1fs, while %s was still converging\n\n",
              static_cast<double>(record.timestamp) / kSecond, victim.str().c_str());

  auto report = verify::run_session(deploy, 5, record.timestamp, {}).report;
  std::printf("verification of AS5: %s (root %s, %zu neighbors, %.2fs)\n",
              report.clean() ? "CLEAN — no false accusation despite the churn" : "FINDINGS",
              report.root_matches ? "matches" : "MISMATCH", report.verdicts.size(),
              report.elapsed_seconds);
  for (const auto& finding : report.findings()) std::printf("  %s\n", finding.c_str());

  // Show which in-window input the elector cited for the flapping prefix.
  proto::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  auto proofs = generator.proofs_for_producer(recon, 2);
  for (const auto& item : proofs.items) {
    if (item.prefix == victim) {
      std::printf("\nproof for the flapping prefix cites the in-window input:\n  %s (class %u)\n",
                  item.used_route.str().c_str(), item.cls);
    }
  }
  auto window_it = recon.window_candidates.find({2u, victim});
  if (window_it != recon.window_candidates.end()) {
    std::printf("in-window candidate values the elector could have cited: %zu\n",
                window_it->second.size());
  }
  return report.clean() ? 0 : 1;
}
