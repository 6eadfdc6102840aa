// audit: the verification read path.  Set-up replays a short trace
// through the Figure-5 deployment (RSA-1024) and takes a fixed set of AS 5
// commitments; the timed phase is a seeded schedule of
// verify::run_session calls with pipelined_config(kAuditJobs).  For each
// commitment visited it runs one full-table session and a set of /8
// subtree sessions (the §7.3 `within` restriction), all with extended
// verification on.
//
// Full sessions are dominated by proof work and hit the proof-path cache
// almost always; subtree sessions are dominated by reconstruction and
// share little work across prefixes.  A cache change therefore shows on
// throughput_per_s (full sessions) and a reconstruction change on
// op_ms_* (subtree sessions).  No update is ingested in the timed phase.
#include <memory>
#include <optional>
#include <set>

#include "common.hpp"
#include "spider/deployment.hpp"
#include "trace/routeviews.hpp"
#include "util/rng.hpp"
#include "verify/session.hpp"

namespace perfbench {
namespace {

using spider::netsim::kMicrosPerSecond;
using spider::netsim::Time;
namespace proto = spider::proto;
namespace trace = spider::trace;
namespace verify = spider::verify;

struct Size {
  std::size_t prefixes;
  std::size_t updates;
  std::size_t commitments;
  std::size_t subtrees_per_unit;
  std::size_t units;
};

constexpr Time kReplayDuration = 60 * kMicrosPerSecond;
/// Each unit is one full session plus this many subtree sessions; the
/// floor of ten units gives more than the 100 subtree samples a p90 needs.
constexpr std::size_t kSubtreesPerUnit = 12;
constexpr std::size_t kMinUnits = 10;
/// Calibrated on a 4-vCPU x86-64 VM: one unit takes about 2 s.
constexpr double kUnitsPerSecond = 0.5;

Size size_for(const Options& opt) {
  if (opt.tiny) return {300, 60, 2, 3, 2};
  const auto units = static_cast<std::size_t>(opt.seconds * kUnitsPerSecond + 0.5);
  return {1500, 300, 4, kSubtreesPerUnit, std::max(kMinUnits, units)};
}

struct Setup {
  trace::RouteViewsTrace trace;
  std::unique_ptr<proto::Fig5Deployment> deploy;
  std::vector<Time> commitments;  // AS 5's, in commit order
  double generate_s = 0;
};

Setup set_up(const Options& opt, const Size& size) {
  Setup s;
  trace::TraceConfig tc;
  tc.num_prefixes = size.prefixes;
  tc.num_updates = size.updates;
  tc.duration = kReplayDuration;
  tc.seed = opt.seed;
  {
    const double t0 = wall_now();
    auto span = tracer().scope("trace/generate");
    s.trace = trace::generate(tc);
    s.generate_s = wall_now() - t0;
  }
  proto::DeploymentConfig dc;
  dc.scheme = proto::DeploymentConfig::SignScheme::kRsa;
  dc.commit_ases = {};  // AS 5 commits on the benchmark's schedule below
  s.deploy = std::make_unique<proto::Fig5Deployment>(dc);
  proto::Fig5Deployment& deploy = *s.deploy;
  const Time start = deploy.run_setup(s.trace, 120 * kMicrosPerSecond);
  deploy.run_replay(s.trace, start, 5 * kMicrosPerSecond);
  // The commitments are taken after the replay has settled, one simulated
  // second apart.  run_session checks each neighbor's *current* exports
  // and imports against the proofs, so only a commitment with no routing
  // change after it can verify clean; every commitment here qualifies.
  for (std::size_t i = 0; i < size.commitments; ++i) {
    s.commitments.push_back(deploy.recorder(5).make_commitment().timestamp);
    deploy.sim().run_until(deploy.sim().now() + kMicrosPerSecond);
  }
  return s;
}

/// The /8 blocks holding at least one table prefix: subtree sessions are
/// drawn from these so every one verifies something.
std::vector<spider::bgp::Prefix> populated_slash8s(const trace::RouteViewsTrace& tr) {
  std::set<std::uint32_t> tops;
  for (const spider::bgp::Route& route : tr.rib_snapshot) {
    if (route.prefix.length() >= 8) tops.insert(route.prefix.bits() >> 24);
  }
  std::vector<spider::bgp::Prefix> out;
  for (std::uint32_t top : tops) out.emplace_back(top << 24, 8);
  return out;
}

}  // namespace

Result run_audit(const Options& opt) {
  const Size size = size_for(opt);
  Tracer& tr = tracer();
  Result result;

  std::vector<double> setup_times, generate_times;
  Setup s;
  for (int i = 0; i < opt.setups; ++i) {
    s = Setup{};
    const double t0 = wall_now();
    s = set_up(opt, size);
    setup_times.push_back(wall_now() - t0);
    generate_times.push_back(s.generate_s);
  }
  proto::Fig5Deployment& deploy = *s.deploy;
  if (s.commitments.size() != size.commitments) {
    result.fail("set-up made " + std::to_string(s.commitments.size()) + " of " +
                std::to_string(size.commitments) + " AS 5 commitments");
    return result;
  }

  // The seeded session schedule, fixed before the clock starts.
  const std::vector<spider::bgp::Prefix> blocks = populated_slash8s(s.trace);
  spider::util::SplitMix64 rng(opt.seed ^ 0x6175646974ULL);
  struct Session {
    Time commit_time;
    std::optional<spider::bgp::Prefix> within;  // nullopt = full table
  };
  std::vector<Session> schedule;
  for (std::size_t unit = 0; unit < size.units; ++unit) {
    const Time commit_time = s.commitments[rng.below(s.commitments.size())];
    schedule.push_back({commit_time, std::nullopt});
    for (std::size_t i = 0; i < size.subtrees_per_unit; ++i) {
      schedule.push_back({commit_time, blocks[rng.below(blocks.size())]});
    }
  }

  const verify::SessionConfig config = verify::pipelined_config(kAuditJobs);
  verify::SessionStats full, subtree;
  std::vector<double> subtree_ms;
  std::vector<double> full_rates;  // proofs checked per second, per full session
  ObsDelta delta;
  delta.before = obs_snapshot();
  const std::size_t mark = tr.mark();
  const double cpu0 = process_cpu_now();
  const double wall0 = wall_now();
  for (const Session& session : schedule) {
    auto span = tr.scope("verify/session");
    const double t0 = wall_now();
    verify::SessionResult run =
        verify::run_session(deploy, 5, session.commit_time, config, /*extended=*/true,
                            session.within);
    const double elapsed = wall_now() - t0;
    ++result.attempted;
    if (!run.report.clean() || !run.report.root_matches) {
      result.fail("session at " + std::to_string(session.commit_time) +
                  (session.within ? " within " + session.within->str() : " (full)") +
                  " not clean" +
                  (run.report.findings().empty() ? "" : ": " + run.report.findings().front()));
    }
    verify::SessionStats& into = session.within ? subtree : full;
    into.digest_ops += run.stats.digest_ops;
    into.proofs_checked += run.stats.proofs_checked;
    into.cache_hits += run.stats.cache_hits;
    into.cache_misses += run.stats.cache_misses;
    into.bytes_shipped += run.stats.bytes_shipped;
    into.challenge_round_trips += run.stats.challenge_round_trips;
    into.signatures_verified += run.stats.signatures_verified;
    into.signature_batches += run.stats.signature_batches;
    into.reconstruct_seconds += run.stats.reconstruct_seconds;
    into.total_seconds += run.stats.total_seconds;
    if (session.within) {
      subtree_ms.push_back(elapsed * 1e3);
    } else {
      full_rates.push_back(static_cast<double>(run.stats.proofs_checked) / elapsed);
    }
  }
  const double wall = wall_now() - wall0;
  const double cpu = process_cpu_now() - cpu0;
  delta.after = obs_snapshot();
  if (full.proofs_checked == 0) {
    result.fail("full-table sessions checked no proofs");
    return result;
  }

  const double proofs = static_cast<double>(full.proofs_checked + subtree.proofs_checked);
  result.timed_wall = wall;
  result.items = proofs;
  auto& m = result.metrics;
  if (!opt.trace) {
    m["setup_s"] = median(setup_times);
    // The median over full sessions, not the phase total: the two-thread
    // pipeline's wall time picks up scheduling stalls on a shared host
    // that its CPU time does not, and a median keeps one stalled session
    // from moving the result.
    m["throughput_per_s"] = median(full_rates);
    m["op_ms_p50"] = percentile(subtree_ms, 0.5);
    m["op_ms_p90"] = percentile(subtree_ms, 0.9);
    m["bytes_per_item"] =
        static_cast<double>(full.bytes_shipped) / static_cast<double>(full.proofs_checked);
    m["cpu_us_per_item"] = cpu / proofs * 1e6;
    m["peak_rss_mb"] = self_peak_rss_mb();
    return result;
  }

  const double sessions = static_cast<double>(schedule.size());
  library_ledger(delta, wall, m);
  m["crypto.sha512_bytes_per_prefix"] =
      static_cast<double>(delta.counter("crypto/sha512_bytes")) / proofs;
  // Every session reconstructs its commitment once, relabeling the MTT.
  m["core.mtt_label_hashes_per_commit"] =
      static_cast<double>(delta.counter("core/mtt_label_hashes")) / sessions;
  m["spider.reconstruct_frac"] = delta.span_wall("proof_gen/reconstruct") / wall;
  m["verify.session_frac"] = tr.total("verify/session", mark) / wall;
  const double total_s = full.total_seconds + subtree.total_seconds;
  m["verify.reconstruct_share"] =
      total_s > 0 ? (full.reconstruct_seconds + subtree.reconstruct_seconds) / total_s : 0;
  m["verify.digest_ops_per_proof"] =
      static_cast<double>(full.digest_ops + subtree.digest_ops) / proofs;
  const double lookups =
      static_cast<double>(full.cache_hits + full.cache_misses + subtree.cache_hits +
                          subtree.cache_misses);
  m["verify.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(full.cache_hits + subtree.cache_hits) / lookups : 0;
  m["verify.rounds_per_session"] =
      static_cast<double>(full.challenge_round_trips + subtree.challenge_round_trips) / sessions;
  const double batches = static_cast<double>(full.signature_batches + subtree.signature_batches);
  m["verify.signature_batch_size"] =
      batches > 0
          ? static_cast<double>(full.signatures_verified + subtree.signatures_verified) / batches
          : 0;
  m["trace.generate_s"] = median(generate_times);
  m["trace.attributed_frac"] = tr.attributed({}, mark) / wall;
  complete_ledger(m);
  return result;
}

}  // namespace perfbench
