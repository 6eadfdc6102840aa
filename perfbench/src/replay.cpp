// replay: the in-process Figure-5 deployment (10 ASes on netsim, one
// thread, RSA-1024) replays a bursty trace while every AS commits on a
// simulated interval.  The recorder's write path does nearly all the
// work: batch sign/verify, log append, mirroring, MTT labeling and the
// commitment.  No verification session runs, so a verification change
// should leave every replay number unchanged.
//
// The operation timed for op_ms_* is Recorder::make_commitment, called by
// the benchmark itself from simulator events on the commit schedule.
#include <algorithm>
#include <memory>
#include <set>

#include "common.hpp"
#include "spider/deployment.hpp"
#include "spider/proof_generator.hpp"
#include "trace/routeviews.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using spider::netsim::kMicrosPerSecond;
using spider::netsim::Time;
namespace proto = spider::proto;
namespace trace = spider::trace;

struct Size {
  std::size_t prefixes;
  std::size_t updates_per_tick;
  std::size_t ticks;
};

/// Simulated time between two commit rounds; each round commits at all
/// ten ASes, so ten ticks give the 100 samples a p90 needs.
constexpr Time kTick = 15 * kMicrosPerSecond;
constexpr std::size_t kMinTicks = 10;
/// Update-free simulated time before each commitment (see
/// quiet_commit_times).
constexpr Time kQuiet = 2 * kMicrosPerSecond;
/// Calibrated on a 4-vCPU x86-64 VM: one tick (one round of ten
/// commitments plus its share of the trace) takes about 1.5 s.
constexpr double kTicksPerSecond = 0.65;
/// Commitments cross-checked by reconstruction after the timed phase.
constexpr std::size_t kReconstructChecks = 3;

Size size_for(const Options& opt) {
  if (opt.tiny) return {300, 8, 3};
  const auto ticks = static_cast<std::size_t>(opt.seconds * kTicksPerSecond + 0.5);
  return {2000, 150, std::max(kMinTicks, ticks)};
}

struct Setup {
  trace::RouteViewsTrace trace;
  std::unique_ptr<proto::Fig5Deployment> deploy;
  Time start = 0;
  double generate_s = 0;
};

/// Trace generation, key set-up, table load and the first commitment at
/// every AS: everything before the timed phase.
Setup set_up(const Options& opt, const Size& size) {
  Setup s;
  trace::TraceConfig tc;
  tc.num_prefixes = size.prefixes;
  tc.num_updates = size.updates_per_tick * size.ticks;
  tc.duration = static_cast<Time>(size.ticks) * kTick;
  tc.seed = opt.seed;
  {
    const double t0 = wall_now();
    auto span = tracer().scope("trace/generate");
    s.trace = trace::generate(tc);
    s.generate_s = wall_now() - t0;
  }
  proto::DeploymentConfig dc;
  dc.scheme = proto::DeploymentConfig::SignScheme::kRsa;
  dc.commit_ases = {};  // the benchmark drives every commitment itself
  s.deploy = std::make_unique<proto::Fig5Deployment>(dc);
  s.start = s.deploy->run_setup(s.trace, 120 * kMicrosPerSecond);
  for (spider::bgp::AsNumber asn : proto::Fig5Deployment::ases()) {
    s.deploy->recorder(asn).make_commitment();
  }
  s.deploy->sim().run_until(s.start + kMicrosPerSecond);
  s.start = s.deploy->sim().now();
  return s;
}

/// The commit schedule, relative to the replay start: every kTick, moved
/// later to the first instant that follows kQuiet without a trace update.
/// A commitment taken while a signed batch is still in flight makes the
/// recorder's §6.2 mirror cross-check raise a false "mirror mismatch"
/// alarm (the BGP view already has the update, the signed mirror not yet);
/// commits at quiet points keep that race out of the measurement.
std::vector<Time> quiet_commit_times(const trace::RouteViewsTrace& tr, std::size_t ticks) {
  std::vector<Time> out;
  std::size_t next_event = 0;  // first event after the candidate time
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    Time at = std::max(static_cast<Time>(tick) * kTick, out.empty() ? 0 : out.back() + 1);
    for (;;) {
      while (next_event < tr.events.size() && tr.events[next_event].time <= at) ++next_event;
      const Time last = next_event == 0 ? -kQuiet : tr.events[next_event - 1].time;
      if (at - last >= kQuiet) break;
      at = last + kQuiet;
    }
    out.push_back(at);
  }
  return out;
}

}  // namespace

Result run_replay(const Options& opt) {
  const Size size = size_for(opt);
  Tracer& tr = tracer();
  Result result;

  std::vector<double> setup_times, generate_times;
  Setup s;
  for (int i = 0; i < opt.setups; ++i) {
    s = Setup{};  // release the previous deployment before building the next
    const double t0 = wall_now();
    s = set_up(opt, size);
    setup_times.push_back(wall_now() - t0);
    generate_times.push_back(s.generate_s);
  }
  proto::Fig5Deployment& deploy = *s.deploy;
  spider::netsim::Simulator& sim = deploy.sim();
  const auto& ases = proto::Fig5Deployment::ases();
  const spider::bgp::AsNumber trace_peer = deploy.config().trace_peer;

  // The whole schedule is laid out in simulated time before the clock
  // starts: trace updates enter AS 2's speaker at their trace times, and
  // all ten recorders commit at each quiet point after a kTick.
  for (const trace::TraceEvent& event : s.trace.events) {
    sim.schedule_at(s.start + event.time, [&deploy, &event, trace_peer] {
      auto span = tracer().scope("bgp/inject");
      deploy.speaker(2).inject(trace_peer, event.update);
    });
  }
  std::vector<double> commit_ms;
  struct Commit {
    spider::bgp::AsNumber asn;
    Time time;
  };
  std::vector<Commit> commits;
  const std::vector<Time> commit_times = quiet_commit_times(s.trace, size.ticks);
  for (Time at : commit_times) {
    sim.schedule_at(s.start + at, [&] {
      for (spider::bgp::AsNumber asn : ases) {
        auto span = tracer().scope("spider/commit");
        const double t0 = wall_now();
        const proto::CommitmentRecord& record = deploy.recorder(asn).make_commitment();
        commit_ms.push_back((wall_now() - t0) * 1e3);
        commits.push_back({asn, record.timestamp});
      }
    });
  }

  const std::size_t as2_log0 = deploy.recorder(2).log().entries().size();
  const std::uint64_t spider_bytes0 = deploy.spider_bytes(5);
  const std::uint64_t log_bytes0 = deploy.recorder(5).log().message_bytes();
  ObsDelta delta;
  delta.before = obs_snapshot();
  const std::size_t mark = tr.mark();
  const double cpu0 = process_cpu_now();
  const double wall0 = wall_now();
  for (Time at : commit_times) {
    auto span = tr.scope("netsim/run_until");
    sim.run_until(s.start + at);
  }
  const double wall = wall_now() - wall0;
  const double cpu = process_cpu_now() - cpu0;
  delta.after = obs_snapshot();
  const double updates = static_cast<double>(s.trace.events.size());
  const std::uint64_t spider_bytes = deploy.spider_bytes(5) - spider_bytes0;
  const std::uint64_t log_bytes = deploy.recorder(5).log().message_bytes() - log_bytes0;

  // --- Correctness (untimed).  Drain ACKs and retransmissions so every
  // recorder has settled, then: every trace update mirrored at AS 2, no
  // alarm anywhere, and a seeded sample of commitments reproduced by
  // checkpoint + replay reconstruction.
  sim.run_until(sim.now() + 30 * kMicrosPerSecond);
  result.attempted += s.trace.events.size();
  // AS 2 logs one unsigned record per update mirrored from the trace
  // peer, which does not run SPIDeR (§6.7).
  const auto& as2_log = deploy.recorder(2).log().entries();
  std::size_t mirrored = 0;
  for (std::size_t i = as2_log0; i < as2_log.size(); ++i) {
    if (as2_log[i].direction == proto::LogDirection::kReceived &&
        as2_log[i].peer_as == trace_peer) {
      ++mirrored;
    }
  }
  if (mirrored != s.trace.events.size()) {
    result.failed += s.trace.events.size() > mirrored ? s.trace.events.size() - mirrored : 1;
    result.failures.push_back("AS 2 mirrored " + std::to_string(mirrored) + " of " +
                              std::to_string(s.trace.events.size()) + " trace updates");
  }
  result.attempted += commits.size();
  for (spider::bgp::AsNumber asn : ases) {
    for (const std::string& alarm : deploy.recorder(asn).alarms()) {
      result.fail("AS " + std::to_string(asn) + " alarm: " + alarm);
    }
  }
  spider::util::SplitMix64 rng(opt.seed ^ 0x7265706c6179ULL);
  std::set<std::size_t> sample;
  while (sample.size() < std::min(kReconstructChecks, commits.size())) {
    sample.insert(static_cast<std::size_t>(rng.below(commits.size())));
  }
  for (std::size_t index : sample) {
    const Commit& commit = commits[index];
    ++result.attempted;
    proto::ProofGenerator generator(deploy.recorder(commit.asn));
    if (!generator.reconstruct(commit.time).root_matches) {
      result.fail("AS " + std::to_string(commit.asn) + " commitment at " +
                  std::to_string(commit.time) + ": replayed root does not match");
    }
  }

  result.timed_wall = wall;
  result.items = updates;
  auto& m = result.metrics;
  if (!opt.trace) {
    m["setup_s"] = median(setup_times);
    m["throughput_per_s"] = updates / wall;
    m["op_ms_p50"] = percentile(commit_ms, 0.5);
    m["op_ms_p90"] = percentile(commit_ms, 0.9);
    m["bytes_per_item"] = static_cast<double>(spider_bytes) / updates;
    m["cpu_us_per_item"] = cpu / updates * 1e6;
    m["peak_rss_mb"] = self_peak_rss_mb();
    return result;
  }

  library_ledger(delta, wall, m);
  m["crypto.sha512_bytes_per_update"] =
      static_cast<double>(delta.counter("crypto/sha512_bytes")) / updates;
  m["core.mtt_label_hashes_per_commit"] =
      static_cast<double>(delta.counter("core/mtt_label_hashes")) /
      static_cast<double>(commits.size());
  m["bgp.inject_busy_frac"] = tr.total("bgp/inject", mark) / wall;
  m["bgp.decisions_per_update"] = static_cast<double>(delta.counter("bgp/decisions")) / updates;
  m["netsim.events_per_update"] =
      static_cast<double>(delta.counter("netsim/events_dispatched")) / updates;
  m["netsim.run_busy_frac"] = tr.total("netsim/run_until", mark) / wall;
  m["spider.commit_busy_frac"] = tr.total("spider/commit", mark) / wall;
  m["spider.batches_signed_per_update"] =
      static_cast<double>(delta.counter("spider/batches_signed")) / updates;
  m["spider.batches_verified_per_update"] =
      static_cast<double>(delta.counter("spider/batches_verified")) / updates;
  m["spider.log_bytes_per_update"] = static_cast<double>(log_bytes) / updates;
  m["trace.generate_s"] = median(generate_times);
  m["trace.attributed_frac"] = tr.attributed({"netsim/run_until"}, mark) / wall;
  complete_ledger(m);
  return result;
}

}  // namespace perfbench
