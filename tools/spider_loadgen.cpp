// spider_loadgen — the §7.1 trace replay pointed at live spider_node
// processes: a thin CLI over verify::NodeClient that plays the RouteViews
// trace peer and measures recorder ingest (updates mirrored between two
// stats barriers, median of three bursts), commit-visibility latency and
// one pipelined verification session.  It writes a schema-validated
// spider-bench-v1 document (BENCH_transport.json), then sends kShutdown
// to every node it dialed.
//
//   spider_loadgen --recorder 5:127.0.0.1:47701 --checker 2:127.0.0.1:47702
//       --proofgen 905:127.0.0.1:47703 --updates 200000 --out BENCH_transport.json
#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_schema.hpp"
#include "node_common.hpp"
#include "obs/metrics.hpp"
#include "verify/node_client.hpp"

using namespace spider;
using transport::PeerId;
using verify::NodeClient;

namespace {

constexpr PeerId kLoadgenId = 1000;  // doubles as the trace-peer AS number
constexpr std::uint64_t kWarmup = 5'000;
constexpr std::uint64_t kIngestRepeats = 3;  // odd: the median is one burst
constexpr std::uint64_t kLatencyRounds = 6;
constexpr std::uint64_t kLatencyBurst = 500;
constexpr std::uint64_t kRoutesPerUpdate = 4;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --recorder ID:HOST:PORT [--checker ID:HOST:PORT]\n"
               "          [--proofgen ID:HOST:PORT] [--updates N] [--prefixes N]\n"
               "          [--num-classes N] [--out FILE]\n",
               argv0);
}

/// Trace routes `first`..`first + count - 1`, kRoutesPerUpdate to an
/// UPDATE ("updates/s" counts routes): /24s under 10.0.0.0/8 cycling over
/// `prefix_space`, each pass with another origin, so repeats are real
/// routing changes.
std::vector<bgp::Update> make_updates(std::uint64_t first, std::uint64_t count,
                                      std::uint64_t prefix_space) {
  std::vector<bgp::Update> updates((count + kRoutesPerUpdate - 1) / kRoutesPerUpdate);
  for (std::uint64_t i = first; i < first + count; ++i) {
    const auto slot = static_cast<std::uint32_t>(i % prefix_space);
    bgp::Route route;
    route.prefix = bgp::Prefix((10u << 24) | ((slot >> 8) & 0xff) << 16 | (slot & 0xff) << 8, 24);
    route.as_path = {kLoadgenId, 64496 + static_cast<std::uint32_t>((i / prefix_space) & 0x3)};
    updates[(i - first) / kRoutesPerUpdate].announced.push_back(route);
  }
  return updates;
}

double seconds(transport::Time micros) { return static_cast<double>(micros) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  std::optional<nodetool::PeerSpec> recorder_peer, checker, proofgen;
  std::uint64_t updates = 100'000, prefixes = 4096;
  std::uint32_t num_classes = 50;
  std::string out_path = "BENCH_transport.json";
  nodetool::Args args{argc, argv, usage};
  while (const char* flag = args.next_flag()) {
    const std::string arg = flag;
    if (arg == "--recorder") {
      recorder_peer = args.peer();
    } else if (arg == "--checker") {
      checker = args.peer();
    } else if (arg == "--proofgen") {
      proofgen = args.peer();
    } else if (arg == "--updates") {
      updates = args.number<std::uint64_t>(1);
    } else if (arg == "--prefixes") {
      prefixes = args.number<std::uint64_t>(1);
    } else if (arg == "--num-classes") {
      num_classes = args.number<std::uint32_t>(1);
    } else if (arg == "--out") {
      out_path = args.value();
    } else {
      args.fail();
    }
  }
  if (!recorder_peer) args.fail();

  signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IOLBF, 0);  // keep progress visible under redirection
  transport::TcpTransport tcp(kLoadgenId);
  tcp.listen_on(0);  // loadgen never accepts, but the loop needs a socket set up
  NodeClient client(tcp, [&tcp] { tcp.poll_once(1'000); });
  auto fail = [](const char* what) {
    std::fprintf(stderr, "loadgen: FAILED: %s\n", what);
    return 1;
  };
  for (const auto& peer : {recorder_peer, checker, proofgen}) {
    if (peer && !nodetool::dial_with_retry(tcp, *peer)) return fail("cannot dial peer");
  }
  const PeerId recorder = recorder_peer->id;
  if (!client.subscribe(recorder)) return fail("commit subscription");

  std::uint64_t routes_made = 0;
  auto next_frames = [&](std::uint64_t count) {
    routes_made += count;
    return client.inject_frames(make_updates(routes_made - count, count, prefixes));
  };

  // ---- Phase 1: warmup (connection setup, allocator, route table prefill).
  if (!client.inject(recorder, next_frames(kWarmup))) return fail("warmup injection");
  if (!client.barrier(recorder)) return fail("warmup stats barrier");

  // ---- Phase 2: measured ingest bursts.  Frames are built and encoded
  // before the window opens, so it holds the recorder's pipeline, not the
  // trace synthesis or the client's serializer (the §7.1 replay reads a
  // pre-parsed trace the same way).
  std::vector<double> ingest_rates;
  for (std::uint64_t rep = 0; rep < kIngestRepeats; ++rep) {
    const std::vector<util::Bytes> burst = next_frames(updates);
    const auto before = client.barrier(recorder);
    if (!before) return fail("pre-burst stats barrier");
    const transport::Time burst_start = tcp.now();
    if (!client.inject(recorder, burst)) return fail("measured injection");
    const auto after = client.barrier(recorder);
    const double burst_seconds = seconds(tcp.now() - burst_start);
    if (!after) return fail("ingest stats barrier");
    const double mirrored = static_cast<double>(after->updates_mirrored - before->updates_mirrored);
    ingest_rates.push_back(mirrored / burst_seconds);
    std::printf("loadgen: burst %" PRIu64 ": %.0f updates mirrored in %.3fs -> %.0f updates/s\n",
                rep + 1, mirrored, burst_seconds, ingest_rates.back());
  }
  std::vector<double> sorted_rates = ingest_rates;
  std::sort(sorted_rates.begin(), sorted_rates.end());
  const double ingest_rate = sorted_rates[kIngestRepeats / 2];
  std::printf("loadgen: median sustained ingest %.0f updates/s (min %.0f, max %.0f) over %zu "
              "bursts\n",
              ingest_rate, sorted_rates.front(), sorted_rates.back(), ingest_rates.size());

  // ---- Phase 3: commit visibility: a mini-burst, a stats barrier marking
  // "all ingested", then the wait for the next commitment notification.
  std::vector<double> latencies_ms;
  proto::Time commit_time = 0;  // of the latest commitment
  for (std::uint64_t round = 0; round < kLatencyRounds; ++round) {
    if (!client.inject(recorder, next_frames(kLatencyBurst))) return fail("latency injection");
    if (!client.barrier(recorder)) return fail("latency stats barrier");
    const transport::Time ingested_at = tcp.now();
    const auto commit = client.await_commit();
    if (!commit) return fail("no commitment notification");
    commit_time = commit->commit.timestamp;
    latencies_ms.push_back(seconds(commit->arrived_at - ingested_at) * 1e3);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  // Nearest rank over the six rounds: p50 is the 4th, p99 the slowest.
  const double p50_ms = latencies_ms[kLatencyRounds / 2];
  const double p99_ms = latencies_ms.back();
  std::printf("loadgen: commit visibility p50=%.1fms p99=%.1fms over %zu rounds\n", p50_ms,
              p99_ms, latencies_ms.size());

  // ---- Phase 4: a pipelined verification session on the latest
  // commitment; the proofgen reconstructs once for every round.
  bool verification_clean = false, root_matches = false;
  double verify_seconds = 0;
  if (proofgen && checker) {
    const transport::Time verify_start = tcp.now();
    const auto rounds = client.verify(recorder, commit_time, proofgen->id, checker->id);
    if (!rounds) return fail("verification stalled");
    verify_seconds = seconds(tcp.now() - verify_start);
    verification_clean = root_matches = true;
    for (std::uint32_t round = 0; round < NodeClient::kRounds; ++round) {
      const proto::CheckResultFrame& result = (*rounds)[round].result;
      verification_clean = verification_clean && result.ok != 0;
      root_matches = root_matches && (*rounds)[round].bundle.root_matches != 0;
      std::printf(
          "loadgen: verify round %u/%u %s (root_matches=%d producer_ok=%d consumer_ok=%d): %s\n",
          round + 1, NodeClient::kRounds, result.ok ? "CLEAN" : "DIRTY", result.root_matches,
          result.producer_ok, result.consumer_ok, result.detail.c_str());
    }
    std::printf("loadgen: verification %s: %u rounds (window %u) in %.3fs\n",
                verification_clean ? "CLEAN" : "DIRTY", NodeClient::kRounds, NodeClient::kWindow,
                verify_seconds);
  }

  // ---- Phase 5: shutdown + report.
  for (const auto& peer : {checker, proofgen, recorder_peer}) {
    if (peer) client.send(peer->id, proto::NodeFrameType::kShutdown, {});
  }
  tcp.run_for(200'000);  // let the frames drain before closing

  namespace json = obs::json;
  const json::Object config{
      {"updates", updates},
      {"warmup", kWarmup},
      {"latency_rounds", kLatencyRounds},
      {"latency_burst", kLatencyBurst},
      {"prefixes", prefixes},
      {"routes_per_update", kRoutesPerUpdate},
      {"ingest_repeats", kIngestRepeats},
      {"ingest_rates", json::Array(ingest_rates.begin(), ingest_rates.end())},
      {"num_classes", std::uint64_t{num_classes}},
      {"verify_rounds", std::uint64_t{NodeClient::kRounds}},
      {"verify_window", std::uint64_t{NodeClient::kWindow}},
      {"processes", 1 + (checker ? 1 : 0) + (proofgen ? 1 : 0)},
  };
  const auto row = benchutil::result_row;
  const json::Array results{
      row("recorder ingest (median of repeats)", ingest_rate, "updates/s",
          "target >= 100000 (loopback smoke)"),
      row("recorder ingest, slowest repeat", sorted_rates.front(), "updates/s",
          "spread of the median"),
      row("recorder ingest, fastest repeat", sorted_rates.back(), "updates/s",
          "spread of the median"),
      row("commit visibility p50", p50_ms, "ms", "bounded by commit interval"),
      row("commit visibility p99", p99_ms, "ms", "bounded by commit interval"),
      row("verification clean", verification_clean ? 1.0 : 0.0, "bool",
          "section 6.1: honest run verifies clean"),
      row("replayed root matches", root_matches ? 1.0 : 0.0, "bool",
          "section 6.5: replay reproduces commitment"),
      row("verification session wall", verify_seconds, "s",
          "pipelined rounds; proofgen reconstructs once"),
  };
  const json::Value document(json::Object{
      {"schema", "spider-bench-v1"},
      {"scenario", "transport"},
      {"experiment", "multi-process loopback deployment: ingest + commit latency"},
      {"paper_ref", "SIGCOMM 2012, section 7.1 (trace replay methodology)"},
      {"config", config},
      {"results", results},
      {"metrics", obs::MetricsRegistry::instance().snapshot().to_json()},
  });
  benchutil::validate_bench_json(document);
  std::ofstream(out_path) << document.dump(2) << "\n";
  std::printf("loadgen: wrote %s\n", out_path.c_str());

  if (proofgen && checker && !verification_clean) return fail("verification not clean");
  return 0;
}
