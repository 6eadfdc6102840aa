// spider_loadgen — loopback load generator for a multi-process SPIDeR
// deployment (the §7.1 trace replay, pointed at live spider_node
// processes instead of the netsim).
//
// The generator plays the RouteViews trace peer: it dials the recorder
// and pushes synthesized BGP updates as kInject frames, then measures
//
//   * sustained recorder ingest (updates/sec mirrored, counted on the
//     recorder side between two stats barriers — a kStatsRequest reply
//     proves every earlier frame on the connection was processed, since
//     TCP frames are handled in order);
//   * commit-visibility latency: the wall time from the end of an update
//     burst until the recorder's next kCommitNotify arrives (p50/p99 over
//     a configurable number of rounds); and
//   * a full verification round: kProofRequest to the elector's proof
//     generator, relay of the resulting bundle to the checker as
//     kCheckRequest, and a clean kCheckResult.
//
// Results are written as a schema-validated spider-bench-v1 document
// (BENCH_transport.json) so CI archives it like every other bench output.
//
//   spider_loadgen --recorder 5:127.0.0.1:47701 --checker 2:127.0.0.1:47702
//       --proofgen 905:127.0.0.1:47703 --updates 200000 --out BENCH_transport.json
#include <algorithm>
#include <chrono>
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
#include "spider/node_wire.hpp"
#include "util/serde.hpp"

using namespace spider;
using proto::NodeEndpoint;
using nodetool::PeerSpec;
using transport::PeerId;

namespace {

constexpr PeerId kLoadgenId = 1000;  // doubles as the trace-peer AS number

struct Options {
  std::optional<PeerSpec> recorder, checker, proofgen;
  std::uint64_t updates = 100'000;
  std::uint64_t warmup = 2'000;
  std::uint64_t latency_rounds = 8;
  std::uint64_t latency_burst = 500;
  std::uint64_t prefixes = 4096;
  std::uint64_t routes_per_update = 4;
  std::uint64_t ingest_repeats = 3;
  std::uint32_t num_classes = 50;
  /// Pipelined verification: the prefix space splits into `verify_rounds`
  /// chunks (proof_round_of) requested with up to `verify_window` rounds
  /// in flight.  1 round = the legacy single full-set round trip.
  std::uint32_t verify_rounds = 4;
  std::uint32_t verify_window = 2;
  std::string out = "BENCH_transport.json";
  bool shutdown_nodes = true;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --recorder ID:HOST:PORT [--checker ID:HOST:PORT]\n"
               "          [--proofgen ID:HOST:PORT] [--updates N] [--warmup N]\n"
               "          [--latency-rounds N] [--latency-burst N] [--prefixes N]\n"
               "          [--routes-per-update N] [--ingest-repeats N] [--num-classes N]\n"
               "          [--verify-rounds N] [--verify-window N]\n"
               "          [--out FILE] [--no-shutdown]\n",
               argv0);
  return 2;
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Synthesizes the i-th trace route: /24s under 10.0.0.0/8 cycling over a
/// bounded prefix space (the commitment MTT covers the whole table, so the
/// table size — not the update count — sets the per-commit cost).  Each
/// pass over the space re-announces every prefix with a different origin,
/// so repeats are real routing changes, not no-ops.
bgp::Route make_route(std::uint64_t i, std::uint64_t prefix_space) {
  const std::uint64_t slot = i % prefix_space;
  const std::uint32_t bits = (10u << 24) | (static_cast<std::uint32_t>((slot >> 8) & 0xff) << 16) |
                             (static_cast<std::uint32_t>(slot & 0xff) << 8);
  bgp::Route route;
  route.prefix = bgp::Prefix(bits, 24);
  route.as_path = {kLoadgenId, 64496 + static_cast<std::uint32_t>((i / prefix_space) & 0x3)};
  return route;
}

/// One UPDATE message announcing routes i..i+count-1 (real BGP packs
/// several NLRI per UPDATE; "updates/s" counts routes, as the recorder's
/// updates_mirrored does).
bgp::Update make_update(std::uint64_t i, std::uint64_t count, std::uint64_t prefix_space) {
  bgp::Update update;
  update.announced.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    update.announced.push_back(make_route(i + k, prefix_space));
  }
  return update;
}

/// Everything the loadgen tracks while pumping the event loop.
struct Client {
  transport::TcpTransport tcp{kLoadgenId};
  NodeEndpoint endpoint{tcp};

  std::optional<proto::StatsFrame> last_stats;
  std::vector<proto::SpiderCommit> commits;  // kCommitNotify arrivals, in order
  std::vector<double> commit_wall_times;     // wall clock at each arrival
  // Pipelined verification keeps several rounds outstanding: bundles and
  // check results accumulate in arrival order (TCP keeps each peer's
  // stream ordered, and both nodes answer requests in arrival order, so
  // index i is round i's reply).
  std::vector<proto::ProofBundleFrame> bundles;
  std::vector<util::Bytes> bundle_bodies;
  std::vector<proto::CheckResultFrame> check_results;

  Client() {
    endpoint.set_control_handler([this](PeerId, const proto::NodeFrame& frame) {
      switch (frame.type) {
        case proto::NodeFrameType::kStats:
          last_stats = proto::StatsFrame::decode(frame.body);
          break;
        case proto::NodeFrameType::kCommitNotify:
          commits.push_back(proto::SpiderCommit::decode(frame.body));
          commit_wall_times.push_back(wall_now());
          break;
        case proto::NodeFrameType::kProofBundle:
          bundles.push_back(proto::ProofBundleFrame::decode(frame.body));
          bundle_bodies.emplace_back(frame.body.begin(), frame.body.end());
          break;
        case proto::NodeFrameType::kCheckResult:
          check_results.push_back(proto::CheckResultFrame::decode(frame.body));
          break;
        default:
          std::fprintf(stderr, "loadgen: unexpected frame type %u\n",
                       static_cast<unsigned>(frame.type));
      }
    });
  }

  /// Sends one frame, absorbing transient backpressure by pumping the loop.
  bool send_control(PeerId to, proto::NodeFrameType type, util::ByteSpan body) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      if (endpoint.send_control(to, type, body)) return true;
      if (!tcp.peer_connected(to)) return false;
      tcp.poll_once(1'000);
    }
    return false;
  }

  /// Stats barrier: round-trips a token through `peer` and returns its
  /// counters once every frame sent before the barrier has been handled.
  std::optional<proto::StatsFrame> stats_barrier(PeerId peer, std::uint64_t token,
                                                 transport::Time timeout = 30'000'000) {
    last_stats.reset();
    util::ByteWriter w;
    w.u64(token);
    if (!send_control(peer, proto::NodeFrameType::kStatsRequest, w.take())) return std::nullopt;
    if (!nodetool::pump_until(
            tcp, [&] { return last_stats && last_stats->token == token; }, timeout)) {
      return std::nullopt;
    }
    return last_stats;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (arg == "--recorder") {
      opt.recorder = nodetool::parse_peer_spec(next());
    } else if (arg == "--checker") {
      opt.checker = nodetool::parse_peer_spec(next());
    } else if (arg == "--proofgen") {
      opt.proofgen = nodetool::parse_peer_spec(next());
    } else if (arg == "--updates") {
      opt.updates = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--warmup") {
      opt.warmup = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--latency-rounds") {
      opt.latency_rounds = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--latency-burst") {
      opt.latency_burst = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--prefixes") {
      opt.prefixes = std::max<std::uint64_t>(1, std::strtoull(next(), nullptr, 10));
    } else if (arg == "--routes-per-update") {
      opt.routes_per_update = std::max<std::uint64_t>(1, std::strtoull(next(), nullptr, 10));
    } else if (arg == "--ingest-repeats") {
      opt.ingest_repeats = std::max<std::uint64_t>(1, std::strtoull(next(), nullptr, 10));
    } else if (arg == "--num-classes") {
      opt.num_classes = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--verify-rounds") {
      opt.verify_rounds =
          std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--verify-window") {
      opt.verify_window =
          std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--no-shutdown") {
      opt.shutdown_nodes = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (!opt.recorder) return usage(argv[0]);

  signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IOLBF, 0);  // keep progress visible under redirection
  Client client;
  client.tcp.listen_on(0);  // loadgen never accepts, but the loop needs a socket set up
  auto fail = [](const char* what) {
    std::fprintf(stderr, "loadgen: FAILED: %s\n", what);
    return 1;
  };

  for (const auto& peer : {opt.recorder, opt.checker, opt.proofgen}) {
    if (peer && !nodetool::dial_with_retry(client.tcp, *peer)) return fail("cannot dial peer");
  }
  const PeerId recorder = opt.recorder->id;
  client.send_control(recorder, proto::NodeFrameType::kSubscribeCommits, {});

  auto encode_burst = [&](std::uint64_t first, std::uint64_t count) {
    std::vector<util::Bytes> frames;
    frames.reserve((count + opt.routes_per_update - 1) / opt.routes_per_update);
    for (std::uint64_t done = 0; done < count;) {
      const std::uint64_t n = std::min(opt.routes_per_update, count - done);
      proto::InjectFrame frame;
      frame.seq = first + done;
      frame.sent_at = client.tcp.now();
      frame.update = make_update(first + done, n, opt.prefixes);
      frames.push_back(frame.encode());
      done += n;
    }
    return frames;
  };
  auto send_frames = [&](const std::vector<util::Bytes>& frames) -> bool {
    for (const util::Bytes& frame : frames) {
      if (!client.send_control(recorder, proto::NodeFrameType::kInject, frame)) return false;
    }
    return true;
  };
  auto inject_burst = [&](std::uint64_t first, std::uint64_t count) -> bool {
    return send_frames(encode_burst(first, count));
  };

  // ---- Phase 1: warmup (connection setup, allocator, route table prefill).
  std::uint64_t seq = 0;
  if (!inject_burst(seq, opt.warmup)) return fail("warmup injection");
  seq += opt.warmup;
  auto stats0 = client.stats_barrier(recorder, 1);
  if (!stats0) return fail("warmup stats barrier");

  // ---- Phase 2: measured ingest bursts.  Frames are encoded up front so
  // the measured window holds the recorder's pipeline, not the generator's
  // serializer (the §7.1 replay reads a pre-parsed trace the same way).
  // The burst repeats and the median run is reported with the min-max
  // spread: each repeat is a full sustained window, and the spread shows
  // how much of a difference between two runs is scheduler noise.
  std::vector<double> ingest_rates;
  for (std::uint64_t rep = 0; rep < opt.ingest_repeats; ++rep) {
    const std::vector<util::Bytes> burst = encode_burst(seq, opt.updates);
    auto before = client.stats_barrier(recorder, 10 + rep * 2);
    if (!before) return fail("pre-burst stats barrier");
    const double burst_start = wall_now();
    if (!send_frames(burst)) return fail("measured injection");
    seq += opt.updates;
    auto after = client.stats_barrier(recorder, 11 + rep * 2);
    const double burst_end = wall_now();
    if (!after) return fail("ingest stats barrier");
    const double mirrored = static_cast<double>(after->updates_mirrored - before->updates_mirrored);
    ingest_rates.push_back(mirrored / (burst_end - burst_start));
    std::printf("loadgen: burst %" PRIu64 ": %.0f updates mirrored in %.3fs -> %.0f updates/s\n",
                rep + 1, mirrored, burst_end - burst_start, ingest_rates.back());
  }
  std::vector<double> sorted_rates = ingest_rates;
  std::sort(sorted_rates.begin(), sorted_rates.end());
  const std::size_t mid = sorted_rates.size() / 2;
  const double ingest_rate = sorted_rates.size() % 2 == 1
                                 ? sorted_rates[mid]
                                 : (sorted_rates[mid - 1] + sorted_rates[mid]) / 2;
  const double ingest_min = sorted_rates.front();
  const double ingest_max = sorted_rates.back();
  std::printf("loadgen: median sustained ingest %.0f updates/s (min %.0f, max %.0f) over %zu "
              "bursts\n",
              ingest_rate, ingest_min, ingest_max, ingest_rates.size());

  // ---- Phase 3: commit-visibility latency.  Each round: a mini-burst,
  // a stats barrier marking "all ingested", then the wait until the next
  // commitment notification lands.
  std::vector<double> commit_latencies;
  for (std::uint64_t round = 0; round < opt.latency_rounds; ++round) {
    if (!inject_burst(seq, opt.latency_burst)) return fail("latency-round injection");
    seq += opt.latency_burst;
    if (!client.stats_barrier(recorder, 100 + round)) return fail("latency stats barrier");
    const double ingested_at = wall_now();
    const std::size_t commits_before = client.commits.size();
    if (!nodetool::pump_until(
            client.tcp, [&] { return client.commits.size() > commits_before; }, 30'000'000)) {
      return fail("no commitment notification");
    }
    commit_latencies.push_back(client.commit_wall_times.back() - ingested_at);
  }
  std::sort(commit_latencies.begin(), commit_latencies.end());
  auto percentile = [&](double p) {
    if (commit_latencies.empty()) return 0.0;
    const std::size_t idx = std::min(
        commit_latencies.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(commit_latencies.size() - 1) + 0.5));
    return commit_latencies[idx];
  };
  const double p50_ms = percentile(0.50) * 1e3;
  const double p99_ms = percentile(0.99) * 1e3;
  std::printf("loadgen: commit visibility p50=%.1fms p99=%.1fms over %zu rounds\n", p50_ms,
              p99_ms, commit_latencies.size());

  // ---- Phase 4: a full verification session through proofgen + checker,
  // pipelined: the prefix space splits into `verify_rounds` chunks (both
  // nodes recompute membership via proof_round_of) and up to
  // `verify_window` rounds stay outstanding — round k+1's proofs generate
  // while round k's bundle is being checked.  The proofgen reconstructs
  // once and serves every round from its cache; the checker's proof-path
  // cache dedupes interior folds across rounds.
  bool verification_clean = false;
  bool root_matches = false;
  double verify_seconds = 0;
  if (opt.proofgen && opt.checker && !client.commits.empty()) {
    const std::uint32_t rounds = opt.verify_rounds;
    const double verify_start = wall_now();
    std::uint32_t next_request = 0;
    std::size_t bundles_relayed = 0;
    auto send_request = [&](std::uint32_t round) -> bool {
      proto::ProofRequestFrame request;
      request.elector = recorder;
      request.commit_time = client.commits.back().timestamp;
      request.consumer = opt.checker->id;
      request.round = round;
      request.round_count = rounds > 1 ? rounds : 0;
      return client.send_control(opt.proofgen->id, proto::NodeFrameType::kProofRequest,
                                 request.encode());
    };
    while (next_request < std::min(rounds, opt.verify_window)) {
      if (!send_request(next_request++)) return fail("proof request");
    }
    while (client.check_results.size() < rounds) {
      while (bundles_relayed < client.bundles.size()) {
        if (!client.send_control(opt.checker->id, proto::NodeFrameType::kCheckRequest,
                                 client.bundle_bodies[bundles_relayed])) {
          return fail("check request");
        }
        ++bundles_relayed;
        if (next_request < rounds && !send_request(next_request++)) {
          return fail("proof request");
        }
      }
      const std::size_t relayed = bundles_relayed;
      const std::size_t results = client.check_results.size();
      if (!nodetool::pump_until(
              client.tcp,
              [&] {
                return client.bundles.size() > relayed || client.check_results.size() > results;
              },
              120'000'000)) {
        return fail(relayed < rounds ? "no proof bundle" : "no check result");
      }
    }
    verify_seconds = wall_now() - verify_start;
    verification_clean = true;
    root_matches = true;
    for (std::uint32_t round = 0; round < rounds; ++round) {
      const proto::CheckResultFrame& result = client.check_results[round];
      if (result.ok == 0) verification_clean = false;
      if (client.bundles[round].root_matches == 0) root_matches = false;
      std::printf(
          "loadgen: verify round %u/%u %s (root_matches=%d producer_ok=%d consumer_ok=%d): %s\n",
          round + 1, rounds, result.ok ? "CLEAN" : "DIRTY", result.root_matches,
          result.producer_ok, result.consumer_ok, result.detail.c_str());
    }
    std::printf("loadgen: verification %s: %u rounds (window %u) in %.3fs\n",
                verification_clean ? "CLEAN" : "DIRTY", rounds, opt.verify_window,
                verify_seconds);
  }

  // ---- Phase 5: shutdown + report.
  if (opt.shutdown_nodes) {
    for (const auto& peer : {opt.checker, opt.proofgen, opt.recorder}) {
      if (peer) client.send_control(peer->id, proto::NodeFrameType::kShutdown, {});
    }
    client.tcp.run_for(200'000);  // let the frames drain before closing
  }

  namespace json = obs::json;
  json::Object doc;
  doc["schema"] = std::string("spider-bench-v1");
  doc["scenario"] = std::string("transport");
  doc["experiment"] = std::string("multi-process loopback deployment: ingest + commit latency");
  doc["paper_ref"] = std::string("SIGCOMM 2012, section 7.1 (trace replay methodology)");
  json::Object config;
  config["updates"] = static_cast<double>(opt.updates);
  config["warmup"] = static_cast<double>(opt.warmup);
  config["latency_rounds"] = static_cast<double>(opt.latency_rounds);
  config["latency_burst"] = static_cast<double>(opt.latency_burst);
  config["prefixes"] = static_cast<double>(opt.prefixes);
  config["routes_per_update"] = static_cast<double>(opt.routes_per_update);
  config["ingest_repeats"] = static_cast<double>(opt.ingest_repeats);
  {
    json::Array runs;
    for (double rate : ingest_rates) runs.push_back(rate);
    config["ingest_rates"] = std::move(runs);
  }
  config["num_classes"] = static_cast<double>(opt.num_classes);
  config["verify_rounds"] = static_cast<double>(opt.verify_rounds);
  config["verify_window"] = static_cast<double>(opt.verify_window);
  config["processes"] = static_cast<double>(1 + (opt.checker ? 1 : 0) + (opt.proofgen ? 1 : 0));
  doc["config"] = std::move(config);
  json::Array results;
  results.push_back(benchutil::result_row("recorder ingest (median of repeats)", ingest_rate,
                                          "updates/s", "target >= 100000 (loopback smoke)"));
  results.push_back(benchutil::result_row("recorder ingest, slowest repeat", ingest_min,
                                          "updates/s", "spread of the median"));
  results.push_back(benchutil::result_row("recorder ingest, fastest repeat", ingest_max,
                                          "updates/s", "spread of the median"));
  results.push_back(benchutil::result_row("commit visibility p50", p50_ms, "ms",
                                          "bounded by commit interval"));
  results.push_back(benchutil::result_row("commit visibility p99", p99_ms, "ms",
                                          "bounded by commit interval"));
  results.push_back(benchutil::result_row("verification clean", verification_clean ? 1.0 : 0.0,
                                          "bool", "section 6.1: honest run verifies clean"));
  results.push_back(benchutil::result_row("replayed root matches", root_matches ? 1.0 : 0.0,
                                          "bool", "section 6.5: replay reproduces commitment"));
  results.push_back(benchutil::result_row("verification session wall", verify_seconds, "s",
                                          "pipelined rounds; proofgen reconstructs once"));
  doc["results"] = std::move(results);
  doc["metrics"] = obs::MetricsRegistry::instance().snapshot().to_json();

  json::Value document(std::move(doc));
  benchutil::validate_bench_json(document);
  std::ofstream out(opt.out);
  out << document.dump(2) << "\n";
  out.close();
  std::printf("loadgen: wrote %s\n", opt.out.c_str());

  if (opt.proofgen && opt.checker && !verification_clean) return fail("verification not clean");
  return 0;
}
