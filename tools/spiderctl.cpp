// spiderctl — command-line driver for the SPIDeR reproduction.
//
//   spiderctl demo [prefixes]                run the Fig. 5 deployment and
//                                            verify AS 5's latest commitment
//   spiderctl verify <as> [prefixes]         commit + verify any AS through
//             [--jobs N]                     the session engine (src/verify)
//   spiderctl faults [prefixes]              run the §7.4 fault matrix
//   spiderctl trace [prefixes] [updates]     print synthetic-trace statistics
//   spiderctl mtt <prefixes> [classes]       build + label an MTT, print stats
//   spiderctl chaos <misbehavior|none>       run one chaos matrix cell and
//             [--seed N] [--profile NAME]    pretty-print the detection
//
// All runs are deterministic for a given size (fixed seeds).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "chaos/matrix.hpp"
#include "node_common.hpp"
#include "spider/verification.hpp"
#include "verify/session.hpp"

using namespace spider;

namespace {

constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;

trace::RouteViewsTrace make_trace(std::size_t prefixes, std::size_t updates) {
  trace::TraceConfig config;
  config.num_prefixes = prefixes;
  config.num_updates = updates;
  config.duration = 60 * kSecond;
  config.seed = 20120813;
  return trace::generate(config);
}

void print_report(const proto::VerificationReport& report) {
  std::printf("verification of AS%u @ T=%.1fs: %s (%.2f s, %s of proofs shipped, %s deduped)\n",
              report.elector, static_cast<double>(report.commit_time) / kSecond,
              report.clean() ? "CLEAN" : "FINDINGS", report.elapsed_seconds,
              util::human_bytes(report.proof_bytes).c_str(),
              util::human_bytes(report.proof_bytes_deduped).c_str());
  std::printf("  replayed root: %s\n", report.root_matches ? "matches commitment" : "MISMATCH");
  for (const auto& verdict : report.verdicts) {
    std::printf("  AS%-2u %s\n", verdict.neighbor, verdict.clean() ? "ok" : "VIOLATION");
  }
  for (const auto& finding : report.findings()) std::printf("  ! %s\n", finding.c_str());
}

void print_session_stats(const verify::SessionStats& stats) {
  std::printf("  session: %llu rounds, %llu proofs, %llu digest ops (%llu saved), "
              "cache %llu/%llu hit, %llu signatures (%llu batches)\n",
              static_cast<unsigned long long>(stats.challenge_round_trips),
              static_cast<unsigned long long>(stats.proofs_checked),
              static_cast<unsigned long long>(stats.digest_ops),
              static_cast<unsigned long long>(stats.digest_ops_saved),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_hits + stats.cache_misses),
              static_cast<unsigned long long>(stats.signatures_verified),
              static_cast<unsigned long long>(stats.signature_batches));
  std::printf("  timing: reconstruct %.3f s, challenge/response %.3f s\n",
              stats.reconstruct_seconds, stats.session_seconds);
}

/// `jobs` = session worker threads, 0 = hardware concurrency.
int cmd_verify(bgp::AsNumber elector, std::size_t prefixes, bool inject_fault,
               unsigned jobs = 0) {
  auto tr = make_trace(prefixes, prefixes / 4);
  proto::DeploymentConfig config;
  config.num_classes = 50;
  config.commit_ases = {};
  proto::Fig5Deployment deploy(config);
  if (inject_fault) {
    deploy.speaker(5).inject_import_filter_fault(2);
    deploy.recorder(5).faults().ignore_inputs = {2};
    std::printf("(injected: AS5 silently filters AS2's routes)\n");
  }
  std::printf("running setup + replay over the Fig. 5 topology (%zu prefixes)...\n", prefixes);
  auto start = deploy.run_setup(tr, 60 * kSecond);
  deploy.run_replay(tr, start, 5 * kSecond);

  auto commit_time = deploy.recorder(elector).make_commitment().timestamp;
  deploy.sim().run();
  auto result = verify::run_session(deploy, elector, commit_time, verify::pipelined_config(jobs),
                                    /*extended=*/true);
  print_report(result.report);
  print_session_stats(result.stats);
  return result.report.clean() == !inject_fault ? 0 : 1;
}

int cmd_faults(std::size_t prefixes) {
  int bad = 0;
  std::printf("== control (no fault): expect clean ==\n");
  bad += cmd_verify(5, prefixes, false);
  std::printf("\n== overaggressive filter: expect AS2 to detect ==\n");
  bad += cmd_verify(5, prefixes, true);
  return bad;
}

int cmd_trace(std::size_t prefixes, std::size_t updates) {
  auto tr = make_trace(prefixes, updates);
  std::map<std::uint8_t, std::size_t> lengths;
  for (const auto& route : tr.rib_snapshot) lengths[route.prefix.length()]++;
  std::printf("snapshot: %zu prefixes; replay: %zu events (%zu announce / %zu withdraw)\n",
              tr.rib_snapshot.size(), tr.events.size(), tr.announce_count(),
              tr.withdraw_count());
  std::printf("prefix-length histogram:\n");
  for (const auto& [len, count] : lengths) {
    std::printf("  /%-2u %6zu  %s\n", len, count,
                std::string(count * 60 / tr.rib_snapshot.size() + 1, '#').c_str());
  }
  return 0;
}

int cmd_mtt(std::size_t prefixes, std::uint32_t classes) {
  auto tr = make_trace(prefixes, 1);
  std::vector<std::pair<bgp::Prefix, std::vector<bool>>> entries;
  for (const auto& route : tr.rib_snapshot) {
    entries.emplace_back(route.prefix, std::vector<bool>(classes, false));
  }
  util::WallTimer build_timer;
  auto tree = core::Mtt::build(std::move(entries), classes);
  double build_s = build_timer.seconds();
  crypto::CommitmentPrf prf(crypto::seed_from_string("spiderctl"));
  util::WallTimer label_timer;
  tree.compute_labels(prf);
  auto counts = tree.counts();
  std::printf("MTT over %zu prefixes x %u classes:\n", prefixes, classes);
  std::printf("  nodes: %zu inner (%zu with a dummy child), %zu prefix, %zu dummy, %zu bit "
              "(%zu total)\n",
              counts.inner, counts.inner_with_dummy, counts.prefix, counts.dummy, counts.bit,
              counts.total());
  std::printf("  build %.3f s, label %.3f s (%llu hashes), memory %s\n", build_s,
              label_timer.seconds(), static_cast<unsigned long long>(tree.last_label_hashes()),
              util::human_bytes(tree.memory_bytes()).c_str());
  std::printf("  root: %s\n", util::to_hex(tree.root_label()).c_str());
  return 0;
}

int cmd_chaos(int argc, char** argv) {
  const char* name = nullptr;
  std::uint64_t seed = 11;
  const char* profile_name = "clean";
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_name = argv[++i];
    } else if (!name) {
      name = argv[i];
    } else {
      std::fprintf(stderr, "chaos: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (!name) {
    std::printf("usage: spiderctl chaos <misbehavior|none> [--seed N] [--profile NAME]\n");
    std::printf("misbehaviors:\n  none (benign-only cell)\n");
    for (const auto& entry : chaos::catalog()) std::printf("  %s\n", entry.name);
    std::printf("profiles:\n");
    for (const auto& profile : chaos::benign_profiles()) std::printf("  %s\n", profile.name);
    return 2;
  }
  const chaos::BenignProfile* profile = chaos::find_profile(profile_name);
  if (!profile) {
    std::fprintf(stderr, "chaos: unknown profile %s (try: spiderctl chaos)\n", profile_name);
    return 2;
  }
  const chaos::CatalogEntry* entry = nullptr;
  if (std::strcmp(name, "none") != 0) {
    entry = chaos::find_entry(name);
    if (!entry) {
      std::fprintf(stderr, "chaos: unknown misbehavior %s (try: spiderctl chaos)\n", name);
      return 2;
    }
    std::printf("misbehavior %s (%s): %s\n", entry->name, entry->paper_ref, entry->summary);
    std::printf("expected fault class: %s\n", core::fault_kind_name(entry->expected).c_str());
  } else {
    std::printf("benign-only cell (honest elector)\n");
  }
  std::printf("profile %s, seed %llu — running one matrix cell...\n", profile->name,
              static_cast<unsigned long long>(seed));

  chaos::CellResult cell = chaos::run_cell(entry, *profile, seed, chaos::MatrixOptions{});
  std::printf("network faults: %llu dropped, %llu duplicated, %llu delayed, %llu corrupted\n",
              static_cast<unsigned long long>(cell.faults.dropped),
              static_cast<unsigned long long>(cell.faults.duplicated),
              static_cast<unsigned long long>(cell.faults.delayed),
              static_cast<unsigned long long>(cell.faults.corrupted));
  if (cell.detections.empty()) {
    std::printf("no detection\n");
  } else {
    for (const auto& detection : cell.detections) {
      std::printf("detected %s accusing AS%u: %s\n", core::fault_kind_name(detection.kind).c_str(),
                  detection.accused, detection.detail.c_str());
    }
  }
  if (!cell.note.empty()) std::printf("note: %s\n", cell.note.c_str());
  std::printf("cell verdict: %s\n", cell.pass ? "PASS" : "FAIL");
  return cell.pass ? 0 : 1;
}

/// Parses the optional positional argument argv[index] as a decimal integer
/// in [min, max]; `fallback` when it is absent, nullopt when it is malformed
/// or out of range.
template <typename T>
std::optional<T> positional(int argc, char** argv, int index, T fallback, T min = 1,
                            T max = std::numeric_limits<T>::max()) {
  if (argc <= index) return fallback;
  return nodetool::parse_number<T>(argv[index], min, max);
}

/// Parses a session worker count: a decimal integer in [0, cores].
bool parse_jobs(const char* text, unsigned& jobs) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto value = nodetool::parse_number<unsigned>(text, 0, cores);
  if (value) jobs = *value;
  return value.has_value();
}

void usage() {
  std::printf(
      "spiderctl — SPIDeR (SIGCOMM'12) reproduction driver\n"
      "  spiderctl demo   [prefixes]             full deployment + verification\n"
      "  spiderctl verify <as> [prefixes]        commit + verify one AS via the\n"
      "            [--jobs N]                    session engine (N in 0..cores,\n"
      "                                          default 0 = all cores)\n"
      "  spiderctl faults [prefixes]             run the fault matrix\n"
      "  spiderctl trace  [prefixes] [updates]   synthetic trace statistics\n"
      "  spiderctl mtt    <prefixes> [classes]   build + label an MTT\n"
      "  spiderctl chaos  <misbehavior|none> [--seed N] [--profile NAME]\n"
      "                                          run one detection-matrix cell\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const char* cmd = argv[1];
  // Counts are decimal integers > 0; a malformed one, or one too many, is
  // a usage error (exit 2) before any work starts.
  auto bad_usage = [] {
    usage();
    return 2;
  };
  if (std::strcmp(cmd, "demo") == 0) {
    const auto prefixes = positional<std::size_t>(argc, argv, 2, 2000);
    if (!prefixes || argc > 3) return bad_usage();
    return cmd_verify(5, *prefixes, false);
  }
  if (std::strcmp(cmd, "verify") == 0) {
    // The AS must be one of Fig. 5's; the prefix count a decimal > 0.
    const auto& ases = proto::Fig5Deployment::ases();
    const auto elector = nodetool::parse_number<bgp::AsNumber>(argc < 3 ? "" : argv[2]);
    if (!elector || std::find(ases.begin(), ases.end(), *elector) == ases.end()) {
      usage();
      return 2;
    }
    unsigned jobs = 0;
    std::optional<std::size_t> prefixes;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--jobs") == 0) {
        if (i + 1 == argc || !parse_jobs(argv[++i], jobs)) {
          usage();
          return 2;
        }
      } else if (!prefixes) {
        prefixes = nodetool::parse_number<std::size_t>(argv[i], 1);
        if (!prefixes) {
          usage();
          return 2;
        }
      } else {
        usage();
        return 2;
      }
    }
    return cmd_verify(*elector, prefixes.value_or(2000), false, jobs);
  }
  if (std::strcmp(cmd, "faults") == 0) {
    const auto prefixes = positional<std::size_t>(argc, argv, 2, 1000);
    if (!prefixes || argc > 3) return bad_usage();
    return cmd_faults(*prefixes);
  }
  if (std::strcmp(cmd, "trace") == 0) {
    const auto prefixes = positional<std::size_t>(argc, argv, 2, 20000);
    const auto updates = positional<std::size_t>(argc, argv, 3, 2000);
    if (!prefixes || !updates || argc > 4) return bad_usage();
    return cmd_trace(*prefixes, *updates);
  }
  if (std::strcmp(cmd, "chaos") == 0) {
    return cmd_chaos(argc, argv);
  }
  if (std::strcmp(cmd, "mtt") == 0) {
    if (argc < 3) return bad_usage();
    const auto prefixes = positional<std::size_t>(argc, argv, 2, 0);
    const auto classes =
        positional<std::uint32_t>(argc, argv, 3, 50, 1, core::Mtt::kMaxClasses);
    if (!prefixes || !classes || argc > 4) return bad_usage();
    return cmd_mtt(*prefixes, *classes);
  }
  usage();
  return 2;
}
