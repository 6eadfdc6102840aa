#include "chaos/matrix.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "spider/evidence.hpp"
#include "spider/verification.hpp"
#include "trace/routeviews.hpp"
#include "verify/session.hpp"

namespace spider::chaos {

namespace {

constexpr netsim::Time kSecond = netsim::kMicrosPerSecond;

using netsim::Time;

}  // namespace

const std::vector<BenignProfile>& benign_profiles() {
  // Rates are parts per million; every bound stays inside the protocol's
  // tolerance envelope so an honest elector survives each profile with
  // zero detections:
  //   * jitter <= 20 ms, below the 50 ms batch window, so messages cannot
  //     reorder across batch boundaries;
  //   * skew alternates +/-2 s, pairwise 4 s, below the 5 s loose-sync
  //     bound the announce-timestamp check enforces;
  //   * partitions last 4 s mid-replay, well inside the retransmit budget
  //     (ack deadline x max retransmits), and heal long before commitment.
  static const std::vector<BenignProfile> kProfiles = {
      {"clean", {0, 0, 0, 0}, false, false},
      {"light", {5'000, 5'000, 0, 10'000}, false, false},
      {"lossy", {20'000, 0, 0, 0}, false, false},
      {"dup-jitter", {0, 20'000, 0, 20'000}, false, false},
      {"corrupting", {0, 0, 10'000, 0}, false, false},
      {"partitioned", {0, 0, 0, 0}, true, false},
      {"skewed", {0, 0, 0, 0}, false, true},
      {"stormy", {10'000, 10'000, 5'000, 20'000}, true, true},
  };
  return kProfiles;
}

const BenignProfile* find_profile(std::string_view name) {
  for (const BenignProfile& profile : benign_profiles()) {
    if (name == profile.name) return &profile;
  }
  return nullptr;
}

namespace {

/// Stages the "before traffic" half of a misbehavior: faults that must be
/// live while the trace flows (generator faults are staged before
/// verifying, by CellRunner::stage_generator_faults).
void stage_traffic_faults(const CatalogEntry& entry, proto::Fig5Deployment& deploy) {
  switch (entry.id) {
    case Misbehavior::kOmittedInput:
      // §7.4 fault 1: the overaggressive filter, lying consistently.
      deploy.speaker(5).inject_import_filter_fault(2);
      deploy.recorder(5).faults().ignore_inputs = {2};
      break;
    case Misbehavior::kBrokenPromise: {
      // §7.4 fault 2: promise "never export long paths" to AS 6, then
      // keep exporting them anyway.
      core::Promise never_long(10);
      never_long.add_preference(0, 1);
      for (core::ClassId cls = 2; cls < 9; ++cls) never_long.add_preference(9, cls);
      never_long.add_preference(1, 9);
      deploy.recorder(5).set_promise(6, never_long);
      break;
    }
    case Misbehavior::kEquivocation:
      deploy.recorder(5).faults().equivocate_to = {2};
      break;
    case Misbehavior::kWithheldCommitment:
      deploy.recorder(5).faults().withhold_commit_from = {2};
      break;
    default:
      break;
  }
}

struct CellRunner {
  proto::Fig5Deployment& deploy;
  CellResult& cell;

  Time commit_and_run() {
    const Time t = deploy.recorder(5).make_commitment().timestamp;
    deploy.sim().run();  // deliver the commitment broadcast + acks
    return t;
  }

  /// Stages the "before verifying" half of a misbehavior on AS 5's proof
  /// generator, the one its verification session asks for proofs.
  /// Returns the commitment time the session verifies.
  Time stage_generator_faults(const CatalogEntry& entry, Time t) {
    proto::ProofGenerator::Faults& faults = deploy.proof_generator(5).faults();
    switch (entry.id) {
      case Misbehavior::kTamperedBitProof:
        // Class 0 is opened for every consumer item under a total-order
        // promise (every offered route classifies to >= 1), so tampering
        // it guarantees a touched proof.
        faults.tamper_classes = {0};
        break;
      case Misbehavior::kWrongClassBit:
        faults.misclassify_producer = true;
        break;
      case Misbehavior::kWithheldProof:
        faults.withhold_producer_proofs = true;
        break;
      case Misbehavior::kStaleProof: {
        // A second commitment round over unchanged state: the fresh seed
        // yields a different root, so round-one proofs no longer open it.
        deploy.sim().run_until(deploy.sim().now() + kSecond);
        const Time t2 = commit_and_run();
        faults.answer_from = t;
        return t2;
      }
      case Misbehavior::kUnpropagatedWithdrawal: {
        // §6.6: a producer withdrew a prefix AS 6 still holds from AS 5;
        // the faulty elector drops it from the redistributed RE-ANNOUNCEs.
        const auto imports = deploy.recorder(6).my_imports_from(5);
        if (imports.empty()) {
          cell.note = "consumer holds no imports";
          break;
        }
        faults.hide_re_announce = {imports.begin()->first};
        break;
      }
      default:
        break;
    }
    return t;
  }

  void collect(const proto::VerificationReport& report) {
    if (report.equivocation) cell.detections.push_back(*report.equivocation);
    if (!report.root_matches) {
      cell.detections.push_back({core::FaultKind::kInconsistentCommit, 5,
                                 "replayed root does not match the logged commitment"});
    }
    for (const auto& verdict : report.verdicts) {
      if (verdict.as_producer) cell.detections.push_back(*verdict.as_producer);
      if (verdict.as_consumer) cell.detections.push_back(*verdict.as_consumer);
      if (verdict.extended) cell.detections.push_back(*verdict.extended);
    }
  }

  /// Commits, then verifies with one full §6.1 session, extended (§6.6)
  /// included — except for the two §6.3 cells, whose misbehavior lives in
  /// quoted evidence rather than in anything a session exchanges.
  void run(const CatalogEntry* entry) {
    const Time t = commit_and_run();
    if (entry != nullptr && (entry->id == Misbehavior::kInvalidSignature ||
                             entry->id == Misbehavior::kFabricatedEvidence)) {
      check_evidence(*entry, t);
      return;
    }
    const Time verified = entry != nullptr ? stage_generator_faults(*entry, t) : t;
    collect(verify::run_session(deploy, 5, verified, {}, /*extended=*/true).report);
  }

  void check_evidence(const CatalogEntry& entry, Time t) {
    switch (entry.id) {
      case Misbehavior::kInvalidSignature: {
        // AS 2 presents import evidence whose quoted batch signature
        // bytes were tampered: extraction fails, the claim is void.
        auto exports = deploy.recorder(2).my_exports_to(5);
        if (exports.empty()) {
          cell.note = "no exports to quote";
          break;
        }
        auto quote = deploy.recorder(2).find_announce_quote(proto::LogDirection::kSent, 5,
                                                            exports.begin()->first, t);
        if (!quote) {
          cell.note = "no announce quote found";
          break;
        }
        auto ack = deploy.recorder(2).find_ack_for(quote->batch.digest());
        if (!ack) {
          cell.note = "no ack found for quoted batch";
          break;
        }
        proto::ImportEvidence evidence{proto::QuotedMessage{*quote}, *ack};
        evidence.announce.quote.batch.signature[0] ^= 1;
        auto verdict = proto::check_evidence_of_import(evidence, t, std::nullopt, deploy.keys());
        if (verdict == proto::EvidenceVerdict::kInvalid &&
            !evidence.announce.as_announce(deploy.keys())) {
          cell.detections.push_back({core::FaultKind::kBadSignature, 2,
                                     "evidence quotes a batch whose signature does not verify"});
        }
        break;
      }
      case Misbehavior::kFabricatedEvidence: {
        // AS 5 claims AS 2 was exporting a route at a time *before* the
        // quoted announce existed (§6.3's timestamp game).
        auto imports = deploy.recorder(5).my_imports_from(2);
        if (imports.empty()) {
          cell.note = "no imports to quote";
          break;
        }
        auto quote = deploy.recorder(5).find_announce_quote(proto::LogDirection::kReceived, 2,
                                                            imports.begin()->first, t);
        if (!quote) {
          cell.note = "no announce quote found";
          break;
        }
        proto::ExportEvidence evidence{proto::QuotedMessage{*quote}};
        auto announce = evidence.announce.as_announce(deploy.keys());
        if (!announce) {
          cell.note = "quoted announce failed to authenticate";
          break;
        }
        auto verdict = proto::check_evidence_of_export(evidence, announce->timestamp, std::nullopt,
                                                       deploy.keys());
        if (verdict == proto::EvidenceVerdict::kInvalid) {
          cell.detections.push_back(
              {core::FaultKind::kMalformedMessage, 5,
               "evidence-of-export claims a time before the quoted announce existed"});
        }
        break;
      }
      default:
        break;
    }
  }
};

}  // namespace

CellResult run_cell(const CatalogEntry* entry, const BenignProfile& profile, std::uint64_t seed,
                    const MatrixOptions& options) {
  CellResult cell;
  cell.misbehavior = entry ? entry->name : "none";
  cell.profile = profile.name;
  cell.seed = seed;
  cell.expected = entry ? entry->expected : core::FaultKind::kNone;

  trace::TraceConfig trace_config;
  trace_config.num_prefixes = options.num_prefixes;
  trace_config.num_updates = options.num_updates;
  trace_config.duration = 30 * kSecond;
  trace_config.seed = seed * 1'000'003 + 77;
  const trace::RouteViewsTrace trace = trace::generate(trace_config);

  proto::DeploymentConfig deploy_config;
  deploy_config.num_classes = 10;
  deploy_config.commit_ases = {};  // commitment rounds are driven per cell
  proto::Fig5Deployment deploy(deploy_config);

  if (entry) stage_traffic_faults(*entry, deploy);

  // Arm the benign-fault plane on the SPIDeR recorder overlay only: the
  // recorder protocol retransmits and deduplicates, while BGP sessions
  // model TCP and stay reliable (DESIGN.md, "fault scoping").
  NetworkFaultPlane plane(profile.network, seed);
  std::set<netsim::NodeId> recorder_nodes;
  for (bgp::AsNumber asn : proto::Fig5Deployment::ases()) {
    recorder_nodes.insert(deploy.recorder_node(asn));
  }
  plane.restrict_to(recorder_nodes);
  plane.arm(deploy.sim());

  const netsim::NodeId r2 = deploy.recorder_node(2);
  const netsim::NodeId r5 = deploy.recorder_node(5);
  if (profile.partition) {
    // The measured AS's busiest recorder link goes down for 4 s
    // mid-replay; the retransmit budget heals it before commitment.
    NetworkFaultPlane::schedule_partition(deploy.sim(), {r2, r5, 38 * kSecond, 42 * kSecond});
  }
  if (profile.skew) {
    // Alternate +/-2 s across recorders before any traffic: pairwise
    // skew reaches 4 s, inside the 5 s loose-sync bound of §6.4.
    bool plus = true;
    for (bgp::AsNumber asn : proto::Fig5Deployment::ases()) {
      const Time skew = plus ? 2 * kSecond : -2 * kSecond;
      NetworkFaultPlane::schedule_skew(deploy.sim(), {deploy.recorder_node(asn), 0, skew});
      plus = !plus;
    }
  }

  const Time start = deploy.run_setup(trace, 30 * kSecond);
  deploy.run_replay(trace, start, 5 * kSecond);

  // Quiesce: stop injecting message-level faults and drain outstanding
  // retransmissions, so the commitment round itself runs over a healthy
  // network and verification examines settled state.
  NetworkFaultPlane::disarm(deploy.sim());
  deploy.sim().run();

  cell.faults = deploy.sim().fault_counts();
  cell.partition_drops = profile.partition ? deploy.sim().dropped_messages(r2, r5) : 0;

  CellRunner runner{deploy, cell};
  try {
    runner.run(entry);
  } catch (const std::exception& e) {
    cell.pass = false;
    cell.note = std::string("cell aborted: ") + e.what();
    return cell;
  }

  if (entry) {
    cell.pass = std::any_of(cell.detections.begin(), cell.detections.end(),
                            [&](const core::Detection& d) { return d.kind == cell.expected; });
    if (!cell.pass && cell.note.empty()) cell.note = "expected fault class not detected";
  } else {
    cell.pass = cell.detections.empty();
    if (!cell.pass) cell.note = "false positive";
  }
  return cell;
}

MatrixReport run_matrix(const MatrixOptions& options) {
  MatrixReport report;
  for (const CatalogEntry& entry : catalog()) {
    for (const std::string& profile_name : options.byzantine_profiles) {
      const BenignProfile* profile = find_profile(profile_name);
      if (!profile) {
        CellResult bad;
        bad.misbehavior = entry.name;
        bad.profile = profile_name;
        bad.expected = entry.expected;
        bad.note = "unknown benign profile";
        report.cells.push_back(std::move(bad));
        continue;
      }
      for (std::uint64_t seed : options.byzantine_seeds) {
        report.cells.push_back(run_cell(&entry, *profile, seed, options));
      }
    }
  }
  for (const BenignProfile& profile : benign_profiles()) {
    for (std::uint64_t seed : options.benign_seeds) {
      report.cells.push_back(run_cell(nullptr, profile, seed, options));
    }
  }
  return report;
}

bool MatrixReport::all_pass() const {
  return std::all_of(cells.begin(), cells.end(), [](const CellResult& c) { return c.pass; });
}

std::size_t MatrixReport::false_positives() const {
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(), [](const CellResult& c) {
        return c.expected == core::FaultKind::kNone && !c.detections.empty();
      }));
}

std::size_t MatrixReport::missed_detections() const {
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(), [](const CellResult& c) {
        return c.expected != core::FaultKind::kNone && !c.pass;
      }));
}

std::string MatrixReport::render() const {
  std::ostringstream out;
  out << "spider_chaos detection matrix — " << cells.size() << " cells\n";
  out << std::left << std::setw(26) << "misbehavior" << std::setw(13) << "profile" << std::setw(6)
      << "seed" << std::setw(22) << "expected" << std::setw(26) << "result" << std::setw(26)
      << "faults d/u/j/c/p" << "status\n";
  for (const CellResult& cell : cells) {
    std::string result;
    if (cell.detections.empty()) {
      result = "no detection";
    } else {
      // Prefer the detection matching the expectation; fall back to the
      // first one so mismatches are visible in the report.
      const core::Detection* shown = &cell.detections.front();
      for (const core::Detection& d : cell.detections) {
        if (d.kind == cell.expected) {
          shown = &d;
          break;
        }
      }
      result = core::fault_kind_name(shown->kind);
      if (cell.detections.size() > 1) {
        result += " (+" + std::to_string(cell.detections.size() - 1) + ")";
      }
    }
    std::ostringstream fault_counts;
    fault_counts << cell.faults.dropped << "/" << cell.faults.duplicated << "/"
                 << cell.faults.delayed << "/" << cell.faults.corrupted << "/"
                 << cell.partition_drops;
    out << std::left << std::setw(26) << cell.misbehavior << std::setw(13) << cell.profile
        << std::setw(6) << cell.seed << std::setw(22)
        << (cell.expected == core::FaultKind::kNone ? std::string("-")
                                                    : core::fault_kind_name(cell.expected))
        << std::setw(26) << result << std::setw(26) << fault_counts.str()
        << (cell.pass ? "ok" : "FAIL");
    if (!cell.note.empty()) out << "  [" << cell.note << "]";
    out << "\n";
  }
  out << "byzantine cells missing their fault class: " << missed_detections() << "\n";
  out << "benign cells with false positives: " << false_positives() << "\n";
  out << "result: " << (all_pass() ? "PASS" : "FAIL") << "\n";
  return out.str();
}

}  // namespace spider::chaos
