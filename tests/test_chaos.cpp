// spider_chaos: catalog invariants, fault-plane determinism, recorder
// resilience under benign chaos, and single detection-matrix cells.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "chaos/matrix.hpp"
#include "spider/deployment.hpp"
#include "spider/evidence.hpp"
#include "spider/proof_generator.hpp"
#include "trace/routeviews.hpp"

namespace sch = spider::chaos;
namespace sc = spider::core;
namespace sp = spider::proto;
namespace sb = spider::bgp;
namespace sn = spider::netsim;
namespace st = spider::trace;

namespace {

constexpr sn::Time kSecond = sn::kMicrosPerSecond;

/// Every cell's verdicts — each detection's fault class and accused AS, in
/// emission order — with no timings, fault counts or detail strings, so
/// the rendering changes only when a verdict or an attribution does.
std::string render_verdicts(const sch::MatrixReport& report) {
  std::ostringstream out;
  for (const sch::CellResult& cell : report.cells) {
    out << cell.misbehavior << " " << cell.profile << " " << cell.seed << ":";
    if (cell.detections.empty()) out << " none";
    for (const sc::Detection& d : cell.detections) {
      out << " " << sc::fault_kind_name(d.kind) << "@AS" << d.accused;
    }
    out << "\n";
  }
  return out.str();
}

/// Small options so a single cell stays fast in unit tests.
sch::MatrixOptions small_options() {
  sch::MatrixOptions options;
  options.num_prefixes = 50;
  options.num_updates = 30;
  return options;
}

}  // namespace

// ------------------------------------------------------------- catalog

TEST(ChaosCatalog, EveryEntryDeclaresItsDetection) {
  // The runtime half of lint rule R8: a misbehavior without an expected
  // fault class cannot be asserted by the matrix.
  ASSERT_GE(sch::catalog().size(), 10u);
  std::set<std::string> names;
  for (const auto& entry : sch::catalog()) {
    EXPECT_NE(entry.expected, sc::FaultKind::kNone) << entry.name;
    EXPECT_NE(entry.name, nullptr);
    EXPECT_TRUE(names.insert(entry.name).second) << "duplicate name " << entry.name;
    EXPECT_NE(std::string(entry.paper_ref), "") << entry.name;
    EXPECT_EQ(sch::find_entry(entry.name), &entry);
  }
}

TEST(ChaosCatalog, UnknownNamesResolveToNull) {
  EXPECT_EQ(sch::find_entry("no-such-misbehavior"), nullptr);
  EXPECT_EQ(sch::find_profile("no-such-profile"), nullptr);
}

TEST(ChaosCatalog, ProfilesIncludeCleanBaseline) {
  const sch::BenignProfile* clean = sch::find_profile("clean");
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(clean->network.drop_ppm, 0u);
  EXPECT_EQ(clean->network.duplicate_ppm, 0u);
  EXPECT_EQ(clean->network.corrupt_ppm, 0u);
  EXPECT_EQ(clean->network.max_jitter, 0);
  EXPECT_FALSE(clean->partition);
  EXPECT_FALSE(clean->skew);
}

// ---------------------------------------------------------- fault plane

TEST(ChaosFaultPlane, SameSeedSamePlans) {
  sch::FaultProfile profile{200'000, 200'000, 200'000, 1'000};
  sch::NetworkFaultPlane first(profile, 7);
  sch::NetworkFaultPlane second(profile, 7);
  spider::util::Bytes payload(64, 0xab);
  for (int i = 0; i < 200; ++i) {
    auto a = first.plan_message(1, 2, payload);
    auto b = second.plan_message(1, 2, payload);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.jitter, b.jitter);
    EXPECT_EQ(a.corrupt, b.corrupt);
  }
}

TEST(ChaosFaultPlane, DifferentSeedsDiverge) {
  sch::FaultProfile profile{500'000, 0, 0, 0};
  sch::NetworkFaultPlane first(profile, 7);
  sch::NetworkFaultPlane second(profile, 8);
  spider::util::Bytes payload(8, 0);
  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    if (first.plan_message(1, 2, payload).drop != second.plan_message(1, 2, payload).drop) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(ChaosFaultPlane, LinksDrawFromIndependentStreams) {
  // Traffic on one link must not shift another link's fault decisions:
  // interleaving extra messages on (3,4) leaves (1,2)'s plans unchanged.
  sch::FaultProfile profile{300'000, 300'000, 0, 5'000};
  sch::NetworkFaultPlane quiet(profile, 9);
  sch::NetworkFaultPlane busy(profile, 9);
  spider::util::Bytes payload(8, 0);
  for (int i = 0; i < 100; ++i) {
    auto a = quiet.plan_message(1, 2, payload);
    busy.plan_message(3, 4, payload);  // unrelated traffic
    auto b = busy.plan_message(1, 2, payload);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.jitter, b.jitter);
  }
}

TEST(ChaosFaultPlane, ScopeRestrictsFaultsToListedNodes) {
  sch::FaultProfile profile{1'000'000, 0, 0, 0};  // drop everything in scope
  sch::NetworkFaultPlane plane(profile, 1);
  plane.restrict_to({1, 2});
  spider::util::Bytes payload(8, 0);
  EXPECT_TRUE(plane.plan_message(1, 2, payload).drop);
  EXPECT_FALSE(plane.plan_message(1, 3, payload).drop);  // 3 out of scope
  EXPECT_FALSE(plane.plan_message(4, 5, payload).drop);
}

// ------------------------------- recorder resilience under benign chaos

TEST(ChaosRecorder, MirrorsSurviveHeavyDuplicationAndJitter) {
  // Duplicate ~15% of recorder messages with jitter: batch dedup plus the
  // high-water input guard must keep every mirror exact and alarm-free,
  // and checkpoint+replay must still reproduce the committed root.
  st::TraceConfig trace_config;
  trace_config.num_prefixes = 60;
  trace_config.num_updates = 40;
  trace_config.duration = 20 * kSecond;
  trace_config.seed = 5;
  const st::RouteViewsTrace trace = st::generate(trace_config);

  sp::DeploymentConfig config;
  config.num_classes = 10;
  config.commit_ases = {};
  sp::Fig5Deployment deploy(config);

  sch::NetworkFaultPlane plane({0, 150'000, 0, 15'000}, 3);
  std::set<sn::NodeId> recorder_nodes;
  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    recorder_nodes.insert(deploy.recorder_node(asn));
  }
  plane.restrict_to(recorder_nodes);
  plane.arm(deploy.sim());

  const sn::Time start = deploy.run_setup(trace, 20 * kSecond);
  deploy.run_replay(trace, start, 5 * kSecond);
  sch::NetworkFaultPlane::disarm(deploy.sim());
  deploy.sim().run();
  EXPECT_GT(deploy.sim().fault_counts().duplicated, 0u);

  for (sb::AsNumber asn : sp::Fig5Deployment::ases()) {
    EXPECT_TRUE(deploy.recorder(asn).alarms().empty())
        << "AS" << asn << ": " << deploy.recorder(asn).alarms().front();
  }
  // AS5's mirror of AS2 matches AS2's own view despite the duplicates:
  // same prefixes, same AS paths.  (learned_from/local_pref are local
  // attributes and legitimately differ across the two vantage points.)
  const auto imports = deploy.recorder(5).my_imports_from(2);
  const auto exports = deploy.recorder(2).my_exports_to(5);
  ASSERT_EQ(imports.size(), exports.size());
  for (const auto& [prefix, route] : exports) {
    auto it = imports.find(prefix);
    ASSERT_NE(it, imports.end()) << prefix.str() << " missing from the mirror";
    EXPECT_EQ(it->second.as_path, route.as_path) << prefix.str();
  }

  const sn::Time commit_time = deploy.recorder(5).make_commitment().timestamp;
  deploy.sim().run();
  sp::ProofGenerator generator(deploy.recorder(5));
  EXPECT_TRUE(generator.reconstruct(commit_time).root_matches);

  // Evidence built from these logs survives the chaos too: AS2 can still
  // prove an import to AS5 (announce + ACK both got through, possibly
  // only as retransmissions).
  ASSERT_FALSE(exports.empty());
  auto quote = deploy.recorder(2).find_announce_quote(sp::LogDirection::kSent, 5,
                                                      exports.begin()->first, commit_time);
  ASSERT_TRUE(quote.has_value());
  auto ack = deploy.recorder(2).find_ack_for(quote->batch.digest());
  ASSERT_TRUE(ack.has_value());
  sp::ImportEvidence evidence{sp::QuotedMessage{*quote}, *ack};
  EXPECT_EQ(sp::check_evidence_of_import(evidence, commit_time, std::nullopt, deploy.keys()),
            sp::EvidenceVerdict::kUpheld);
}

// ------------------------------------------------------- matrix cells

TEST(ChaosMatrix, BenignCellIsQuiet) {
  const sch::CellResult cell =
      sch::run_cell(nullptr, *sch::find_profile("light"), 1, small_options());
  EXPECT_TRUE(cell.pass) << cell.note;
  EXPECT_TRUE(cell.detections.empty());
  EXPECT_EQ(cell.expected, sc::FaultKind::kNone);
}

TEST(ChaosMatrix, ByzantineCellDetectsDeclaredClass) {
  const sch::CatalogEntry* entry = sch::find_entry("tampered-bit-proof");
  ASSERT_NE(entry, nullptr);
  const sch::CellResult cell =
      sch::run_cell(entry, *sch::find_profile("clean"), 11, small_options());
  EXPECT_TRUE(cell.pass) << cell.note;
  ASSERT_FALSE(cell.detections.empty());
  EXPECT_EQ(cell.detections.front().kind, sc::FaultKind::kInvalidBitProof);
}

TEST(ChaosMatrix, CellsAreDeterministic) {
  // stale-proof advances simulated time and commits twice before its
  // session runs, so it covers a second commitment round.
  for (const char* name : {"equivocation", "stale-proof"}) {
    SCOPED_TRACE(name);
    const sch::CatalogEntry* entry = sch::find_entry(name);
    ASSERT_NE(entry, nullptr);
    const sch::BenignProfile& profile = *sch::find_profile("light");
    const sch::CellResult first = sch::run_cell(entry, profile, 2, small_options());
    const sch::CellResult second = sch::run_cell(entry, profile, 2, small_options());
    EXPECT_TRUE(first.pass) << first.note;
    ASSERT_EQ(first.detections.size(), second.detections.size());
    for (std::size_t i = 0; i < first.detections.size(); ++i) {
      EXPECT_EQ(first.detections[i].kind, second.detections[i].kind);
      EXPECT_EQ(first.detections[i].accused, second.detections[i].accused);
      EXPECT_EQ(first.detections[i].detail, second.detections[i].detail);
    }
    EXPECT_EQ(first.faults.dropped, second.faults.dropped);
    EXPECT_EQ(first.faults.duplicated, second.faults.duplicated);
    EXPECT_EQ(first.faults.delayed, second.faults.delayed);
    EXPECT_EQ(first.pass, second.pass);
  }
}

// The default matrix's verdicts and attributions are pinned by a golden
// file: a protocol change that alters what is detected, or whom it blames,
// fails here even when every cell still passes.  The actual rendering is
// written beside the build for diffing.
TEST(ChaosMatrix, DefaultMatrixMatchesVerdictGolden) {
  const std::string actual = render_verdicts(sch::run_matrix(sch::MatrixOptions{}));
  std::ofstream(CHAOS_VERDICTS_ACTUAL) << actual;
  std::ifstream golden_file(CHAOS_VERDICTS_GOLDEN);
  ASSERT_TRUE(golden_file.good()) << "missing " << CHAOS_VERDICTS_GOLDEN;
  std::stringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(actual, golden.str()) << "compare " << CHAOS_VERDICTS_ACTUAL;
}
