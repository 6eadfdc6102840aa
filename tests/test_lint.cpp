// spider_lint fixture tests: each rule must fire on its violating snippet
// at the exact line, stay silent elsewhere, and honor suppression
// comments.  Fixtures live in tests/lint_fixtures/ (LINT_FIXTURE_DIR) and
// are never compiled — they exist only as lint input.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"
#include "taint.hpp"

namespace lint = spider::lint;
namespace taint = spider::lint::taint;

namespace {

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(LINT_FIXTURE_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// (rule, line) pairs, the shape every assertion below compares against.
std::vector<std::pair<std::string, int>> rule_lines(const std::vector<lint::Finding>& fs) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(fs.size());
  for (const lint::Finding& f : fs) out.emplace_back(f.rule, f.line);
  return out;
}

using RL = std::vector<std::pair<std::string, int>>;

}  // namespace

// ------------------------------------------------------------------ lexer

TEST(LintLexer, TokensCarryLinesAndCommentsAreDropped) {
  auto toks = lint::lex("int a = 1; // gone\n/* also\ngone */ b == \"str // x\";\n");
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[5].text, "b");
  EXPECT_EQ(toks[5].line, 3);
  EXPECT_EQ(toks[6].text, "==");
  EXPECT_EQ(toks[6].kind, lint::Token::Kind::kPunct);
  EXPECT_EQ(toks[7].kind, lint::Token::Kind::kString);
}

TEST(LintLexer, DirectivesAreSingleTokens) {
  auto toks = lint::lex("#include <ctime>\nint time_like;\n");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, lint::Token::Kind::kDirective);
  EXPECT_EQ(toks[1].text, "int");
  EXPECT_EQ(toks[1].line, 2);
}

TEST(LintSuppressions, SameLineAndStandaloneCoverage) {
  auto map = lint::collect_suppressions(
      "int a;  // spider-lint: allow(R2)\n"
      "// spider-lint: allow(R3,R7)\n"
      "int b;\n");
  EXPECT_EQ(map.at(1).count("R2"), 1u);
  EXPECT_EQ(map.at(2).count("R3"), 1u);
  EXPECT_EQ(map.at(3).count("R3"), 1u) << "standalone comment covers the next line";
  EXPECT_EQ(map.at(3).count("R7"), 1u);
  EXPECT_EQ(map.count(4), 0u);
}

// --------------------------------------------------------------- classify

TEST(LintClassify, PathScopes) {
  EXPECT_TRUE(lint::classify("src/crypto/random.cpp").crypto_random_impl);
  EXPECT_FALSE(lint::classify("src/crypto/rsa.cpp").crypto_random_impl);
  EXPECT_TRUE(lint::classify("src/netsim/sim.cpp").deterministic);
  EXPECT_TRUE(lint::classify("src/core/vpref.cpp").deterministic);
  EXPECT_FALSE(lint::classify("src/spider/recorder.cpp").deterministic);
  EXPECT_TRUE(lint::classify("src/obs/metrics.cpp").obs_impl);
  EXPECT_FALSE(lint::classify("tools/spider_bench.cpp").obs_impl);
  EXPECT_TRUE(lint::classify("src/transport/tcp_transport.cpp").transport_impl);
  EXPECT_FALSE(lint::classify("src/spider/recorder.cpp").transport_impl);
}

// -------------------------------------------------------------- the rules

TEST(LintRules, R1UnguardedReserveFromWireRead) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r1_unguarded_reserve.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R1", 7}, {"R1", 10}}))
      << "line 9's reserve is guarded by check_count and must not fire";
}

TEST(LintRules, R2RandomnessOutsideCrypto) {
  auto fs = lint::lint_source("src/bgp/fixture.cpp", read_fixture("r2_randomness.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R2", 5}, {"R2", 6}}));
}

TEST(LintRules, R2ExemptInsideCryptoRandom) {
  auto fs = lint::lint_source("src/crypto/random.cpp", read_fixture("r2_randomness.cpp"));
  EXPECT_TRUE(fs.empty());
}

TEST(LintRules, R3WallClockInDeterministicCode) {
  auto fs = lint::lint_source("src/core/fixture.cpp", read_fixture("r3_wallclock.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R3", 6}, {"R3", 7}}));
}

TEST(LintRules, R3DoesNotApplyOutsideDeterministicCode) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r3_wallclock.cpp"));
  EXPECT_TRUE(fs.empty());
}

TEST(LintRules, R4UnregisteredDecoder) {
  const std::string header = read_fixture("r4_unregistered_decoder.hpp");
  const std::string path = "src/spider/fixture.hpp";
  auto decls = lint::find_decoder_decls(path, header);
  ASSERT_EQ(decls.size(), 3u);
  EXPECT_EQ(decls[0].type, "GhostFrame");
  EXPECT_EQ(decls[1].type, "KnownFrame");
  EXPECT_EQ(decls[2].type, "WaivedFrame");

  std::map<std::string, std::map<int, std::set<std::string>>> sups;
  sups[path] = lint::collect_suppressions(header);
  auto fs = lint::lint_decoder_registry(decls, read_fixture("r4_registry.cpp"), sups);
  EXPECT_EQ(rule_lines(fs), (RL{{"R4", 4}}))
      << "KnownFrame is registered and WaivedFrame carries allow(R4)";
}

TEST(LintRules, R5NonDecodeErrorThrow) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r5_bad_throw.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R5", 5}}))
      << "line 6 throws DecodeError and must not fire";
}

TEST(LintRules, R6DirectMetricsOutsideObs) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r6_direct_metrics.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R6", 3}, {"R6", 4}}));
}

TEST(LintRules, R6ExemptInsideObs) {
  auto fs = lint::lint_source("src/obs/fixture.cpp", read_fixture("r6_direct_metrics.cpp"));
  EXPECT_TRUE(fs.empty());
}

TEST(LintRules, R7BannedFunctionsAndDigestCompares) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r7_banned.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R7", 5}, {"R7", 6}, {"R7", 7}}));
}

TEST(LintRules, R8CatalogEntryWithoutFaultKind) {
  auto fs = lint::lint_source("src/chaos/catalog_fixture.cpp", read_fixture("r8_catalog.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R8", 5}, {"R8", 7}}))
      << "entry 1 declares a class and the waived entry carries allow(R8)";
}

TEST(LintRules, R8DoesNotApplyOutsideTheCatalog) {
  auto fs = lint::lint_source("src/chaos/matrix.cpp", read_fixture("r8_catalog.cpp"));
  EXPECT_TRUE(fs.empty());
}

TEST(LintRules, R9StaleRootAfterStructureOnlyApply) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r9_stale_root.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R9", 5}}))
      << "line 8 reads the root after a relabel and must not fire";
}

TEST(LintRules, R10RawSocketSyscallsOutsideTransport) {
  auto fs = lint::lint_source("src/spider/fixture.cpp", read_fixture("r10_raw_socket.cpp"));
  EXPECT_EQ(rule_lines(fs), (RL{{"R10", 5}, {"R10", 6}, {"R10", 7}}))
      << "member calls, namespaced calls and the allow(R10) line must not fire";
}

TEST(LintRules, R10ExemptInsideTransport) {
  auto fs = lint::lint_source("src/transport/fixture.cpp", read_fixture("r10_raw_socket.cpp"));
  EXPECT_TRUE(fs.empty());
}

TEST(LintRules, SuppressionsSilenceEveryFinding) {
  auto fs = lint::lint_source("src/core/fixture.cpp", read_fixture("suppressed.cpp"));
  EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs.front().rule + " still fired");
}

// ----------------------------------------------------- taint: extraction

TEST(TaintAnnotations, SecretAndDeclassifyCoverage) {
  auto notes = taint::collect_annotations(
      "int a;  // spider-taint: secret\n"
      "// spider-taint: secret\n"
      "int b;\n"
      "// spider-taint: declassify(reason here)\n"
      "int c;\n"
      "// spider-taint: declassify()\n"
      "int d;\n");
  EXPECT_EQ(notes.secret.count(1), 1u);
  EXPECT_EQ(notes.secret.count(2), 1u);
  EXPECT_EQ(notes.secret.count(3), 1u) << "standalone comment covers the next line";
  EXPECT_EQ(notes.secret.count(4), 0u);
  EXPECT_EQ(notes.declassify.at(4), "reason here");
  EXPECT_EQ(notes.declassify.at(5), "reason here");
  EXPECT_EQ(notes.declassify.at(6), "") << "empty rationale is kept (and reported as R12)";
}

TEST(TaintAnnotations, DigitSeparatorsDoNotSwallowComments) {
  // Regression: a lone ' in 50'000 must not open a char literal that
  // eats every annotation until the next quote in the file.
  auto notes = taint::collect_annotations(
      "const int iters = 50'000;\n"
      "// spider-taint: declassify(published by design)\n"
      "auto pub = key.public_key();\n"
      "const int more = 100'000;\n");
  EXPECT_EQ(notes.declassify.at(2), "published by design");
  EXPECT_EQ(notes.declassify.at(3), "published by design");
}

TEST(TaintModel, ExtractsFunctionsFieldsAndTypes) {
  auto tu = taint::build_tu_model("src/core/sample.cpp",
                                  "// spider-taint: secret\n"
                                  "struct Seed { int v; };\n"
                                  "class Holder {\n"
                                  " public:\n"
                                  "  int get() const { return v_; }\n"
                                  " private:\n"
                                  "  Seed v_;\n"
                                  "};\n"
                                  "int free_fn(const Seed& s, int* out) { return s.v; }\n");
  ASSERT_EQ(tu.types.size(), 2u);
  EXPECT_EQ(tu.types[0].name, "Seed");
  EXPECT_TRUE(tu.types[0].annotated_secret);
  EXPECT_EQ(tu.types[1].name, "Holder");
  EXPECT_FALSE(tu.types[1].annotated_secret);

  ASSERT_EQ(tu.fields.size(), 2u);
  EXPECT_EQ(tu.fields[0].owner, "Seed");
  EXPECT_EQ(tu.fields[0].name, "v");
  EXPECT_EQ(tu.fields[1].owner, "Holder");
  EXPECT_EQ(tu.fields[1].name, "v_");
  EXPECT_EQ(tu.fields[1].type, "Seed");

  ASSERT_EQ(tu.functions.size(), 2u);
  EXPECT_EQ(tu.functions[0].owner, "Holder");
  EXPECT_EQ(tu.functions[0].name, "get");
  EXPECT_TRUE(tu.functions[0].has_body);
  EXPECT_EQ(tu.functions[1].name, "free_fn");
  EXPECT_EQ(tu.functions[1].owner, "");
  ASSERT_EQ(tu.functions[1].params.size(), 2u);
  EXPECT_EQ(tu.functions[1].params[0].name, "s");
  EXPECT_EQ(tu.functions[1].params[0].type, "Seed");
  EXPECT_FALSE(tu.functions[1].params[0].out_param);
  EXPECT_EQ(tu.functions[1].params[1].name, "out");
  EXPECT_TRUE(tu.functions[1].params[1].out_param);
}

TEST(LintClassify, CryptoKernelScope) {
  EXPECT_TRUE(lint::classify("src/crypto/mont.cpp").crypto_kernel);
  EXPECT_TRUE(lint::classify("src/crypto/limb.hpp").crypto_kernel);
  EXPECT_TRUE(lint::classify("src/crypto/rsa.cpp").crypto_kernel);
  EXPECT_FALSE(lint::classify("src/crypto/bignum.cpp").crypto_kernel);
  EXPECT_FALSE(lint::classify("src/core/mont.cpp").crypto_kernel);
}

// --------------------------------------------------- taint: propagation

TEST(TaintSummaries, ParamReturnChainsSecretOutsAndCallGraph) {
  std::vector<taint::TuModel> tus;
  tus.push_back(taint::build_tu_model("src/core/flows.cpp",
                                      "int relay(int x) { return x; }\n"
                                      "int twice(int x) { return relay(x); }\n"
                                      "// spider-taint: secret\n"
                                      "void fill(int* out) { *out = 1; }\n"));
  taint::Analysis an(std::move(tus));
  auto fs = an.run();
  EXPECT_TRUE(fs.empty());

  const taint::FnSummary* relay = an.summary("relay");
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->param_returns.count(0), 1u);

  const taint::FnSummary* twice = an.summary("twice");
  ASSERT_NE(twice, nullptr);
  EXPECT_EQ(twice->param_returns.count(0), 1u) << "param->return composes through relay";

  const taint::FnSummary* fill = an.summary("fill");
  ASSERT_NE(fill, nullptr);
  EXPECT_EQ(fill->secret_out_params.count(0), 1u)
      << "void secret function marks its writable params as secret outputs";

  bool saw_edge = false;
  for (const taint::CallSite& c : an.call_graph()) {
    if (c.caller == "twice" && c.callee == "relay" && c.line == 2) saw_edge = true;
  }
  EXPECT_TRUE(saw_edge) << "call graph records twice -> relay";
}

// ------------------------------------------------------- taint: fixtures

namespace {

std::vector<lint::Finding> taint_fixture(
    std::vector<std::pair<std::string, std::string>> files) {
  std::vector<taint::TuModel> tus;
  tus.reserve(files.size());
  for (const auto& [path, fixture] : files) {
    tus.push_back(taint::build_tu_model(path, read_fixture(fixture)));
  }
  return taint::run_taint(std::move(tus));
}

}  // namespace

TEST(TaintRules, R11SecretReachesLogAndThrow) {
  auto fs = taint_fixture({{"src/spider/fixture.cpp", "taint_r11_log.cpp"}});
  ASSERT_EQ(rule_lines(fs), (RL{{"R11", 8}, {"R11", 15}}))
      << "the digest20-sanitized dump in fine() must not fire";
  EXPECT_NE(fs[0].message.find("declared with secret type 'Key'"), std::string::npos);
  EXPECT_NE(fs[0].message.find("passed to parameter 'v' of 'debug_dump'"), std::string::npos)
      << "the trace must cross the call into the helper";
}

TEST(TaintRules, R12WireEncodeNeedsRationale) {
  auto fs = taint_fixture({{"src/spider/fixture.cpp", "taint_r12_wire.cpp"}});
  EXPECT_EQ(rule_lines(fs), (RL{{"R12", 10}, {"R12", 21}, {"R12", 22}}))
      << "declassify with a rationale clears line 16; an empty rationale "
         "is itself a finding and does not clear its sink";
}

TEST(TaintRules, R13VariableTimeCompares) {
  auto fs = taint_fixture({{"src/spider/fixture.cpp", "taint_r13_compare.cpp"}});
  EXPECT_EQ(rule_lines(fs), (RL{{"R13", 10}, {"R13", 15}}))
      << "constant_time_equal and the size()==0 literal guard must not fire";
}

TEST(TaintRules, R14KernelScopedBranchTernaryIndex) {
  auto fs = taint_fixture({{"src/crypto/mont.cpp", "taint_r14_kernel.cpp"}});
  EXPECT_EQ(rule_lines(fs), (RL{{"R14", 7}, {"R14", 10}, {"R14", 11}}));

  auto quiet = taint_fixture({{"src/core/ladder.cpp", "taint_r14_kernel.cpp"}});
  EXPECT_TRUE(quiet.empty()) << "R14 is scoped to the src/crypto kernels";
}

TEST(TaintRules, R15SecretNeverReachesProofPathCache) {
  auto fs = taint_fixture({{"src/verify/fixture.cpp", "r15_cache_secret.cpp"}});
  EXPECT_EQ(rule_lines(fs), (RL{{"R15", 11}, {"R15", 16}, {"R15", 22}}))
      << "both storage methods fire, declassify is NOT an escape, and "
         "digest-laundered or public-label inserts stay clean";
}

TEST(TaintRules, SuppressionsSilenceTaintFindings) {
  auto fs = taint_fixture({{"src/crypto/mont.cpp", "taint_suppressed.cpp"}});
  EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs.front().rule + " still fired");
}

TEST(TaintRules, CrossTuFlowTraceSpansBothFiles) {
  auto fs = taint_fixture({{"src/spider/cross.hpp", "taint_cross_decl.hpp"},
                           {"src/spider/cross_use.cpp", "taint_cross_use.cpp"}});
  ASSERT_EQ(rule_lines(fs), (RL{{"R12", 10}})) << "the sink line lives in the header";
  EXPECT_EQ(fs[0].path, "src/spider/cross.hpp");
  EXPECT_NE(fs[0].message.find("src/spider/cross_use.cpp:6"), std::string::npos)
      << "trace starts at the secret declaration in the using TU";
  EXPECT_NE(fs[0].message.find("passed to parameter 'word' of 'emit_word'"),
            std::string::npos);
}
