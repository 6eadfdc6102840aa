// spider_lint CLI: walks src/ and tools/ under --root, runs the
// per-file R1-R10 matchers and the model extraction in parallel (one
// task per file on a util::ThreadPool), then the cross-file passes (R4
// registry check, R11-R15 taint analysis) serially, and prints
// `path:line: RN: message` per finding.  Output is sorted and
// byte-identical regardless of --jobs.  Exit status is the number of
// findings (capped at 125) so both `ctest` and CI treat a dirty tree as
// a failure.
//
// Usage: spider_lint --root <repo-root> [--quiet] [--rule RN]...
//                    [--jobs N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lint.hpp"
#include "model.hpp"
#include "taint.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
namespace lint = spider::lint;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Repo-relative path with forward slashes, the form classify() expects
/// and diagnostics print.
std::string rel_path(const fs::path& root, const fs::path& p) {
  std::string s = fs::relative(p, root).generic_string();
  return s;
}

/// Per-file phase-1 output, merged in deterministic file order.
struct PerFile {
  std::vector<lint::Finding> findings;
  std::vector<lint::DecoderDecl> decoders;
  std::map<int, std::set<std::string>> suppressions;
  bool has_decoders = false;
  lint::taint::TuModel model;
  bool has_model = false;
};

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool quiet = false;
  std::set<std::string> rule_filter;
  std::size_t jobs = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--rule" && i + 1 < argc) {
      rule_filter.insert(argv[++i]);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: spider_lint --root <repo-root> [--quiet] [--rule RN]... "
          "[--jobs N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "spider_lint: unknown argument '%s'\n", arg.c_str());
      return 125;
    }
  }
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "spider_lint: --root '%s' is not a directory\n",
                 root.string().c_str());
    return 125;
  }

  // ---- collect the file set --------------------------------------------
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tools"}) {
    fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && is_cpp_source(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  // ---- phase 1: per-file rules + model extraction, in parallel ---------
  std::vector<PerFile> slots(files.size());
  {
    spider::util::ThreadPool pool(jobs);
    for (std::size_t i = 0; i < files.size(); ++i) {
      pool.submit([&, i] {
        const fs::path& p = files[i];
        const std::string rel = rel_path(root, p);
        // The lint tool's own sources mention every banned identifier by
        // design; rules don't apply to the rule tables.
        if (rel.rfind("tools/spider_lint/", 0) == 0) return;
        const std::string source = read_file(p);
        PerFile& out = slots[i];
        out.findings = lint::lint_source(rel, source);
        // R4 candidates come from headers only — that is where the
        // static decode entry points are declared.
        if (p.extension() == ".hpp" || p.extension() == ".h") {
          out.decoders = lint::find_decoder_decls(rel, source);
          if (!out.decoders.empty()) {
            out.suppressions = lint::collect_suppressions(source);
            out.has_decoders = true;
          }
        }
        out.model = lint::taint::build_tu_model(rel, source);
        out.has_model = true;
      });
    }
    pool.wait_idle();
    pool.shutdown();
  }

  std::vector<lint::Finding> findings;
  std::vector<lint::DecoderDecl> decoders;
  std::map<std::string, std::map<int, std::set<std::string>>> suppressions_by_path;
  std::vector<lint::taint::TuModel> models;
  for (PerFile& slot : slots) {
    findings.insert(findings.end(), slot.findings.begin(), slot.findings.end());
    if (slot.has_decoders) {
      suppressions_by_path[slot.decoders.front().path] = std::move(slot.suppressions);
      decoders.insert(decoders.end(), slot.decoders.begin(), slot.decoders.end());
    }
    if (slot.has_model) models.push_back(std::move(slot.model));
  }

  // ---- R4: cross-reference the fuzz registry ---------------------------
  fs::path registry = root / "tests" / "fuzz" / "targets.cpp";
  if (fs::is_regular_file(registry)) {
    std::vector<lint::Finding> r4 = lint::lint_decoder_registry(
        decoders, read_file(registry), suppressions_by_path);
    findings.insert(findings.end(), r4.begin(), r4.end());
  } else if (!decoders.empty()) {
    std::fprintf(stderr,
                 "spider_lint: tests/fuzz/targets.cpp missing but %zu decoders "
                 "declared — R4 cannot be checked\n",
                 decoders.size());
    return 125;
  }

  // ---- R11-R15: interprocedural taint ----------------------------------
  {
    std::vector<lint::Finding> taint_findings =
        lint::taint::run_taint(std::move(models));
    findings.insert(findings.end(), taint_findings.begin(), taint_findings.end());
  }

  if (!rule_filter.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const lint::Finding& f) {
                                    return rule_filter.count(f.rule) == 0;
                                  }),
                   findings.end());
  }

  std::sort(findings.begin(), findings.end());
  if (!quiet) {
    for (const lint::Finding& f : findings) {
      std::printf("%s:%d: %s: %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
    std::printf("spider_lint: %zu file(s), %zu finding(s)\n", files.size(),
                findings.size());
  }
  return findings.size() > 125 ? 125 : static_cast<int>(findings.size());
}
