// perfbench_driver: runs one workload of the SPIDeR benchmark and prints
// its result as the last line of standard output.
//
//   perfbench_driver --workload replay|audit|wire --seed N --seconds S
//                    --trace 0|1 --work-dir DIR [--node-bin PATH] [--tiny]
//
// --trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
// runs the workload twice, untraced and then traced with spans kept in
// memory, reports the per-layer ledger (trace.overhead_frac compares the
// two passes' wall time per item) and writes the spans to
// DIR/spans-<workload>-<seed>.json.  Exit status 0 means every output
// check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload replay|audit|wire --seed N --seconds S --trace 0|1\n"
               "          --work-dir DIR [--node-bin PATH] [--tiny]\n",
               argv0);
  return 2;
}

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(const Result& result,
                  const std::vector<std::pair<std::string, std::string>>& names) {
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) throw std::logic_error("metric not measured: " + name);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number(it->second) + ", \"unit\": \"" + unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

Result run(const Options& opt) {
  if (opt.workload == "replay") return run_replay(opt);
  if (opt.workload == "audit") return run_audit(opt);
  return run_wire(opt);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = next();
    } else if (arg == "--node-bin") {
      opt.node_bin = next();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else {
      return usage(argv[0]);
    }
  }
  if ((opt.workload != "replay" && opt.workload != "audit" && opt.workload != "wire") ||
      opt.work_dir.empty() || !(opt.seconds > 0) ||
      (opt.workload == "wire" && opt.node_bin.empty())) {
    return usage(argv[0]);
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || sanitized_build()) {
    std::fprintf(stderr, "perfbench: refusing a %s%s build; timings need Release\n",
                 build_type.c_str(), sanitized_build() ? " sanitizer" : "");
    return 3;
  }
  const unsigned nproc = available_cpus();
  const unsigned threads = opt.workload == "replay"  ? kReplayThreads
                           : opt.workload == "audit" ? kAuditThreads
                                                     : kWireThreads;
  const unsigned processes = opt.workload == "wire" ? 1 + kWireNodeProcesses : 1;
  // The environment record precedes the result line.
  std::printf("{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"threads_plus_processes\": %u, "
              "\"processes\": %u, \"build_type\": \"%s\", \"tiny\": %d}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              number(opt.seconds).c_str(), opt.trace ? 1 : 0, nproc, threads, processes,
              build_type.c_str(), opt.tiny ? 1 : 0);
  std::fflush(stdout);
  if (threads > nproc) {
    std::fprintf(stderr, "perfbench: %s needs %u threads and processes; only %u CPUs\n",
                 opt.workload.c_str(), threads, nproc);
    return 3;
  }

  try {
    Result result;
    if (!opt.trace) {
      result = run(opt);
      for (const std::string& failure : result.failures) {
        std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
      }
      if (result.failed != 0) return 1;
      print_result(result, end_to_end_metrics());
      return 0;
    }
    // Traced run: an untraced pass, then the traced pass the ledger comes
    // from.  Each pass sets up once; set-up time is not the ledger's topic.
    Options pass = opt;
    pass.setups = 1;
    pass.trace = false;
    const Result plain = run(pass);
    pass.trace = true;
    tracer().enable(true);
    result = run(pass);
    tracer().enable(false);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.failures.insert(result.failures.end(), plain.failures.begin(), plain.failures.end());
    result.metrics["trace.overhead_frac"] =
        (result.timed_wall / result.items) / (plain.timed_wall / plain.items) - 1.0;
    tracer().write_json(opt.work_dir + "/spans-" + opt.workload + "-" +
                            std::to_string(opt.seed) + ".json",
                        opt.workload);
    for (const std::string& failure : result.failures) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
    }
    if (result.failed != 0) return 1;
    print_result(result, per_layer_metrics());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
