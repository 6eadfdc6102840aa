// Shared plumbing for the perfbench workloads: the run options, the
// in-memory span tracer, sample statistics, resource readings and the
// per-layer ledger each workload fills.
//
// The tracer records spans only around calls the benchmark itself makes
// into the library's public functions; tracing inside the library is not
// this benchmark's business.  With tracing off a span scope is one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"

namespace perfbench {

namespace obs = spider::obs;

/// Thread and process counts the benchmark uses.  Every one is a fixed
/// constant: no count is derived from the machine's core count, because
/// a pool sized to the machine made session wall time spread 44 % between
/// runs on a shared 4-vCPU host.
constexpr unsigned kReplayThreads = 1;
/// verify::pipelined_config(kAuditJobs): one generator/signer worker plus
/// the checking main thread.
constexpr unsigned kAuditJobs = 1;
constexpr unsigned kAuditThreads = 1 + kAuditJobs;
/// The wire workload: this process (single-threaded load generator) plus
/// three single-threaded spider_node processes.
constexpr unsigned kWireNodeProcesses = 3;
constexpr unsigned kWireThreads = 1 + kWireNodeProcesses;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the self-test (perfbench/tests/selftest.py).
  bool tiny = false;
  /// Set-ups per run; setup_s is their median.  The last one is measured.
  int setups = 3;
  std::string node_bin;   // spider_node executable (wire workload)
  std::string work_dir;   // scratch files: node port files, spans output
};

double wall_now();
/// CPU time of this process (all threads).
double process_cpu_now();
/// Peak resident set of this process, in MB.
double self_peak_rss_mb();
/// Online CPUs this process may run on (sched_getaffinity).
unsigned available_cpus();

/// Sorted-sample percentile by the nearest-rank rule.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// One recorded span: name, start, end (seconds since the tracer's epoch)
/// and the index of the enclosing span (-1 at top level).
struct SpanRecord {
  const char* name;
  double start;
  double end;
  int parent;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void enable(bool on) { enabled_ = on; }
  Scope scope(const char* name) { return Scope(*this, name); }

  /// Spans are stored in start order; a mark taken before a phase
  /// selects the spans of that phase (the `since` arguments below).
  std::size_t mark() const { return spans_.size(); }

  /// Total duration of every span named `name` recorded since `since`.
  double total(const std::string& name, std::size_t since) const;
  /// Wall time covered by spans recorded since `since`, less the self time
  /// (duration minus direct children) of the `dispatch_names` spans: each
  /// instant counts once, at the innermost span that covers it.
  double attributed(const std::vector<std::string>& dispatch_names, std::size_t since) const;

  /// Writes every span as one JSON document.
  void write_json(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_ = false;
  double epoch_ = wall_now();
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

Tracer& tracer();

/// Counter deltas between two spider_obs snapshots.
struct ObsDelta {
  obs::Snapshot before;
  obs::Snapshot after;
  std::uint64_t counter(const std::string& name) const;
  std::int64_t gauge(const std::string& name) const;
  double span_wall(const std::string& name) const;
};
obs::Snapshot obs_snapshot();

/// What a workload hands back to the driver.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  /// Wall time of the timed phase (for trace.overhead_frac).
  double timed_wall = 0;
  /// Items the timed phase processed (its throughput denominator).
  double items = 0;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

/// Runs a workload: untraced, it reports the end-to-end metrics; traced,
/// the per-layer ledger.
Result run_replay(const Options& opt);
Result run_audit(const Options& opt);
Result run_wire(const Options& opt);

/// Names and units of every metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The per-layer metrics read from the library's own spider_obs counters
/// and spans over a timed phase of `wall` seconds (crypto and core).
void library_ledger(const ObsDelta& delta, double wall, std::map<std::string, double>& metrics);

/// Fills every per-layer metric a workload does not exercise with 0, so
/// each traced run reports the full ledger.
void complete_ledger(std::map<std::string, double>& metrics);

}  // namespace perfbench
