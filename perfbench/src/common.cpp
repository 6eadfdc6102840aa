#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::logic_error("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::logic_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ------------------------------------------------------------------ tracer

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  index_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back({name, wall_now() - tracer.epoch_, 0, tracer.current_});
  tracer.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  SpanRecord& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end = wall_now() - tracer_->epoch_;
  tracer_->current_ = span.parent;
}

double Tracer::total(const std::string& name, std::size_t since) const {
  double sum = 0;
  for (std::size_t i = since; i < spans_.size(); ++i) {
    if (name == spans_[i].name) sum += spans_[i].end - spans_[i].start;
  }
  return sum;
}

double Tracer::attributed(const std::vector<std::string>& dispatch_names,
                          std::size_t since) const {
  // Self times partition the time that top-level spans cover, so the sum
  // of every non-dispatch span's self time counts each instant once.
  std::vector<double> children(spans_.size(), 0.0);
  for (std::size_t i = since; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) children[static_cast<std::size_t>(parent)] += spans_[i].end - spans_[i].start;
  }
  double sum = 0;
  for (std::size_t i = since; i < spans_.size(); ++i) {
    const bool dispatch = std::find(dispatch_names.begin(), dispatch_names.end(),
                                    spans_[i].name) != dispatch_names.end();
    if (!dispatch) sum += spans_[i].end - spans_[i].start - children[i];
  }
  return sum;
}

void Tracer::write_json(const std::string& path, const std::string& workload) const {
  namespace json = obs::json;
  json::Array spans;
  for (const SpanRecord& span : spans_) {
    json::Object row;
    row["name"] = std::string(span.name);
    row["start_s"] = span.start;
    row["end_s"] = span.end;
    row["parent"] = static_cast<double>(span.parent);
    spans.push_back(std::move(row));
  }
  json::Object doc;
  doc["workload"] = workload;
  doc["spans"] = std::move(spans);
  std::ofstream out(path);
  out << json::Value(std::move(doc)).dump(0) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

// --------------------------------------------------------------------- obs

obs::Snapshot obs_snapshot() { return spider::obs::MetricsRegistry::instance().snapshot(); }

std::uint64_t ObsDelta::counter(const std::string& name) const {
  auto get = [&](const obs::Snapshot& snap) -> std::uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

std::int64_t ObsDelta::gauge(const std::string& name) const {
  auto it = after.gauges.find(name);
  return it == after.gauges.end() ? 0 : it->second;
}

double ObsDelta::span_wall(const std::string& name) const {
  auto get = [&](const obs::Snapshot& snap) -> double {
    auto it = snap.spans.find(name);
    return it == snap.spans.end() ? 0.0 : it->second.wall_seconds;
  };
  return get(after) - get(before);
}

// ----------------------------------------------------------------- metrics

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},         {"throughput_per_s", "1/s"}, {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},      {"bytes_per_item", "bytes"}, {"cpu_us_per_item", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"crypto.rsa_sign_ops", "count"},
      {"crypto.rsa_sign_bytes", "bytes"},
      {"crypto.rsa_verify_ops", "count"},
      {"crypto.rsa_verify_batched_frac", "ratio"},
      {"crypto.sha512_bytes_per_update", "bytes"},
      {"crypto.sha512_bytes_per_prefix", "bytes"},
      {"core.mtt_label_hashes_per_commit", "count"},
      {"core.mtt_label_frac", "ratio"},
      {"core.mtt_apply_frac", "ratio"},
      {"core.mtt_proofs_generated", "count"},
      {"core.mtt_proofs_verified", "count"},
      {"bgp.inject_busy_frac", "ratio"},
      {"bgp.decisions_per_update", "count"},
      {"netsim.events_per_update", "count"},
      {"netsim.run_busy_frac", "ratio"},
      {"spider.commit_busy_frac", "ratio"},
      {"spider.batches_signed_per_update", "count"},
      {"spider.batches_verified_per_update", "count"},
      {"spider.log_bytes_per_update", "bytes"},
      {"spider.reconstruct_frac", "ratio"},
      {"spider.node_wire_encode_frac", "ratio"},
      {"verify.session_frac", "ratio"},
      {"verify.reconstruct_share", "ratio"},
      {"verify.digest_ops_per_proof", "count"},
      {"verify.cache_hit_ratio", "ratio"},
      {"verify.rounds_per_session", "count"},
      {"verify.signature_batch_size", "count"},
      {"transport.send_frac", "ratio"},
      {"transport.bytes_per_update", "bytes"},
      {"transport.max_queued_bytes", "bytes"},
      {"transport.backpressure_rejects", "count"},
      {"wire.barrier_wait_frac", "ratio"},
      {"trace.generate_s", "s"},
      {"trace.attributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

void library_ledger(const ObsDelta& delta, double wall, std::map<std::string, double>& m) {
  auto count = [&](const char* name) { return static_cast<double>(delta.counter(name)); };
  const double verifies = count("crypto/rsa_verify_ops");
  m["crypto.rsa_sign_ops"] = count("crypto/rsa_sign_ops");
  m["crypto.rsa_sign_bytes"] = count("crypto/rsa_sign_bytes");
  m["crypto.rsa_verify_ops"] = verifies;
  m["crypto.rsa_verify_batched_frac"] =
      verifies > 0 ? count("crypto/rsa_verify_batch_items") / verifies : 0;
  m["core.mtt_label_frac"] = delta.span_wall("core/mtt_label") / wall;
  m["core.mtt_apply_frac"] = delta.span_wall("core/mtt_apply") / wall;
  m["core.mtt_proofs_generated"] = count("core/mtt_proofs_generated");
  m["core.mtt_proofs_verified"] = count("core/mtt_proofs_verified");
}

void complete_ledger(std::map<std::string, double>& metrics) {
  for (const auto& [name, unit] : per_layer_metrics()) metrics.emplace(name, 0.0);
}

}  // namespace perfbench
