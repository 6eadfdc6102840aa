// Process-wide metrics: named counters, gauges, and fixed-bucket
// histograms.
//
// Design goals (ISSUE 3 / ROADMAP "runs as fast as the hardware allows"):
// instrumented hot loops — the MTT labeler's worker threads hash millions
// of times per commitment, the netsim event loop dispatches every message
// — must pay ~one relaxed atomic add per event.  Counters and histograms
// therefore write to *thread-local shards*: each thread owns a private
// slot array and increments it with relaxed atomics (the atomicity is only
// needed so a concurrent snapshot() reading the slot is well-defined).
// snapshot() merges all live shards plus the retained totals of exited
// threads.  Gauges are point-in-time values ("current queue depth"), where
// last-writer-wins semantics want a single shared cell, so they are plain
// process-global atomics.
//
// Naming scheme: `<module>/<event>`, e.g. `crypto/rsa_sign_ops`,
// `core/mtt_label_hashes`, `netsim/bytes_sent` (see README.md
// "Observability & benchmarking").  Registering the same name twice
// returns the same metric; registering it as a different kind throws.
//
// Compile-time kill switch: building with -DSPIDER_OBS_DISABLED (CMake
// option SPIDER_OBS_DISABLED=ON) reduces every SPIDER_OBS_* macro to a
// no-op with zero residue in the instrumented code, so the library can
// prove its own overhead (spider_bench's labeling scenario with the switch
// on must be within noise of an uninstrumented build).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"

namespace spider::obs {

class MetricsRegistry;

/// Handle to a registered counter.  Cheap to copy; valid for the process
/// lifetime (the registry is never destroyed).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const;

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Handle to a registered gauge (a point-in-time int64 value).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t value) const;
  void add(std::int64_t delta) const;
  /// set(value) if value exceeds the current reading (high-water mark).
  void max(std::int64_t value) const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Handle to a registered fixed-bucket histogram over non-negative integer
/// values (microseconds for latencies, bytes for sizes).
class Histogram {
 public:
  Histogram() = default;
  void observe(std::uint64_t value) const;

 private:
  friend class MetricsRegistry;
  Histogram(std::uint32_t base_slot, const std::vector<std::uint64_t>* bounds)
      : base_slot_(base_slot), bounds_(bounds) {}
  std::uint32_t base_slot_ = 0;                   // bounds.size()+1 buckets, then sum, count
  const std::vector<std::uint64_t>* bounds_ = nullptr;
};

/// Default bucket boundaries (upper bounds, inclusive) for latencies in
/// microseconds: 10us .. 100s, roughly ×3 steps.
const std::vector<std::uint64_t>& latency_buckets_micros();
/// Default bucket boundaries for sizes in bytes: 64B .. 1GB, ×8 steps.
const std::vector<std::uint64_t>& size_buckets_bytes();

class MetricsRegistry {
 public:
  /// The process-wide registry.  Intentionally leaked so thread-local
  /// shards destroyed during late thread/process teardown can always
  /// deregister safely.
  static MetricsRegistry& instance();

  /// Registers (or looks up) a metric.  Thread-safe.  Throws
  /// std::logic_error if `name` is already registered as another kind or
  /// (for histograms) with different bounds.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, const std::vector<std::uint64_t>& bounds);

  /// Merges every live thread shard plus retained totals from exited
  /// threads into a coherent snapshot.  Counter sums are exact for all
  /// increments that happened-before the call.
  Snapshot snapshot();

  /// Zeroes every counter, gauge, histogram, and span aggregate.  Used by
  /// the bench runner to isolate per-scenario metric deltas.  Must not race
  /// with instrumented worker threads.
  void reset();

  // --- internal API for Span (see span.hpp) -----------------------------
  void record_span(const std::string& path, const std::string& parent, double wall_seconds,
                   double cpu_seconds, double child_wall_seconds);

  struct Impl;  // opaque; public only so the shard TLS machinery can name it

 private:
  MetricsRegistry();
  Impl* impl_;  // leaked with the registry

  friend class Counter;
  friend class Histogram;
};

}  // namespace spider::obs

// ------------------------------------------------------------------ macros
//
// Instrumentation sites use these macros exclusively, so that
// SPIDER_OBS_DISABLED builds compile them away entirely.  Each enabled
// site registers its metric once via a function-local static handle
// (thread-safe magic static) and then pays only the shard add.

#if defined(SPIDER_OBS_DISABLED)

#define SPIDER_OBS_COUNT(name, delta) ((void)0)
#define SPIDER_OBS_GAUGE_SET(name, value) ((void)0)
#define SPIDER_OBS_GAUGE_MAX(name, value) ((void)0)
#define SPIDER_OBS_HIST(name, value, bounds) ((void)0)

#else

#define SPIDER_OBS_COUNT(name, delta)                                        \
  do {                                                                       \
    static const ::spider::obs::Counter spider_obs_counter_ =                \
        ::spider::obs::MetricsRegistry::instance().counter(name);            \
    spider_obs_counter_.add(static_cast<std::uint64_t>(delta));              \
  } while (0)

#define SPIDER_OBS_GAUGE_SET(name, value)                                    \
  do {                                                                       \
    static const ::spider::obs::Gauge spider_obs_gauge_ =                    \
        ::spider::obs::MetricsRegistry::instance().gauge(name);              \
    spider_obs_gauge_.set(static_cast<std::int64_t>(value));                 \
  } while (0)

#define SPIDER_OBS_GAUGE_MAX(name, value)                                    \
  do {                                                                       \
    static const ::spider::obs::Gauge spider_obs_gauge_ =                    \
        ::spider::obs::MetricsRegistry::instance().gauge(name);              \
    spider_obs_gauge_.max(static_cast<std::int64_t>(value));                 \
  } while (0)

#define SPIDER_OBS_HIST(name, value, bounds)                                 \
  do {                                                                       \
    static const ::spider::obs::Histogram spider_obs_hist_ =                 \
        ::spider::obs::MetricsRegistry::instance().histogram(name, bounds);  \
    spider_obs_hist_.observe(static_cast<std::uint64_t>(value));             \
  } while (0)

#endif  // SPIDER_OBS_DISABLED
