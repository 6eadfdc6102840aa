// Scale and trace helpers for spider_bench's experiment scenarios.
//
// Scale is controlled by environment variables (spider_bench's --prefixes
// and --updates set the first two) so the full paper-scale run is one
// command away:
//   SPIDER_BENCH_PREFIXES  (default 20000; paper: 391028)
//   SPIDER_BENCH_UPDATES   (default scaled pro-rata; paper: 38696)
//   SPIDER_BENCH_FULL=1    shorthand for paper-scale prefixes/updates
#pragma once

#include <cctype>
#include <cerrno>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "spider/deployment.hpp"
#include "trace/routeviews.hpp"

namespace spider::benchutil {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  // strtoull silently yields 0 for garbage and wraps negatives; a typo'd
  // SPIDER_BENCH_PREFIXES must not quietly run a zero-size bench.
  const char* p = value;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(p, &end, 10);
  bool bad = *p == '-' || end == p || errno == ERANGE;
  if (end != nullptr) {
    while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end))) ++end;
    if (*end != '\0') bad = true;
  }
  if (bad) {
    std::fprintf(stderr, "warning: %s=\"%s\" is not a valid size; using default %zu\n", name,
                 value, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

inline bool full_scale() {
  const char* value = std::getenv("SPIDER_BENCH_FULL");
  return value && value[0] == '1';
}

struct BenchScale {
  std::size_t prefixes;
  std::size_t updates;
  double scale_factor;  // vs. the paper's 391,028-prefix table
};

inline BenchScale bench_scale(std::size_t default_prefixes = 20'000) {
  constexpr std::size_t kPaperPrefixes = 391'028;
  constexpr std::size_t kPaperUpdates = 38'696;
  std::size_t prefixes = full_scale() ? kPaperPrefixes
                                      : env_size("SPIDER_BENCH_PREFIXES", default_prefixes);
  std::size_t updates = env_size(
      "SPIDER_BENCH_UPDATES",
      std::max<std::size_t>(100, kPaperUpdates * prefixes / kPaperPrefixes));
  return {prefixes, updates, static_cast<double>(prefixes) / kPaperPrefixes};
}

inline trace::RouteViewsTrace bench_trace(const BenchScale& scale,
                                          netsim::Time duration = 15LL * 60 *
                                                                  netsim::kMicrosPerSecond) {
  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = scale.updates;
  config.duration = duration;
  config.seed = 20120118;  // the paper's trace collection date
  return trace::generate(config);
}

}  // namespace spider::benchutil
