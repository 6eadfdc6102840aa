// spider_bench — the benchmark runner for the E1–E13 experiments and the
// A1–A4 ablations.
//
// Each paper experiment is registered as a named scenario.  Running a
// scenario resets the metrics registry, executes the experiment at the
// configured scale, and emits one BENCH_<scenario>.json containing the
// scenario config, the paper's reference numbers, the measured results,
// and a full metrics snapshot (counters/gauges/histograms/spans) scoped
// to that scenario — the machine-readable trajectory that CI archives and
// DESIGN.md explains how to diff.  Each scenario also prints its rows.
//
//   spider_bench --list
//   spider_bench --all [--out-dir DIR] [--prefixes N] [--updates N]
//   spider_bench --scenario labeling --scenario proof --check-schema
//   spider_bench --all --baseline BENCH_baseline.json
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_schema.hpp"
#include "bench_util.hpp"
#include "bgp/policy.hpp"
#include "chaos/matrix.hpp"
#include "core/commitment.hpp"
#include "core/mtt.hpp"
#include "crypto/bignum_ref.hpp"
#include "crypto/mont.hpp"
#include "crypto/mont_kernel.hpp"
#include "crypto/rc4.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha2.hpp"
#include "crypto/sha2_multi.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "spider/checker.hpp"
#include "spider/proof_generator.hpp"
#include "spider/verification.hpp"
#include "verify/session.hpp"
#include "util/rng.hpp"
#include "util/timers.hpp"

using namespace spider;
namespace json = spider::obs::json;

namespace {

// ---------------------------------------------------------------------------
// JSON helpers

using benchutil::result_row;
using benchutil::validate_bench_json;

json::Object scale_config(const benchutil::BenchScale& scale) {
  json::Object config;
  config["prefixes"] = static_cast<std::uint64_t>(scale.prefixes);
  config["updates"] = static_cast<std::uint64_t>(scale.updates);
  config["scale_factor"] = scale.scale_factor;
  return config;
}

// ---------------------------------------------------------------------------
// Shared experiment plumbing

proto::DeploymentConfig deployment_config(bool commit_at_5, bool rsa) {
  proto::DeploymentConfig config;
  config.num_classes = 50;
  config.commit_ases = commit_at_5 ? std::set<bgp::AsNumber>{5} : std::set<bgp::AsNumber>{};
  if (rsa) config.scheme = proto::DeploymentConfig::SignScheme::kRsa;
  return config;
}

std::vector<std::pair<bgp::Prefix, std::vector<bool>>> snapshot_entries(
    const trace::RouteViewsTrace& tr, std::uint32_t k) {
  std::vector<std::pair<bgp::Prefix, std::vector<bool>>> entries;
  entries.reserve(tr.rib_snapshot.size());
  for (const auto& route : tr.rib_snapshot) {
    entries.emplace_back(route.prefix, std::vector<bool>(k, false));
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Scenarios.  Each returns {"config": {...}, "results": [...]}; the runner
// adds the envelope (schema/scenario/experiment/paper_ref/metrics).

json::Object run_communities(const benchutil::BenchScale&) {
  // E1 (Figure 2): synthetic 88-AS community-guide registry whose
  // marginals match the paper's table; recomputed via the policy model.
  std::size_t lp = 0, by_group = 0, by_as = 0, origin = 0;
  std::map<std::uint16_t, std::size_t> tiers;
  util::SplitMix64 rng(2012);
  for (std::uint16_t i = 0; i < 88; ++i) {
    std::uint16_t asn = static_cast<std::uint16_t>(64512 + i);
    if (i < 57) {
      std::uint16_t n = i < 2 ? 12 : (i < 30 ? 3 : static_cast<std::uint16_t>(2 + rng.below(4)));
      ++lp;
      tiers[n]++;
      for (std::uint16_t tier = 0; tier < n; ++tier) (void)bgp::lp_tier_community(asn, tier);
    }
    if (i % 2 == 0 || i >= 80) {
      ++by_group;
      (void)bgp::make_community(asn, 3000);
    }
    if (i < 45) {
      ++by_as;
      (void)bgp::no_export_to_community(7018);
    }
    if (i >= 43) {
      ++origin;
      (void)bgp::make_community(asn, 100);
    }
  }
  std::uint16_t mode = 0, max_tiers = 0;
  std::size_t mode_count = 0;
  for (const auto& [n, count] : tiers) {
    if (count > mode_count) {
      mode = n;
      mode_count = count;
    }
    max_tiers = std::max(max_tiers, n);
  }

  json::Object out;
  json::Object config;
  config["registry_ases"] = 88;
  out["config"] = std::move(config);
  json::Array results;
  results.push_back(result_row("set local preference", static_cast<double>(lp), "ASes", "57"));
  results.push_back(
      result_row("selective export by neighbor group", static_cast<double>(by_group), "ASes", "48"));
  results.push_back(
      result_row("selective export by specific AS", static_cast<double>(by_as), "ASes", "45"));
  results.push_back(
      result_row("information about route origin", static_cast<double>(origin), "ASes", "45"));
  results.push_back(result_row("local-pref tier mode", mode, "tiers", "3"));
  results.push_back(result_row("local-pref tier max", max_tiers, "tiers", "12"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_mtt_size(const benchutil::BenchScale& scale) {
  // E2 (§7.3 "MTT size"): node-count breakdown and memory of one table.
  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = 1;
  config.seed = 20120118;
  auto tr = trace::generate(config);
  auto tree = core::Mtt::build(snapshot_entries(tr, 50), 50);
  tree.compute_labels(crypto::CommitmentPrf(crypto::seed_from_string("mtt-size")));
  auto counts = tree.counts();

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("prefix nodes", static_cast<double>(counts.prefix), "nodes",
                               "389653 @ 391028 prefixes"));
  results.push_back(result_row("inner nodes", static_cast<double>(counts.inner), "nodes", "950372"));
  results.push_back(result_row("dummy nodes", static_cast<double>(counts.dummy), "nodes", "1511092"));
  results.push_back(result_row("bit nodes", static_cast<double>(counts.bit), "nodes", "19482650"));
  results.push_back(
      result_row("total nodes", static_cast<double>(counts.total()), "nodes", "22333767"));
  results.push_back(
      result_row("memory", static_cast<double>(tree.memory_bytes()), "bytes", "137.5 MB"));
  results.push_back(result_row("inner/prefix ratio",
                               static_cast<double>(counts.inner) / static_cast<double>(counts.prefix),
                               "ratio", "2.44"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_labeling(const benchutil::BenchScale& scale) {
  // E3 (§7.3 "Labeling time"): wall time and speed-up for c = 1..4.
  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = 1;
  config.seed = 20120118;
  auto tr = trace::generate(config);
  auto tree = core::Mtt::build(snapshot_entries(tr, 50), 50);
  crypto::CommitmentPrf prf(crypto::seed_from_string("labeling-bench"));

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["hardware_threads"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  out["config"] = std::move(cfg);
  json::Array results;
  double base = 0;
  for (unsigned c = 1; c <= 4; ++c) {
    util::WallTimer timer;
    tree.compute_labels(prf, c);
    double seconds = timer.seconds();
    if (c == 1) base = seconds;
    results.push_back(result_row("labeling wall time, c=" + std::to_string(c), seconds, "s",
                                 c == 1 ? "38.8 @ 391028 prefixes" : (c == 3 ? "13.4" : "-")));
    if (c > 1) {
      results.push_back(result_row("speedup, c=" + std::to_string(c), base / seconds, "x",
                                   c == 3 ? "2.9" : "-"));
    }
  }
  results.push_back(result_row("label hashes (last pass)",
                               static_cast<double>(tree.last_label_hashes()), "hashes", "-"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_proof(const benchutil::BenchScale& scale) {
  // E4/E5 (§7.3): reconstruction, proof generation/size, proof checking,
  // plus one extended verification session (challenge round-trips).
  auto tr = benchutil::bench_trace(scale, 60 * netsim::kMicrosPerSecond);
  proto::Fig5Deployment deploy(deployment_config(false, false));
  netsim::Time start = deploy.run_setup(tr, 120 * netsim::kMicrosPerSecond);
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();

  proto::ProofGenerator generator(deploy.recorder(5));
  util::WallTimer recon_timer;
  auto recon = generator.reconstruct(record.timestamp);
  double recon_seconds = recon_timer.seconds();

  util::WallTimer gen_timer;
  std::size_t total_bytes = 0, neighbors = 0;
  for (bgp::AsNumber neighbor : deploy.neighbors_of(5)) {
    total_bytes += generator.proofs_for_producer(recon, neighbor).total_bytes();
    total_bytes += generator.proofs_for_consumer(recon, neighbor).total_bytes();
    ++neighbors;
  }
  double gen_seconds = gen_timer.seconds();

  // Single-prefix promise ("my shortest route to Google"): one prefix's
  // proof, opened for the best class only.
  const bgp::Prefix single = *recon.state.all_prefixes().begin();
  util::WallTimer single_timer;
  const auto single_proof = recon.tree.prove(crypto::CommitmentPrf(recon.seed), single, {0});
  double single_seconds = single_timer.seconds();

  auto proofs = generator.proofs_for_consumer(recon, 6);
  auto commit = deploy.recorder(6).received_commitments().at(5).at(record.timestamp);
  const auto expected = proto::Checker::expectation(deploy.recorder(6), 5);
  util::WallTimer check_timer;
  auto detection = proto::Checker::check_consumer_proofs(
      commit, 5, core::Promise::total_order(50), expected.imports, proofs, 6,
      deploy.recorder(6).classifier());
  double check_seconds = check_timer.seconds();

  // The full verification pipeline (extended => RE-ANNOUNCE round-trips).
  auto report = verify::run_session(deploy, 5, record.timestamp, {}, /*extended=*/true).report;

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("MTT reconstruction", recon_seconds, "s", "13.4"));
  results.push_back(result_row("proof generation, 5 neighbors", gen_seconds, "s", "70.2"));
  results.push_back(result_row("average proof size per neighbor",
                               static_cast<double>(total_bytes / neighbors), "bytes", "449 MB"));
  results.push_back(result_row("single-prefix proof generation", single_seconds, "s",
                               "0.431 (after reconstruction)"));
  results.push_back(result_row("single-prefix proof size",
                               static_cast<double>(single_proof.byte_size()), "bytes", "2.1 kB"));
  results.push_back(result_row("proof checking, one neighbor", check_seconds, "s", "27 (8.6-40)"));
  results.push_back(result_row("root matches commitment", recon.root_matches ? 1 : 0, "bool", "1"));
  results.push_back(
      result_row("consumer check clean", detection ? 0 : 1, "bool", "1 (no violation)"));
  results.push_back(result_row("full verification clean", report.clean() ? 1 : 0, "bool", "1"));
  results.push_back(
      result_row("full verification proof bytes", static_cast<double>(report.proof_bytes), "bytes",
                 "~2.2 GB @ paper scale"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_functionality(const benchutil::BenchScale& scale) {
  // E6 (§7.4): clean control run + three injected faults, each detected
  // by the predicted neighbor.  Consumers check against the promise the
  // elector made them.
  trace::TraceConfig tconfig;
  tconfig.num_prefixes = std::min<std::size_t>(scale.prefixes, 2000);
  tconfig.num_updates = 500;
  tconfig.duration = 60 * netsim::kMicrosPerSecond;
  tconfig.seed = 20120118;
  auto tr = trace::generate(tconfig);

  auto run_case = [&](const char* label, bool expect_detection,
                      const std::function<void(proto::Fig5Deployment&)>& inject,
                      const std::function<void(proto::ProofGenerator&)>& tamper,
                      json::Array& results) {
    proto::Fig5Deployment deploy(deployment_config(false, false));
    if (inject) inject(deploy);
    auto start = deploy.run_setup(tr, 60 * netsim::kMicrosPerSecond);
    deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
    const auto& record = deploy.recorder(5).make_commitment();
    deploy.sim().run();
    if (tamper) tamper(deploy.proof_generator(5));
    const bool detected = !verify::run_session(deploy, 5, record.timestamp, {}).report.clean();
    results.push_back(result_row(label, detected == expect_detection ? 1 : 0, "bool", "1"));
    return detected == expect_detection;
  };

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["prefixes"] = static_cast<std::uint64_t>(tconfig.num_prefixes);
  out["config"] = std::move(cfg);
  json::Array results;
  bool ok = true;
  ok &= run_case("control run stays clean", false, nullptr, nullptr, results);
  ok &= run_case("overaggressive filter detected", true,
                 [](proto::Fig5Deployment& deploy) {
                   deploy.speaker(5).inject_import_filter_fault(2);
                   deploy.recorder(5).faults().ignore_inputs = {2};
                 },
                 nullptr, results);
  ok &= run_case("wrongly exporting detected", true,
                 [](proto::Fig5Deployment& deploy) {
                   // Routes of 3+ hops are promised never to be exported to AS 6.
                   core::Promise never_long(50);
                   never_long.add_preference(0, 1);
                   for (core::ClassId cls = 2; cls < 49; ++cls) never_long.add_preference(49, cls);
                   never_long.add_preference(1, 49);
                   deploy.recorder(5).set_promise(6, never_long);
                 },
                 nullptr, results);
  ok &= run_case("tampered bit proof detected", true, nullptr,
                 [](proto::ProofGenerator& generator) { generator.faults().tamper_classes = {0}; },
                 results);
  results.push_back(result_row("all outcomes as paper predicts", ok ? 1 : 0, "bool", "1"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_computation(const benchutil::BenchScale& scale) {
  // E7 (§7.5): recorder CPU split at AS 5 during the replay period.
  auto tr = benchutil::bench_trace(scale);
  proto::Fig5Deployment deploy(deployment_config(true, true));
  const netsim::Time setup = 30LL * 60 * netsim::kMicrosPerSecond;
  const netsim::Time replay = 15LL * 60 * netsim::kMicrosPerSecond;
  netsim::Time start = deploy.run_setup(tr, setup);

  const auto& recorder = deploy.recorder(5);
  double sign0 = recorder.sign_cpu_seconds();
  double mtt0 = recorder.mtt_cpu_seconds();
  double total0 = recorder.total_cpu_seconds();
  std::uint64_t sigs0 = recorder.signatures_performed() + recorder.verifications_performed();
  std::uint64_t commits0 = recorder.commitments_made();

  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);

  double sign_cpu = recorder.sign_cpu_seconds() - sign0;
  double mtt_cpu = recorder.mtt_cpu_seconds() - mtt0;
  double total_cpu = recorder.total_cpu_seconds() - total0;
  double other_cpu = std::max(0.0, total_cpu - sign_cpu - mtt_cpu);
  std::uint64_t sig_ops =
      recorder.signatures_performed() + recorder.verifications_performed() - sigs0;
  std::uint64_t commits = recorder.commitments_made() - commits0;
  double replay_minutes = static_cast<double>(replay) / (60.0 * netsim::kMicrosPerSecond);

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("replay-period recorder CPU", total_cpu, "s", "634.5"));
  results.push_back(result_row("signatures+verifications CPU", sign_cpu, "s", "9.75"));
  results.push_back(
      result_row("sign/verify operations", static_cast<double>(sig_ops), "ops", "3913"));
  results.push_back(result_row("MTT generation CPU", mtt_cpu, "s", "519"));
  results.push_back(result_row("MTT commitments", static_cast<double>(commits), "count", "13"));
  results.push_back(result_row("other (RIB maintenance)", other_cpu, "s", "105.75"));
  results.push_back(result_row("single-core utilization",
                               100.0 * total_cpu / (replay_minutes * 60.0), "%", "81.3"));
  results.push_back(result_row("MTT share of recorder CPU",
                               total_cpu > 0 ? 100.0 * mtt_cpu / total_cpu : 0, "%", "82"));
  results.push_back(result_row("NetReview-equivalent CPU", total_cpu - mtt_cpu, "s", "115.5"));
  results.push_back(result_row("SPIDeR / NetReview CPU ratio",
                               total_cpu > mtt_cpu ? total_cpu / (total_cpu - mtt_cpu) : 0, "x",
                               "~5"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_bandwidth(const benchutil::BenchScale& scale) {
  // E8 (§7.6): BGP vs SPIDeR bytes on AS 5's links, plus verification
  // traffic from real proof sizes.
  auto tr = benchutil::bench_trace(scale);
  proto::Fig5Deployment deploy(deployment_config(true, true));
  const netsim::Time setup = 30LL * 60 * netsim::kMicrosPerSecond;
  const netsim::Time replay = 15LL * 60 * netsim::kMicrosPerSecond;
  netsim::Time start = deploy.run_setup(tr, setup);

  std::uint64_t bgp0 = deploy.bgp_bytes(5);
  std::uint64_t spider0 = deploy.spider_bytes(5);
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  std::uint64_t bgp_bytes = deploy.bgp_bytes(5) - bgp0;
  std::uint64_t spider_bytes = deploy.spider_bytes(5) - spider0;
  double seconds = static_cast<double>(replay) / netsim::kMicrosPerSecond;
  double bgp_kbps = 8.0 * static_cast<double>(bgp_bytes) / seconds / 1000.0;
  double spider_kbps = 8.0 * static_cast<double>(spider_bytes) / seconds / 1000.0;

  const auto& record = deploy.recorder(5).log().commitments().rbegin()->second;
  proto::ProofGenerator generator(deploy.recorder(5));
  auto recon = generator.reconstruct(record.timestamp);
  std::uint64_t proof_bytes = 0;
  for (bgp::AsNumber neighbor : deploy.neighbors_of(5)) {
    proof_bytes += generator.proofs_for_producer(recon, neighbor).total_bytes();
    proof_bytes += generator.proofs_for_consumer(recon, neighbor).total_bytes();
  }

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(result_row("BGP traffic", bgp_kbps, "kbps", "11.8"));
  results.push_back(result_row("SPIDeR traffic", spider_kbps, "kbps", "32.6"));
  results.push_back(result_row(
      "relative increase", bgp_kbps > 0 ? 100.0 * (spider_kbps - bgp_kbps) / bgp_kbps : 0, "%",
      "176"));
  results.push_back(result_row("proof bytes per full verification",
                               static_cast<double>(proof_bytes), "bytes", "~2.2 GB"));
  results.push_back(result_row("verifying 1%/min of commitments",
                               8.0 * static_cast<double>(proof_bytes) * 0.01 / 60.0 / 1e6, "Mbps",
                               "3.0"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_storage(const benchutil::BenchScale& scale) {
  // E9 (§7.7): log growth, signature share, snapshot size, seed-only
  // commitment cost, 1-year retention estimate.
  auto tr = benchutil::bench_trace(scale);
  proto::Fig5Deployment deploy(deployment_config(true, true));
  const netsim::Time setup = 30LL * 60 * netsim::kMicrosPerSecond;
  const netsim::Time replay = 15LL * 60 * netsim::kMicrosPerSecond;
  netsim::Time start = deploy.run_setup(tr, setup);

  const auto& log = deploy.recorder(5).log();
  std::uint64_t msg0 = log.message_bytes();
  std::uint64_t sig0 = log.signature_bytes();
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  std::uint64_t msg_bytes = log.message_bytes() - msg0;
  std::uint64_t sig_bytes = log.signature_bytes() - sig0;
  double minutes = static_cast<double>(replay) / (60.0 * netsim::kMicrosPerSecond);
  auto snapshot = deploy.recorder(5).state().serialize();
  std::uint64_t commits = log.commitments().size();

  double year_log = static_cast<double>(msg_bytes) / minutes * 60.0 * 24.0 * 365.0;
  double year_snapshots = static_cast<double>(snapshot.size()) * 365.0;
  double year_commits = 32.0 * (365.0 * 24.0 * 60.0);

  json::Object out;
  out["config"] = scale_config(scale);
  json::Array results;
  results.push_back(
      result_row("replay-period log growth", static_cast<double>(msg_bytes), "bytes", "2.95 MB"));
  results.push_back(result_row("log growth rate",
                               static_cast<double>(msg_bytes) / 1000.0 / minutes, "kB/min",
                               "232.3"));
  results.push_back(result_row(
      "signature share",
      msg_bytes ? 100.0 * static_cast<double>(sig_bytes) / static_cast<double>(msg_bytes) : 0, "%",
      "24.4"));
  results.push_back(result_row("routing-state snapshot", static_cast<double>(snapshot.size()),
                               "bytes", "94.1 MB"));
  results.push_back(result_row("commitments stored", static_cast<double>(commits), "count", "13"));
  results.push_back(result_row(
      "bytes per commitment",
      commits ? static_cast<double>(log.commitment_bytes()) / static_cast<double>(commits) : 0,
      "bytes", "32"));
  results.push_back(
      result_row("1-year retention estimate", year_log + year_snapshots + year_commits, "bytes",
                 "145.7 GB"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_crypto(const benchutil::BenchScale&) {
  // E10: primitive costs (plain timed loops).
  json::Array results;

  {
    util::Bytes data(65536);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    const int iters = 64;
    util::WallTimer timer;
    for (int i = 0; i < iters; ++i) (void)crypto::Sha512::hash(data);
    double mbps = static_cast<double>(data.size()) * iters / timer.seconds() / 1e6;
    results.push_back(result_row("SHA-512 throughput (64 KiB blocks)", mbps, "MB/s", "-"));
  }
  {
    util::Bytes input(60, 0xab);  // inner-node hash shape: 3 x 20-byte labels
    const int iters = 50'000;
    util::WallTimer timer;
    for (int i = 0; i < iters; ++i) {
      input[0] = static_cast<std::uint8_t>(i);
      (void)crypto::digest20(input);
    }
    results.push_back(
        result_row("digest20 (MTT label input)", timer.seconds() * 1e6 / iters, "us/op", "-"));
  }
  {
    // Multi-lane SHA-512 batcher vs one-at-a-time hashing over the PRF
    // message shape (41 bytes: 32-byte seed + domain byte + 8-byte index).
    const std::size_t batch = 4096;
    std::vector<util::Bytes> msgs(batch, util::Bytes(41));
    for (std::size_t i = 0; i < batch; ++i) {
      for (std::size_t j = 0; j < 41; ++j) {
        msgs[i][j] = static_cast<std::uint8_t>(i * 41 + j * 13 + 5);
      }
    }
    std::vector<util::ByteSpan> spans;
    spans.reserve(batch);
    for (const auto& m : msgs) spans.emplace_back(m.data(), m.size());
    std::vector<crypto::Sha512::Digest> out(batch);
    const int iters = 32;
    util::WallTimer scalar_timer;
    for (int i = 0; i < iters; ++i) {
      for (std::size_t j = 0; j < batch; ++j) out[j] = crypto::Sha512::hash(spans[j]);
    }
    const double scalar_dps = static_cast<double>(batch) * iters / scalar_timer.seconds();
    util::WallTimer lane_timer;
    for (int i = 0; i < iters; ++i) crypto::sha512_batch(spans.data(), batch, out.data());
    const double lane_dps = static_cast<double>(batch) * iters / lane_timer.seconds();
    results.push_back(result_row("SHA-512 digests/s (41 B, 1 lane)", scalar_dps, "ops/s", "-"));
    results.push_back(result_row("SHA-512 digests/s (41 B, " +
                                     std::to_string(crypto::sha512_lanes()) + " lanes)",
                                 lane_dps, "ops/s", "-"));
    results.push_back(result_row("SHA-512 lane speedup", lane_dps / scalar_dps, "x", "-"));
  }
  {
    util::SplitMix64 rng(42);
    auto key = crypto::rsa_generate(1024, rng);
    util::Bytes msg(256, 0x5a);
    const int sign_iters = 200;
    util::WallTimer sign_timer;
    util::Bytes sig;
    for (int i = 0; i < sign_iters; ++i) sig = crypto::rsa_sign(key, msg);
    const double sign_ops = sign_iters / sign_timer.seconds();
    results.push_back(result_row("RSA-1024 sign (Montgomery+CRT)", sign_ops, "ops/s",
                                 "~400 (2.5 ms/op, paper-era hardware)"));
    const int ref_iters = 20;
    util::WallTimer ref_timer;
    util::Bytes ref_sig;
    for (int i = 0; i < ref_iters; ++i) ref_sig = crypto::ref::rsa_sign_seed(key, msg);
    const double ref_ops = ref_iters / ref_timer.seconds();
    if (ref_sig != sig) std::abort();  // engines must agree before we compare speeds
    results.push_back(result_row("RSA-1024 sign (seed 32-bit engine)", ref_ops, "ops/s", "-"));
    results.push_back(result_row("RSA sign speedup vs seed engine", sign_ops / ref_ops, "x", "-"));
    // spider-taint: declassify(the public half (n, e) is published by design)
    auto pub = key.public_key();
    const int verify_iters = 2000;
    util::WallTimer verify_timer;
    for (int i = 0; i < verify_iters; ++i) (void)crypto::rsa_verify(pub, msg, sig);
    results.push_back(
        result_row("RSA-1024 verify", verify_iters / verify_timer.seconds(), "ops/s", "-"));
  }
  {
    // The 512-bit Montgomery multiply behind both RSA-1024 CRT halves:
    // each kernel runs a dependent chain (x = x*b), interleaved with the
    // other over several repeats; the minimum per kernel is reported, as
    // the host's clock drifts between repeats.
    util::SplitMix64 rng(5122012);
    crypto::BigInt n = crypto::BigInt::random_bits(512, rng);
    if ((n % crypto::BigInt{2}).is_zero()) n = n + crypto::BigInt{1};
    auto limbs8 = [](const crypto::BigInt& v) {
      std::vector<crypto::limb_t> out = v.limbs();
      out.resize(8, 0);
      return out;
    };
    const std::vector<crypto::limb_t> nl = limbs8(n);
    const std::vector<crypto::limb_t> b = limbs8(crypto::BigInt::random_bits(512, rng) % n);
    const std::vector<crypto::limb_t> a = limbs8(crypto::BigInt::random_bits(512, rng) % n);
    const crypto::limb_t n0 = crypto::detail::mont_n0(nl[0]);
    using Kernel = void (*)(const crypto::limb_t*, const crypto::limb_t*, const crypto::limb_t*,
                            crypto::limb_t, crypto::limb_t*);
    const bool adx = crypto::detail::mont_mul8_adx_supported();
    const int chain = 20'000;
    auto time_chain = [&](Kernel kernel, std::vector<crypto::limb_t>& x) {
      x = a;
      util::WallTimer timer;
      for (int i = 0; i < chain; ++i) kernel(x.data(), b.data(), nl.data(), n0, x.data());
      return timer.seconds() * 1e9 / chain;
    };
    double adx_ns = std::numeric_limits<double>::infinity();
    double portable_ns = std::numeric_limits<double>::infinity();
    std::vector<crypto::limb_t> x_adx, x_portable;
    for (int rep = 0; rep < 5; ++rep) {
      if (adx) adx_ns = std::min(adx_ns, time_chain(crypto::detail::mont_mul8_adx, x_adx));
      portable_ns =
          std::min(portable_ns, time_chain(crypto::detail::mont_mul8_portable, x_portable));
    }
    if (adx) {
      if (x_adx != x_portable) std::abort();  // kernels must agree before we compare speeds
      results.push_back(result_row("Montgomery mul 512-bit (ADX)", adx_ns, "ns/op", "-"));
    }
    results.push_back(result_row("Montgomery mul 512-bit (portable)", portable_ns, "ns/op", "-"));
  }
  {
    // Bare 1024-bit modular exponentiation: windowed Montgomery vs the seed
    // 32-bit square-and-multiply ladder (full-width exponent).
    util::SplitMix64 rng(20120813);
    crypto::BigInt n = crypto::BigInt::random_bits(1024, rng);
    if ((n % crypto::BigInt{2}).is_zero()) n = n + crypto::BigInt{1};
    const crypto::BigInt base = crypto::BigInt::random_bits(1024, rng) % n;
    const crypto::BigInt e = crypto::BigInt::random_bits(1024, rng);
    const crypto::MontCtx ctx(n);
    const int fast_iters = 100;
    util::WallTimer fast_timer;
    crypto::BigInt fast_out;
    for (int i = 0; i < fast_iters; ++i) fast_out = ctx.exp(base, e);
    results.push_back(result_row("modexp-1024 (Montgomery window)",
                                 fast_timer.seconds() * 1e6 / fast_iters, "us/op", "-"));
    const int ref_iters = 5;
    util::WallTimer ref_timer;
    crypto::BigInt ref_out;
    for (int i = 0; i < ref_iters; ++i) ref_out = crypto::ref::mod_exp32(base, e, n);
    if (ref_out != fast_out) std::abort();
    results.push_back(result_row("modexp-1024 (seed 32-bit engine)",
                                 ref_timer.seconds() * 1e6 / ref_iters, "us/op", "-"));
  }
  {
    // The paper's sequential CSPRNG (§7.1): key schedule plus the 3072
    // dropped keystream bytes, paid once per commitment seed.
    const crypto::Seed seed = crypto::seed_from_string("rc4-bench");
    const int iters = 2'000;
    util::WallTimer timer;
    volatile std::uint8_t sink = 0;  // keeps the setups observable
    for (int i = 0; i < iters; ++i) {
      crypto::Rc4Csprng csprng(seed.span());
      std::uint8_t byte = 0;
      csprng.fill(&byte, 1);
      sink = static_cast<std::uint8_t>(sink ^ byte);
    }
    results.push_back(
        result_row("RC4-drop[3072] CSPRNG setup", timer.seconds() * 1e6 / iters, "us/op", "-"));
  }
  {
    crypto::CommitmentPrf prf(crypto::seed_from_string("bench"));
    const int iters = 100'000;
    util::WallTimer timer;
    for (int i = 0; i < iters; ++i) {
      (void)prf.derive3(crypto::CommitmentPrf::Domain::kBit, static_cast<std::uint64_t>(i));
    }
    results.push_back(result_row("commitment PRF derive3 (per triple)",
                                 timer.seconds() * 1e6 / iters, "us/op", "-"));
  }
  {
    trace::TraceConfig config;
    config.num_prefixes = 2000;
    config.num_updates = 1;
    config.seed = 7;
    auto tr = trace::generate(config);
    auto tree = core::Mtt::build(snapshot_entries(tr, 50), 50);
    crypto::CommitmentPrf prf(crypto::seed_from_string("mtt-bench"));
    util::WallTimer label_timer;
    tree.compute_labels(prf);
    results.push_back(result_row("MTT labeling digests/s",
                                 static_cast<double>(tree.last_label_hashes()) /
                                     label_timer.seconds(),
                                 "ops/s", "-"));
    std::vector<core::ClassId> all_better;
    for (core::ClassId c = 0; c < 49; ++c) all_better.push_back(c);
    const auto& prefix = tr.rib_snapshot.front().prefix;
    const int iters = 200;
    util::WallTimer prove_timer;
    core::MttPrefixProof proof;
    for (int i = 0; i < iters; ++i) proof = tree.prove(prf, prefix, all_better);
    results.push_back(
        result_row("MTT prove (49 classes)", prove_timer.seconds() * 1e6 / iters, "us/op", "-"));
    auto root = tree.root_label();
    util::WallTimer verify_timer;
    for (int i = 0; i < iters; ++i) (void)core::Mtt::verify(root, 50, proof);
    results.push_back(
        result_row("MTT verify (49 classes)", verify_timer.seconds() * 1e6 / iters, "us/op", "-"));
  }

  json::Object out;
  json::Object config;
  config["note"] = "fixed micro-iteration counts; independent of --prefixes";
  out["config"] = std::move(config);
  out["results"] = std::move(results);
  return out;
}

json::Object run_ablation(const benchutil::BenchScale& scale) {
  // A1-A4 (DESIGN.md design-choice index):
  //  A1 — indifference-class count k: MTT cost scales with N*k, so the
  //       paper's k=50 is a deliberately conservative upper bound (§7.2).
  //  A2 — signature batching window (the Nagle knob of §6.2): shorter
  //       windows mean fresher announcements but more signatures.
  //  A3 — commitment interval: the paper's 60 s vs the 15 s it argues is
  //       achievable (§7.3).
  //  A4 — digest truncation: 20-byte vs full 64-byte SHA-512 labels; the
  //       per-hash cost is width-independent, so the savings are space.
  trace::TraceConfig config;
  config.num_prefixes = std::min<std::size_t>(scale.prefixes, 20'000);
  config.num_updates = 1;
  config.seed = 20120118;
  auto tr = trace::generate(config);

  json::Array results;
  for (std::uint32_t k : {5u, 10u, 25u, 50u, 100u}) {
    auto tree = core::Mtt::build(snapshot_entries(tr, k), k);
    crypto::CommitmentPrf prf(crypto::seed_from_string("ablate-k"));
    util::WallTimer timer;
    tree.compute_labels(prf);
    double label_s = timer.seconds();
    auto proof = tree.prove(prf, tr.rib_snapshot.front().prefix, {0});
    std::string suffix = " (k=" + std::to_string(k) + ")";
    results.push_back(result_row("labeling time" + suffix, label_s, "s", "-"));
    results.push_back(result_row("MTT memory" + suffix, static_cast<double>(tree.memory_bytes()),
                                 "bytes", "-"));
    results.push_back(result_row("single-prefix proof size" + suffix,
                                 static_cast<double>(proof.byte_size()), "bytes",
                                 k == 50 ? "~2.1 kB" : "-"));
  }

  // A2/A3 run whole Figure-5 deployments, so they use a smaller table (at
  // most 5,000 prefixes, updates pro-rata).
  const std::size_t deploy_prefixes = std::min<std::size_t>(scale.prefixes, 5'000);
  const benchutil::BenchScale deploy_scale{
      deploy_prefixes, std::max<std::size_t>(100, deploy_prefixes * 3 / 25),
      static_cast<double>(deploy_prefixes) / 391'028};
  // Replays `dtr` through a Figure-5 deployment and hands AS 5's recorder
  // to `report`.
  auto replay_as5 = [](const trace::RouteViewsTrace& dtr, const proto::DeploymentConfig& dconfig,
                       auto&& report) {
    proto::Fig5Deployment deploy(dconfig);
    auto start = deploy.run_setup(dtr, 60 * netsim::kMicrosPerSecond);
    deploy.run_replay(dtr, start, 5 * netsim::kMicrosPerSecond);
    report(deploy.recorder(5));
  };
  const auto window_trace = benchutil::bench_trace(deploy_scale, 120 * netsim::kMicrosPerSecond);
  for (netsim::Time window : {netsim::Time{1'000}, netsim::Time{10'000}, netsim::Time{50'000},
                              netsim::Time{200'000}, netsim::Time{1'000'000}}) {
    proto::DeploymentConfig dconfig = deployment_config(false, false);
    dconfig.batch_window = window;
    replay_as5(window_trace, dconfig, [&](const proto::Recorder& recorder) {
      const double mirrored = static_cast<double>(recorder.updates_mirrored());
      results.push_back(result_row(
          "signatures per update (window " + std::to_string(window / 1000) + " ms)",
          mirrored > 0 ? static_cast<double>(recorder.signatures_performed()) / mirrored : 0,
          "sig/update", window == 50'000 ? "~0.1 (3,913 sigs / 38,696 updates)" : "-"));
    });
  }
  const auto interval_trace = benchutil::bench_trace(deploy_scale, 240 * netsim::kMicrosPerSecond);
  for (netsim::Time interval :
       {15 * netsim::kMicrosPerSecond, 30 * netsim::kMicrosPerSecond,
        60 * netsim::kMicrosPerSecond, 120 * netsim::kMicrosPerSecond}) {
    proto::DeploymentConfig dconfig = deployment_config(true, false);
    dconfig.commit_interval = interval;
    replay_as5(interval_trace, dconfig, [&](const proto::Recorder& recorder) {
      const std::string suffix =
          " (interval " + std::to_string(interval / netsim::kMicrosPerSecond) + " s)";
      results.push_back(result_row("commitments" + suffix,
                                   static_cast<double>(recorder.commitments_made()), "count", "-"));
      results.push_back(result_row("MTT CPU" + suffix, recorder.mtt_cpu_seconds(), "s",
                                   interval == 15 * netsim::kMicrosPerSecond
                                       ? "'a commitment every 15 seconds' is affordable"
                                       : "-"));
    });
  }

  const double paper_nodes = 22'333'767.0;
  results.push_back(result_row("label storage @ paper scale, 20 B digests", paper_nodes * 20,
                               "bytes", "~447 MB"));
  results.push_back(result_row("label storage @ paper scale, 64 B digests", paper_nodes * 64,
                               "bytes", "~1.43 GB (3.2x)"));

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["prefixes"] = static_cast<std::uint64_t>(config.num_prefixes);
  cfg["deployment_prefixes"] = static_cast<std::uint64_t>(deploy_scale.prefixes);
  cfg["deployment_updates"] = static_cast<std::uint64_t>(deploy_scale.updates);
  out["config"] = std::move(cfg);
  out["results"] = std::move(results);
  return out;
}

json::Object run_chaos(const benchutil::BenchScale& scale) {
  // E11: the spider_chaos detection matrix at bench scale — every cataloged
  // misbehavior on the clean profile plus two seeds of each benign fault
  // profile.  The paper's claim (§5, §7.4) is qualitative: misbehavior is
  // always detected with the right fault class, benign faults never accuse
  // anyone; the matrix measures exactly those two numbers.
  chaos::MatrixOptions options;
  options.benign_seeds = {1, 2};
  options.byzantine_profiles = {"clean"};
  options.num_prefixes = std::min<std::size_t>(scale.prefixes, 60);
  options.num_updates = std::min<std::size_t>(scale.updates, 40);
  const chaos::MatrixReport report = chaos::run_matrix(options);

  std::size_t byzantine_cells = 0, byzantine_detected = 0, benign_cells = 0;
  netsim::FaultCounts faults;
  std::uint64_t partition_drops = 0, detections = 0;
  for (const chaos::CellResult& cell : report.cells) {
    if (cell.expected == core::FaultKind::kNone) {
      ++benign_cells;
    } else {
      ++byzantine_cells;
      if (cell.pass) ++byzantine_detected;
    }
    detections += cell.detections.size();
    faults.dropped += cell.faults.dropped;
    faults.duplicated += cell.faults.duplicated;
    faults.delayed += cell.faults.delayed;
    faults.corrupted += cell.faults.corrupted;
    partition_drops += cell.partition_drops;
  }

  json::Object out;
  json::Object config;
  config["catalog_entries"] = static_cast<std::uint64_t>(chaos::catalog().size());
  config["benign_profiles"] = static_cast<std::uint64_t>(chaos::benign_profiles().size());
  config["cells"] = static_cast<std::uint64_t>(report.cells.size());
  config["prefixes"] = static_cast<std::uint64_t>(options.num_prefixes);
  config["updates"] = static_cast<std::uint64_t>(options.num_updates);
  out["config"] = std::move(config);

  json::Array results;
  results.push_back(result_row("byzantine cells detected with declared class",
                               static_cast<double>(byzantine_detected), "cells",
                               std::to_string(byzantine_cells) + " (all)"));
  results.push_back(result_row("byzantine cells missing their fault class",
                               static_cast<double>(report.missed_detections()), "cells", "0"));
  results.push_back(result_row("benign cells with false positives",
                               static_cast<double>(report.false_positives()), "cells", "0"));
  results.push_back(result_row("benign cells swept", static_cast<double>(benign_cells), "cells", "-"));
  results.push_back(result_row("detections raised", static_cast<double>(detections), "detections", "-"));
  results.push_back(result_row("injected drops", static_cast<double>(faults.dropped), "messages", "-"));
  results.push_back(
      result_row("injected duplicates", static_cast<double>(faults.duplicated), "messages", "-"));
  results.push_back(result_row("injected jitter delays", static_cast<double>(faults.delayed),
                               "messages", "-"));
  results.push_back(result_row("injected corruptions", static_cast<double>(faults.corrupted),
                               "messages", "-"));
  results.push_back(result_row("partition drops", static_cast<double>(partition_drops), "messages",
                               "-"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_fullscale(const benchutil::BenchScale& scale) {
  // E12: the recorder's commit under the paper's replay workload.  Build
  // the full table once, then feed 15 one-minute rounds of bursty updates
  // through the commit spider/recorder.cpp makes: a structure-only
  // Mtt::apply, then a full compute_labels under the round's fresh seed
  // (§6.5).  Two trees commit side by side at c=1 and c=4 and must agree
  // on every root; the last round's root is checked against a fresh build.
  // §7.3's labeling times are the paper's cost of the same commit.
  constexpr std::uint32_t k = 50;
  constexpr int kRounds = 15;
  constexpr std::array<unsigned, 2> kThreads{1, 4};

  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = scale.updates;
  config.duration = 15LL * 60 * netsim::kMicrosPerSecond;
  config.seed = 20120118;
  auto tr = trace::generate(config);

  // Deterministic per-(prefix, version) bit vectors so re-announcements
  // actually change the tree instead of no-op'ing.
  auto bits_for = [](const bgp::Prefix& prefix, std::uint64_t version) {
    util::SplitMix64 rng((static_cast<std::uint64_t>(prefix.bits()) << 16) ^
                         (static_cast<std::uint64_t>(prefix.length()) << 8) ^ version);
    std::vector<bool> bits(k, false);
    bits[0] = true;  // the always-available ⊥ class
    for (std::uint32_t c = 1; c < k; ++c) bits[c] = rng.below(4) == 0;
    return bits;
  };

  std::map<bgp::Prefix, std::vector<bool>> current;
  std::map<bgp::Prefix, std::uint64_t> version;
  for (const auto& route : tr.rib_snapshot) current[route.prefix] = bits_for(route.prefix, 0);

  util::WallTimer build_timer;
  std::vector<core::Mtt> trees;
  trees.push_back(core::Mtt::build({current.begin(), current.end()}, k));
  const double build_seconds = build_timer.seconds();
  trees.push_back(trees.front());

  // Partition the replay stream into one-minute commit rounds.
  const netsim::Time round_len = config.duration / kRounds;
  std::uint64_t total_updates = 0, total_hashes = 0;
  std::array<double, 2> total_seconds{}, max_seconds{};
  double total_apply_seconds = 0;
  std::array<json::Array, 2> round_seconds;
  json::Array round_hashes;
  bool roots_match = true;
  crypto::Seed seed{};
  std::size_t event_index = 0;
  for (int round = 0; round < kRounds; ++round) {
    const netsim::Time cutoff = (round + 1 == kRounds)
                                    ? std::numeric_limits<netsim::Time>::max()
                                    : static_cast<netsim::Time>(round + 1) * round_len;
    std::vector<core::MttUpdate> updates;
    for (; event_index < tr.events.size() && tr.events[event_index].time < cutoff;
         ++event_index) {
      const bgp::Update& update = tr.events[event_index].update;
      for (const auto& route : update.announced) {
        auto bits = bits_for(route.prefix, ++version[route.prefix]);
        current[route.prefix] = bits;
        updates.push_back(core::MttUpdate{route.prefix, std::move(bits)});
      }
      for (const auto& prefix : update.withdrawn) {
        current.erase(prefix);
        updates.push_back(core::MttUpdate{prefix, std::nullopt});
      }
    }
    total_updates += updates.size();
    seed = crypto::seed_from_string("fullscale-round-" + std::to_string(round));
    const crypto::CommitmentPrf prf(seed);
    for (std::size_t t = 0; t < trees.size(); ++t) {
      util::WallTimer timer;
      trees[t].apply(updates);
      if (t == 0) total_apply_seconds += timer.seconds();
      trees[t].compute_labels(prf, kThreads[t]);
      const double seconds = timer.seconds();
      total_seconds[t] += seconds;
      max_seconds[t] = std::max(max_seconds[t], seconds);
      round_seconds[t].push_back(seconds);
    }
    roots_match = roots_match && trees[0].root_label() == trees[1].root_label();
    total_hashes += trees[0].last_label_hashes();
    round_hashes.push_back(trees[0].last_label_hashes());
  }

  // Ground truth: a fresh build over the final routing state, labeled
  // under the last round's seed, must reproduce the maintained root.
  auto fresh = core::Mtt::build({current.begin(), current.end()}, k);
  fresh.compute_labels(crypto::CommitmentPrf(seed), kThreads.back());
  const bool fresh_matches = trees[0].root_label() == fresh.root_label();
  if (!roots_match || !fresh_matches) {
    throw std::runtime_error("E12: committed MTT roots disagree");
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["rounds"] = static_cast<std::uint64_t>(kRounds);
  cfg["num_classes"] = static_cast<std::uint64_t>(k);
  cfg["hardware_threads"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  cfg["round_label_hashes"] = std::move(round_hashes);
  cfg["round_commit_seconds_c1"] = std::move(round_seconds[0]);
  cfg["round_commit_seconds_c4"] = std::move(round_seconds[1]);
  out["config"] = std::move(cfg);
  json::Array results;
  results.push_back(result_row("initial build (structure)", build_seconds, "s", "-"));
  results.push_back(
      result_row("updates replayed", static_cast<double>(total_updates), "updates", "38696"));
  results.push_back(result_row("commit rounds", kRounds, "rounds", "13-15 in the replay period"));
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const std::string c = ", c=" + std::to_string(kThreads[t]);
    results.push_back(result_row("mean commit (apply + relabel)" + c, total_seconds[t] / kRounds,
                                 "s", t == 0 ? "38.8 @ 391028 prefixes" : "13.4 @ c=3"));
    results.push_back(result_row("max commit (apply + relabel)" + c, max_seconds[t], "s", "-"));
  }
  results.push_back(
      result_row("mean structure apply", total_apply_seconds / kRounds, "s", "-"));
  results.push_back(result_row("label hashes per commit (mean)",
                               static_cast<double>(total_hashes) / kRounds, "hashes", "-"));
  results.push_back(result_row("c=1 and c=4 roots match every round", roots_match ? 1 : 0,
                               "bool", "1"));
  results.push_back(
      result_row("final root matches fresh build", fresh_matches ? 1 : 0, "bool", "1"));
  results.push_back(result_row("peak RSS", peak_rss_bytes, "bytes", "-"));
  out["results"] = std::move(results);
  return out;
}

json::Object run_verify(const benchutil::BenchScale& scale) {
  // E13: the verification-session engine (src/verify) — proof bytes,
  // challenge round-trips, digest operations with and without the
  // proof-path cache, and wall-clock per verified prefix.  RSA signing so
  // the per-session batch verification path is exercised too.
  auto tr = benchutil::bench_trace(scale, 60 * netsim::kMicrosPerSecond);
  proto::Fig5Deployment deploy(deployment_config(false, true));
  netsim::Time start = deploy.run_setup(tr, 120 * netsim::kMicrosPerSecond);
  deploy.run_replay(tr, start, 5 * netsim::kMicrosPerSecond);
  const auto& record = deploy.recorder(5).make_commitment();
  deploy.sim().run();

  auto session = verify::run_session(deploy, 5, record.timestamp, verify::pipelined_config(),
                                     /*extended=*/true);
  const auto& stats = session.stats;
  // One proof is checked per (prefix, neighbor role), so per-proof
  // normalization equals per-verified-prefix normalization.  A cache hit
  // at level L skips exactly the L + 1 folds counted in digest_ops_saved,
  // so digest_ops + digest_ops_saved is the uncached verifier's count.
  auto per_proof = [&](double value) {
    return stats.proofs_checked != 0 ? value / static_cast<double>(stats.proofs_checked) : 0;
  };
  const double cached_per_prefix = per_proof(static_cast<double>(stats.digest_ops));
  const double uncached_per_prefix =
      per_proof(static_cast<double>(stats.digest_ops + stats.digest_ops_saved));
  const double digest_ratio = cached_per_prefix != 0 ? uncached_per_prefix / cached_per_prefix : 0;
  const double hit_ratio =
      stats.cache_hits + stats.cache_misses != 0
          ? static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.cache_hits + stats.cache_misses)
          : 0;

  json::Object out;
  json::Object cfg = scale_config(scale);
  cfg["sign_scheme"] = std::string("rsa");
  out["config"] = std::move(cfg);
  json::Array results;
  results.push_back(result_row("session wall", stats.session_seconds, "s", "-"));
  results.push_back(result_row("uncached digest ops per verified prefix", uncached_per_prefix,
                               "digests", "baseline"));
  results.push_back(
      result_row("digest ops per verified prefix", cached_per_prefix, "digests", "-"));
  results.push_back(
      result_row("digest ops ratio (uncached/cached)", digest_ratio, "x", ">= 3 required"));
  results.push_back(result_row("wall-clock per verified prefix", per_proof(stats.session_seconds),
                               "s", "-"));
  results.push_back(result_row("proof bytes shipped",
                               static_cast<double>(stats.bytes_shipped), "bytes", "-"));
  results.push_back(result_row("proof bytes deduped",
                               static_cast<double>(stats.bytes_deduped), "bytes", "-"));
  results.push_back(result_row("challenge round-trips",
                               static_cast<double>(stats.challenge_round_trips), "round-trips",
                               "one per window-slot round"));
  results.push_back(result_row("proof-path cache hit ratio", hit_ratio, "ratio", "-"));
  results.push_back(result_row("signatures verified",
                               static_cast<double>(stats.signatures_verified), "signatures", "-"));
  results.push_back(result_row("signature batches",
                               static_cast<double>(stats.signature_batches), "batches",
                               "Montgomery context amortized per batch"));
  results.push_back(result_row("session clean", session.report.clean() ? 1 : 0, "bool", "1"));
  out["results"] = std::move(results);
  return out;
}

// ---------------------------------------------------------------------------
// Scenario registry and runner

struct Scenario {
  const char* name;
  const char* experiment;
  const char* paper_ref;
  json::Object (*run)(const benchutil::BenchScale&);
};

const Scenario kScenarios[] = {
    {"communities", "E1", "Figure 2 (supporting data for §3)", run_communities},
    {"mtt_size", "E2", "§7.3 'MTT size'", run_mtt_size},
    {"labeling", "E3", "§7.3 'Labeling time'", run_labeling},
    {"proof", "E4/E5", "§7.3 'Proof generation and proof size' / 'Proof checking'", run_proof},
    {"functionality", "E6", "§7.4 'Functionality check'", run_functionality},
    {"computation", "E7", "§7.5 'Overhead: Computation'", run_computation},
    {"bandwidth", "E8", "§7.6 'Overhead: Bandwidth'", run_bandwidth},
    {"storage", "E9", "§7.7 'Overhead: Storage'", run_storage},
    {"crypto", "E10", "crypto/commitment microbenchmarks", run_crypto},
    {"ablation", "A1-A4", "DESIGN.md design-choice index", run_ablation},
    {"chaos", "E11", "§5/§7.4 detection matrix under injected faults", run_chaos},
    {"fullscale", "E12", "§7.3 per-commit relabeling under the 15-minute replay", run_fullscale},
    {"verify", "E13", "src/verify verification-session engine",
     run_verify},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--all] [--scenario NAME]... [--out-dir DIR]\n"
               "          [--prefixes N] [--updates N] [--check-schema] [--baseline FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> wanted;
  std::string out_dir = ".";
  std::string baseline_path;
  bool all = false, list = false, check_schema = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--scenario") {
      wanted.push_back(next());
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--prefixes") {
      setenv("SPIDER_BENCH_PREFIXES", next(), 1);
    } else if (arg == "--updates") {
      setenv("SPIDER_BENCH_UPDATES", next(), 1);
    } else if (arg == "--check-schema") {
      check_schema = true;
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else {
      return usage(argv[0]);
    }
  }

  if (list) {
    for (const Scenario& s : kScenarios) {
      std::printf("%-14s %-6s %s\n", s.name, s.experiment, s.paper_ref);
    }
    return 0;
  }
  if (!all && wanted.empty()) return usage(argv[0]);
  for (const std::string& name : wanted) {
    bool known = false;
    for (const Scenario& s : kScenarios) known |= name == s.name;
    if (!known) {
      std::fprintf(stderr, "unknown scenario: %s (try --list)\n", name.c_str());
      return 2;
    }
  }

  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 mkdir_error.message().c_str());
    return 1;
  }

  auto scale = benchutil::bench_scale();
  json::Object combined;
  combined["schema"] = "spider-bench-baseline-v1";
  json::Object combined_scenarios;

  for (const Scenario& s : kScenarios) {
    bool selected = all;
    for (const std::string& name : wanted) selected |= name == s.name;
    if (!selected) continue;

    std::printf("== %s (%s, %s)\n", s.name, s.experiment, s.paper_ref);
    // Per-scenario metric deltas: everything the scenario's run adds to
    // the registry from this point on is attributed to it.
    obs::MetricsRegistry::instance().reset();
    util::WallTimer timer;
    json::Object body = s.run(scale);
    double wall = timer.seconds();
    obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();

    json::Object doc;
    doc["schema"] = "spider-bench-v1";
    doc["scenario"] = s.name;
    doc["experiment"] = s.experiment;
    doc["paper_ref"] = s.paper_ref;
    doc["wall_seconds"] = wall;
    doc["config"] = std::move(body.at("config"));
    for (const json::Value& row : body.at("results").as_array()) {
      std::printf("   %-52s %14.6g %-11s paper: %s\n", row.find("label")->as_string().c_str(),
                  row.find("measured")->as_number(), row.find("unit")->as_string().c_str(),
                  row.find("paper")->as_string().c_str());
    }
    doc["results"] = std::move(body.at("results"));
    doc["metrics"] = snap.to_json();

    std::string path = out_dir + "/BENCH_" + s.name + ".json";
    std::string text = json::Value(doc).dump(2);
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    file << text << "\n";
    file.close();
    std::printf("   wrote %s (%.2f s, %zu counters)\n", path.c_str(), wall, snap.counters.size());

    if (check_schema) {
      std::ifstream in(path);
      std::string round_trip((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      validate_bench_json(json::parse(round_trip));
      std::printf("   schema ok\n");
    }
    combined_scenarios[s.name] = std::move(doc);
  }

  if (!baseline_path.empty()) {
    combined["scenarios"] = std::move(combined_scenarios);
    std::ofstream file(baseline_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", baseline_path.c_str());
      return 1;
    }
    file << json::Value(combined).dump(2) << "\n";
    std::printf("== wrote combined baseline %s\n", baseline_path.c_str());
  }
  return 0;
}
