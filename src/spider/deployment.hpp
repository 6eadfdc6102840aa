// Experiment harness: the paper's evaluation topology (Figure 5) built on
// the in-process simulator — 10 ASes, each with a BGP speaker and a SPIDeR
// recorder, a RouteViews-style trace injected at AS 2, and AS 5 (five
// neighbors) as the AS under measurement.
//
// Speakers and recorders get *separate* links so BGP traffic and SPIDeR
// traffic are measured independently (the §7.6 bandwidth experiment).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/vpref.hpp"
#include "crypto/rsa.hpp"
#include "netsim/sim.hpp"
#include "spider/proof_generator.hpp"
#include "spider/recorder.hpp"
#include "trace/routeviews.hpp"
#include "transport/netsim_transport.hpp"

namespace spider::proto {

struct DeploymentConfig {
  std::uint32_t num_classes = 50;
  Time commit_interval = 60 * netsim::kMicrosPerSecond;
  /// Which ASes generate commitments (the paper measures AS 5).
  std::set<bgp::AsNumber> commit_ases = {5};
  unsigned commit_threads = 1;
  /// RSA-1024 as in the paper, or the fast keyed-hash scheme for tests.
  enum class SignScheme { kHash, kRsa } scheme = SignScheme::kHash;
  Time link_latency = 2'000;  // 2 ms
  bgp::AsNumber trace_peer = 1000;
  Time batch_window = 50'000;
  Time delta = 5 * netsim::kMicrosPerSecond;
};

class Fig5Deployment {
 public:
  explicit Fig5Deployment(DeploymentConfig config);

  /// The AS numbers (1..10) and the AS-level edges of Figure 5.
  static const std::vector<bgp::AsNumber>& ases();
  static const std::vector<std::pair<bgp::AsNumber, bgp::AsNumber>>& edges();
  std::vector<bgp::AsNumber> neighbors_of(bgp::AsNumber asn) const;

  netsim::Simulator& sim() { return sim_; }
  bgp::Speaker& speaker(bgp::AsNumber asn) { return *speakers_.at(asn); }
  Recorder& recorder(bgp::AsNumber asn) { return *recorders_.at(asn); }
  /// `asn`'s proof generator, bound to its recorder for the deployment's
  /// lifetime, so its reconstruction cache serves every session on the
  /// same commitment (verify::run_session uses it).
  ProofGenerator& proof_generator(bgp::AsNumber asn) { return *generators_.at(asn); }
  const core::KeyRegistry& keys() const { return keys_; }
  const DeploymentConfig& config() const { return config_; }
  /// The simulator node carrying `asn`'s recorder traffic (its
  /// NetsimTransport endpoint) — the hook the chaos fault plane targets.
  netsim::NodeId recorder_node(bgp::AsNumber asn) const { return recorder_nodes_.at(asn); }

  /// Injects the RIB snapshot at AS 2 gradually over `setup_duration`
  /// (the paper's 30-minute setup period) and runs the simulator to its
  /// end.  Returns the simulated time at which the replay period begins.
  Time run_setup(const trace::RouteViewsTrace& trace, Time setup_duration);

  /// Replays the trace's update events (relative to `start`) and runs the
  /// simulator until `start + trace duration + slack`.
  void run_replay(const trace::RouteViewsTrace& trace, Time start, Time slack);

  /// Total bytes exchanged on the BGP links adjacent to `asn`.
  std::uint64_t bgp_bytes(bgp::AsNumber asn) const;
  /// Total bytes exchanged on the SPIDeR links adjacent to `asn`.
  std::uint64_t spider_bytes(bgp::AsNumber asn) const;

 private:
  DeploymentConfig config_;
  netsim::Simulator sim_;
  core::KeyRegistry keys_;
  std::map<bgp::AsNumber, std::unique_ptr<crypto::Signer>> signers_;
  std::map<bgp::AsNumber, std::unique_ptr<bgp::Speaker>> speakers_;
  std::map<bgp::AsNumber, std::unique_ptr<transport::NetsimTransport>> transports_;
  std::map<bgp::AsNumber, std::unique_ptr<Recorder>> recorders_;
  std::map<bgp::AsNumber, std::unique_ptr<ProofGenerator>> generators_;
  std::map<bgp::AsNumber, netsim::NodeId> speaker_nodes_;
  std::map<bgp::AsNumber, netsim::NodeId> recorder_nodes_;
};

}  // namespace spider::proto
