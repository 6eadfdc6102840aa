#include "spider/deployment.hpp"

#include <string>

namespace spider::proto {

const std::vector<bgp::AsNumber>& Fig5Deployment::ases() {
  static const std::vector<bgp::AsNumber> kAses = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  return kAses;
}

const std::vector<std::pair<bgp::AsNumber, bgp::AsNumber>>& Fig5Deployment::edges() {
  // 10 ASes; the trace enters at AS 2; AS 5 sits in the middle with five
  // neighbors (2, 4, 6, 7, 8), matching the measured AS of §7.2.
  static const std::vector<std::pair<bgp::AsNumber, bgp::AsNumber>> kEdges = {
      {1, 2}, {2, 3}, {2, 5}, {1, 4}, {4, 5}, {5, 6},
      {5, 7}, {5, 8}, {3, 6}, {7, 9}, {8, 10}, {9, 10},
  };
  return kEdges;
}

std::vector<bgp::AsNumber> Fig5Deployment::neighbors_of(bgp::AsNumber asn) const {
  std::vector<bgp::AsNumber> out;
  for (const auto& [a, b] : edges()) {
    if (a == asn) out.push_back(b);
    if (b == asn) out.push_back(a);
  }
  return out;
}

Fig5Deployment::Fig5Deployment(DeploymentConfig config) : config_(std::move(config)) {
  // Keys.
  util::SplitMix64 keyrng(0x51D3);
  for (bgp::AsNumber asn : ases()) {
    if (config_.scheme == DeploymentConfig::SignScheme::kRsa) {
      auto key = crypto::rsa_generate(1024, keyrng);
      keys_.add(asn, std::make_unique<crypto::RsaVerifier>(key.public_key()));
      signers_[asn] = std::make_unique<crypto::RsaSigner>(std::move(key));
    } else {
      std::string secret = "fig5-key-" + std::to_string(asn);
      util::Bytes key(secret.begin(), secret.end());
      keys_.add(asn, std::make_unique<crypto::HashVerifier>(key));
      signers_[asn] = std::make_unique<crypto::HashSigner>(key);
    }
  }

  // Speakers and recorders.
  for (bgp::AsNumber asn : ases()) {
    speakers_[asn] = std::make_unique<bgp::Speaker>(sim_, asn, bgp::Policy{});
    speaker_nodes_[asn] = sim_.add_node(*speakers_[asn], "bgp-as" + std::to_string(asn));

    RecorderConfig rc;
    rc.asn = asn;
    rc.num_classes = config_.num_classes;
    rc.commit_interval = config_.commit_interval;
    rc.commit_threads = config_.commit_threads;
    rc.batch_window = config_.batch_window;
    rc.delta = config_.delta;
    // The transport shim occupies the simulator slot the recorder itself
    // used to: same add_node order, same "rec-asN" names, so node ids and
    // event ordering — and therefore every byte of a deterministic run —
    // are unchanged by the transport abstraction.
    transports_[asn] = std::make_unique<transport::NetsimTransport>(sim_);
    recorder_nodes_[asn] = sim_.add_node(*transports_[asn], "rec-as" + std::to_string(asn));
    recorders_[asn] =
        std::make_unique<Recorder>(*transports_[asn], rc, *signers_[asn], keys_, *speakers_[asn]);
    generators_[asn] = std::make_unique<ProofGenerator>(*recorders_[asn]);
  }

  // Links + neighbor wiring: one BGP link and one SPIDeR link per edge.
  for (const auto& [a, b] : edges()) {
    sim_.connect(speaker_nodes_[a], speaker_nodes_[b], config_.link_latency);
    sim_.connect(recorder_nodes_[a], recorder_nodes_[b], config_.link_latency);
    speakers_[a]->add_neighbor(b, speaker_nodes_[b]);
    speakers_[b]->add_neighbor(a, speaker_nodes_[a]);
    recorders_[a]->add_neighbor(b);
    recorders_[b]->add_neighbor(a);
    transports_[a]->register_peer(b, recorder_nodes_[b]);
    transports_[b]->register_peer(a, recorder_nodes_[a]);
  }

  // Promises: every AS promises every neighbor the shortest route (the
  // §7.2 configuration: 50 hop-count classes, total order).
  for (bgp::AsNumber asn : ases()) {
    core::Promise promise = core::Promise::total_order(config_.num_classes);
    for (bgp::AsNumber neighbor : neighbors_of(asn)) {
      recorders_[asn]->set_promise(neighbor, promise);
    }
    recorders_[asn]->start(config_.commit_ases.count(asn) != 0);
  }

  // The trace peer is injected directly into AS 2's speaker (no node, no
  // recorder): Speaker::inject() accepts updates from unregistered
  // neighbors, and split horizon never exports back to it.
}

Time Fig5Deployment::run_setup(const trace::RouteViewsTrace& trace, Time setup_duration) {
  const std::size_t n = trace.rib_snapshot.size();
  const std::size_t chunk = 50;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const Time gap = setup_duration / static_cast<Time>(chunks + 1);

  for (std::size_t c = 0; c < chunks; ++c) {
    Time at = static_cast<Time>(c + 1) * gap;
    sim_.schedule_at(at, [this, &trace, c, chunk, n] {
      bgp::Update update;
      for (std::size_t i = c * chunk; i < std::min(n, (c + 1) * chunk); ++i) {
        update.announced.push_back(trace.rib_snapshot[i]);
      }
      speakers_[2]->inject(config_.trace_peer, update);
    });
  }
  sim_.run_until(setup_duration);
  return setup_duration;
}

void Fig5Deployment::run_replay(const trace::RouteViewsTrace& trace, Time start, Time slack) {
  Time end = start;
  for (const trace::TraceEvent& event : trace.events) {
    Time at = start + event.time;
    end = std::max(end, at);
    sim_.schedule_at(at, [this, &event] { speakers_[2]->inject(config_.trace_peer, event.update); });
  }
  sim_.run_until(end + slack);
}

std::uint64_t Fig5Deployment::bgp_bytes(bgp::AsNumber asn) const {
  std::uint64_t total = 0;
  for (bgp::AsNumber neighbor : neighbors_of(asn)) {
    total += sim_.link_stats(speaker_nodes_.at(asn), speaker_nodes_.at(neighbor)).total_bytes();
  }
  return total;
}

std::uint64_t Fig5Deployment::spider_bytes(bgp::AsNumber asn) const {
  std::uint64_t total = 0;
  for (bgp::AsNumber neighbor : neighbors_of(asn)) {
    total += sim_.link_stats(recorder_nodes_.at(asn), recorder_nodes_.at(neighbor)).total_bytes();
  }
  return total;
}

}  // namespace spider::proto
