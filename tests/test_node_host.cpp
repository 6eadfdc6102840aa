// Node hosting over the deterministic transport: the three NodeHost roles
// (recorder AS 5, checker AS 2, proof generator 905) run on
// NetsimTransport, driven by the verify::NodeClient spider_loadgen runs
// over TCP.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "netsim/sim.hpp"
#include "obs/metrics.hpp"
#include "spider/node_wire.hpp"
#include "transport/netsim_transport.hpp"
#include "util/serde.hpp"
#include "verify/node_client.hpp"
#include "verify/node_host.hpp"

namespace sb = spider::bgp;
namespace sn = spider::netsim;
namespace sp = spider::proto;
namespace st = spider::transport;
namespace su = spider::util;
namespace sv = spider::verify;
using su::Bytes;

namespace {

constexpr st::PeerId kChecker = 2;
constexpr st::PeerId kRecorder = 5;
constexpr st::PeerId kProofgen = 905;
constexpr st::PeerId kClient = 1000;  // doubles as the trace-peer AS number
constexpr std::uint32_t kClasses = 16;
constexpr std::uint32_t kRounds = sv::NodeClient::kRounds;
constexpr sn::Time kMs = 1'000;

sv::NodeConfig node_config(sv::NodeRole role, std::uint32_t id, std::uint32_t neighbor) {
  sv::NodeConfig config;
  config.role = role;
  config.id = id;
  config.neighbors = {neighbor};
  config.num_classes = kClasses;
  config.commit_interval = 500 * kMs;
  config.batch_window = 10 * kMs;
  return config;
}

/// `routes` /24s under 10.0.0.0/8 from the trace peer, four to an UPDATE.
std::vector<sb::Update> make_updates(std::uint32_t routes) {
  std::vector<sb::Update> updates(routes / 4);
  for (std::uint32_t i = 0; i < routes; ++i) {
    sb::Route route;
    route.prefix = sb::Prefix((10u << 24) | ((i & 0xffu) << 8), 24);
    route.as_path = {kClient, 64496 + (i >> 8)};
    updates[i / 4].announced.push_back(route);
  }
  return updates;
}

std::uint64_t counter(const char* name) {
  const auto snap = spider::obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// The three nodes and a load-generating client on one simulator.  The
/// proof generator reaches the recorder through a relay the test can make
/// tamper with the log transfer.
struct NodeWorld {
  sn::Simulator sim;
  st::NetsimTransport checker_net{sim}, recorder_net{sim}, proofgen_net{sim}, client_net{sim};
  st::NetsimTransport relay_to_proofgen{sim}, relay_to_recorder{sim};
  std::unique_ptr<sv::NodeHost> checker, recorder, proofgen;
  sv::NodeClient client{client_net, [this] { sim.run_until(sim.now() + kMs); }};
  const sn::NodeId checker_node = sim.add_node(checker_net, "checker");
  const sn::NodeId recorder_node = sim.add_node(recorder_net, "recorder");
  const sn::NodeId proofgen_node = sim.add_node(proofgen_net, "proofgen");
  const sn::NodeId client_node = sim.add_node(client_net, "client");
  bool tamper_next_transfer = false;
  std::uint32_t log_requests = 0;  // log transfers the proof generator started

  NodeWorld() {
    sim.add_node(relay_to_proofgen, "relay-pg");
    sim.add_node(relay_to_recorder, "relay-rec");
    link(client_net, kClient, checker_net, kChecker, 1 * kMs);
    link(client_net, kClient, recorder_net, kRecorder, 1 * kMs);
    link(client_net, kClient, proofgen_net, kProofgen, 1 * kMs);
    link(checker_net, kChecker, recorder_net, kRecorder, 2 * kMs);
    link(proofgen_net, kProofgen, relay_to_proofgen, kRecorder, 1 * kMs);
    link(relay_to_recorder, kProofgen, recorder_net, kRecorder, 1 * kMs);
    relay_to_proofgen.set_frame_handler([this](st::PeerId, su::ByteSpan frame) {
      log_requests += sp::NodeFrame::decode(frame).type == sp::NodeFrameType::kLogRequest;
      relay_to_recorder.send(kRecorder, frame);
    });
    relay_to_recorder.set_frame_handler([this](st::PeerId, su::ByteSpan frame) {
      const Bytes relayed =
          tamper_next_transfer ? tamper(frame) : Bytes(frame.begin(), frame.end());
      relay_to_proofgen.send(kProofgen, relayed);
    });

    checker = std::make_unique<sv::NodeHost>(
        checker_net, node_config(sv::NodeRole::kChecker, kChecker, kRecorder));
    sv::NodeConfig rc = node_config(sv::NodeRole::kRecorder, kRecorder, kChecker);
    rc.trusted_log_peers = {kProofgen};
    recorder = std::make_unique<sv::NodeHost>(recorder_net, rc);
    sv::NodeConfig pc = node_config(sv::NodeRole::kProofgen, kProofgen, kChecker);
    pc.elector = kRecorder;
    proofgen = std::make_unique<sv::NodeHost>(proofgen_net, pc);
  }

  /// Connects two nodes; each reaches the other as the given peer.
  void link(st::NetsimTransport& a, st::PeerId a_peer, st::NetsimTransport& b,
            st::PeerId b_peer, sn::Time latency) {
    sim.connect(a.node_id(), b.node_id(), latency);
    a.register_peer(b_peer, b.node_id());
    b.register_peer(a_peer, a.node_id());
  }

  /// Alters the message of the second entry of the first entries segment
  /// (the chain check recomputes every entry after the first retained one).
  Bytes tamper(su::ByteSpan frame) {
    sp::NodeFrame node_frame = sp::NodeFrame::decode(frame);
    if (node_frame.type == sp::NodeFrameType::kLogSegment) {
      sp::LogSegmentFrame segment = sp::LogSegmentFrame::decode(node_frame.body);
      if (segment.kind == sp::LogSegmentFrame::kEntries && segment.records.size() >= 2) {
        sp::LogEntry entry = sp::LogEntry::decode(segment.records[1]);
        entry.message.back() ^= 0x01;
        segment.records[1] = entry.encode();
        node_frame.body = segment.encode();
        tamper_next_transfer = false;
      }
    }
    return node_frame.encode();
  }

  /// Ingest, then the first commitment after it.
  sp::SpiderCommit ingest_and_commit() {
    EXPECT_TRUE(client.subscribe(kRecorder));
    EXPECT_TRUE(client.inject(kRecorder, client.inject_frames(make_updates(256))));
    const auto stats = client.barrier(kRecorder);
    EXPECT_EQ(stats ? stats->updates_mirrored : 0, 256u);
    const auto commit = client.await_commit();
    EXPECT_TRUE(commit);
    return commit ? commit->commit : sp::SpiderCommit{};
  }
};

TEST(NodeHost, NetsimSessionVerifiesCleanFromOneReconstruction) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  const std::uint64_t hits_before = counter("proof_gen/reconstruct_cache_hits");
  const auto rounds = world.client.verify(kRecorder, commit.timestamp, kProofgen, kChecker);
  ASSERT_TRUE(rounds);

  std::size_t imports_checked = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const sp::CheckResultFrame& result = (*rounds)[round].result;
    EXPECT_EQ(result.ok, 1) << "round " << round << ": " << result.detail;
    EXPECT_EQ(result.root_matches, 1);
    const std::string clean = "clean: ";
    ASSERT_EQ(result.detail.compare(0, clean.size(), clean), 0) << result.detail;
    imports_checked += std::stoul(result.detail.substr(clean.size()));
  }
  EXPECT_EQ(imports_checked, 256u);  // the rounds partition the table
  // Rounds 2-4 are served from the reconstruction round 1 paid for.
#if !defined(SPIDER_OBS_DISABLED)
  EXPECT_EQ(counter("proof_gen/reconstruct_cache_hits") - hits_before, kRounds - 1);
#else
  (void)hits_before;
#endif
  EXPECT_EQ(world.proofgen->summary(),
            "proofgen id=905: 4 requests answered, 1 reconstructions, 3 recon-cache hits");
  EXPECT_TRUE(world.recorder->recorder().alarms().empty());
  EXPECT_TRUE(world.checker->recorder().alarms().empty());
  EXPECT_EQ(world.client.frames_dropped(), 0u);  // every reply decoded
}

TEST(NodeHost, TamperedBitProofsFailTheCheck) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  for (std::uint32_t cls = 0; cls < kClasses; ++cls) {
    world.proofgen->proof_generator().faults().tamper_classes.insert(cls);
  }
  const auto rounds = world.client.verify(kRecorder, commit.timestamp, kProofgen, kChecker);
  ASSERT_TRUE(rounds);
  for (const sv::NodeClient::Round& round : *rounds) {
    EXPECT_EQ(round.result.ok, 0);
    EXPECT_EQ(round.result.root_matches, 1);  // the rebuild is honest, the proofs are not
    EXPECT_TRUE(round.result.detail.find("producer: ") != std::string::npos ||
                round.result.detail.find("consumer: ") != std::string::npos)
        << round.result.detail;
  }
}

TEST(NodeHost, TamperedLogTransferIsNeverRestored) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  world.tamper_next_transfer = true;
  const auto rounds = world.client.verify(kRecorder, commit.timestamp, kProofgen, kChecker);
  ASSERT_TRUE(rounds);
  EXPECT_FALSE(world.tamper_next_transfer);  // the relay did alter an entry

  // Round 0 started the tampered transfer and was answered empty.
  const sp::ProofBundleFrame& bundle = rounds->front().bundle;
  EXPECT_EQ(bundle.root_matches, 0);
  EXPECT_TRUE(sp::ProducerProofs::decode(bundle.producer_proofs).items.empty());
  EXPECT_TRUE(sp::ConsumerProofs::decode(bundle.consumer_proofs).items.empty());
  // The tampered log was never restored: a later round fetched an intact one.
  EXPECT_EQ(world.log_requests, 2u);
  const sp::ProofBundleFrame& last = rounds->back().bundle;
  EXPECT_EQ(last.root_matches, 1);
  EXPECT_FALSE(sp::ConsumerProofs::decode(last.consumer_proofs).items.empty());
  EXPECT_EQ(rounds->back().result.ok, 1) << rounds->back().result.detail;
}

TEST(NodeHost, ProofRequestForAnotherElectorAnswersEmpty) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  // Single requests from a probe of their own, so that two can go out back
  // to back and the bundles are seen in arrival order.
  constexpr st::PeerId kProbe = 1001;
  st::NetsimTransport probe_net{world.sim};
  world.sim.add_node(probe_net, "probe");
  world.link(probe_net, kProbe, world.proofgen_net, kProofgen, 1 * kMs);
  sp::NodeEndpoint probe{probe_net};
  std::vector<sp::ProofBundleFrame> bundles;
  probe.set_control_handler([&](st::PeerId, const sp::NodeFrame& frame) {
    bundles.push_back(sp::ProofBundleFrame::decode(frame.body));
  });
  auto request = [&](std::uint32_t elector) {
    const sp::ProofRequestFrame frame{
        .elector = elector, .commit_time = commit.timestamp, .consumer = kChecker};
    EXPECT_TRUE(probe.send_control(kProofgen, sp::NodeFrameType::kProofRequest, frame.encode()));
  };
  auto settle = [&] { world.sim.run_until(world.sim.now() + 1'000 * kMs); };

  request(kChecker);  // the proof generator hosts AS 5 only
  settle();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_TRUE(world.proofgen->recorder().log().commitments().empty());  // nothing fetched

  // Also behind a pending transfer of AS 5's log, which does cover this time.
  request(kRecorder);
  request(kChecker);
  settle();
  ASSERT_EQ(bundles.size(), 3u);
  EXPECT_EQ(bundles[1].elector, kRecorder);
  EXPECT_EQ(bundles[1].root_matches, 1);
  for (const sp::ProofBundleFrame& bundle : {bundles[0], bundles[2]}) {
    EXPECT_EQ(bundle.elector, kChecker);
    EXPECT_EQ(bundle.root_matches, 0);
    EXPECT_TRUE(sp::ProducerProofs::decode(bundle.producer_proofs).items.empty());
    EXPECT_TRUE(sp::ConsumerProofs::decode(bundle.consumer_proofs).items.empty());
  }
}

TEST(NodeHost, MalformedControlFramesAreDroppedAndCounted) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();

  // One well-formed body per control type a role decodes.
  sp::InjectFrame inject;
  inject.update = make_updates(4).front();
  su::ByteWriter token;
  token.u64(7);
  const sp::ProofBundleFrame bundle{.elector = kRecorder,
                                    .commit_time = commit.timestamp,
                                    .producer_proofs = sp::ProducerProofs{}.encode(),
                                    .consumer_proofs = sp::ConsumerProofs{}.encode()};
  const sp::ProofRequestFrame request{
      .elector = kRecorder, .commit_time = commit.timestamp, .consumer = kChecker};
  const struct {
    st::PeerId to;
    sp::NodeFrameType type;
    Bytes body;
  } cases[] = {
      {kRecorder, sp::NodeFrameType::kInject, inject.encode()},
      {kRecorder, sp::NodeFrameType::kStatsRequest, token.take()},
      {kChecker, sp::NodeFrameType::kStatsRequest, Bytes(8, 0)},
      {kChecker, sp::NodeFrameType::kCheckRequest, bundle.encode()},
      {kProofgen, sp::NodeFrameType::kProofRequest, request.encode()},
      {kProofgen, sp::NodeFrameType::kStatsRequest, Bytes(8, 0)},
  };
  const std::uint64_t errors_before = world.recorder->control_frame_errors() +
                                      world.checker->control_frame_errors() +
                                      world.proofgen->control_frame_errors();
  auto replies = [&] {  // frames the checker and the proof generator sent the client
    return world.sim.link_stats(world.checker_node, world.client_node).a_to_b.messages +
           world.sim.link_stats(world.proofgen_node, world.client_node).a_to_b.messages;
  };
  const std::uint64_t replies_before = replies();
  std::uint64_t sent = 0;
  for (const auto& c : cases) {
    ASSERT_FALSE(c.body.empty());
    for (const Bytes& body : {Bytes{}, Bytes(c.body.begin(), c.body.end() - 1)}) {
      ASSERT_TRUE(world.client.send(c.to, c.type, body));
      ++sent;
    }
  }
  // Each node still answers the next well-formed request, in order.
  for (st::PeerId peer : {kRecorder, kChecker, kProofgen}) {
    EXPECT_TRUE(world.client.barrier(peer)) << "peer " << peer;
  }
  EXPECT_EQ(world.recorder->control_frame_errors() + world.checker->control_frame_errors() +
                world.proofgen->control_frame_errors() - errors_before,
            sent);
  // The barrier replies only: no proof bundle, no check result.
  EXPECT_EQ(replies() - replies_before, 2u);
  const auto rounds = world.client.verify(kRecorder, commit.timestamp, kProofgen, kChecker);
  ASSERT_TRUE(rounds);
  for (const auto& round : *rounds) EXPECT_EQ(round.result.ok, 1) << round.result.detail;
}

}  // namespace
