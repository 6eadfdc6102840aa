// Node hosting over the deterministic transport: the three NodeHost roles
// (recorder AS 5, checker AS 2, proof generator 905) run on
// NetsimTransport and are driven with the frame sequence spider_loadgen
// sends over TCP — inject, stats barrier, subscribe, commit notify,
// pipelined proof-request rounds, check requests.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "netsim/sim.hpp"
#include "obs/metrics.hpp"
#include "spider/node_wire.hpp"
#include "transport/netsim_transport.hpp"
#include "util/serde.hpp"
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
constexpr std::uint32_t kRounds = 4;
constexpr std::uint32_t kWindow = 2;
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

/// One UPDATE announcing `count` /24s under 10.0.0.0/8 from the trace
/// peer, starting at route `first` (the loadgen's synthetic trace).
sb::Update make_update(std::uint32_t first, std::uint32_t count) {
  sb::Update update;
  for (std::uint32_t i = first; i < first + count; ++i) {
    sb::Route route;
    route.prefix = sb::Prefix((10u << 24) | ((i & 0xffu) << 8), 24);
    route.as_path = {kClient, 64496 + (i >> 8)};
    update.announced.push_back(route);
  }
  return update;
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
  sp::NodeEndpoint client{client_net};

  bool tamper_next_transfer = false;
  std::vector<sp::StatsFrame> stats;
  std::vector<sp::SpiderCommit> commits;
  std::vector<Bytes> bundles;
  std::vector<sp::CheckResultFrame> results;

  NodeWorld() {
    const sn::NodeId checker_node = sim.add_node(checker_net, "checker");
    const sn::NodeId recorder_node = sim.add_node(recorder_net, "recorder");
    const sn::NodeId proofgen_node = sim.add_node(proofgen_net, "proofgen");
    const sn::NodeId client_node = sim.add_node(client_net, "client");
    const sn::NodeId relay_pg = sim.add_node(relay_to_proofgen, "relay-pg");
    const sn::NodeId relay_rec = sim.add_node(relay_to_recorder, "relay-rec");
    for (sn::NodeId node : {checker_node, recorder_node, proofgen_node}) {
      sim.connect(client_node, node, 1 * kMs);
    }
    sim.connect(checker_node, recorder_node, 2 * kMs);
    sim.connect(proofgen_node, relay_pg, 1 * kMs);
    sim.connect(relay_rec, recorder_node, 1 * kMs);

    checker_net.register_peer(kRecorder, recorder_node);
    checker_net.register_peer(kClient, client_node);
    recorder_net.register_peer(kChecker, checker_node);
    recorder_net.register_peer(kProofgen, relay_rec);
    recorder_net.register_peer(kClient, client_node);
    proofgen_net.register_peer(kRecorder, relay_pg);
    proofgen_net.register_peer(kClient, client_node);
    client_net.register_peer(kChecker, checker_node);
    client_net.register_peer(kRecorder, recorder_node);
    client_net.register_peer(kProofgen, proofgen_node);
    relay_to_proofgen.register_peer(kProofgen, proofgen_node);
    relay_to_recorder.register_peer(kRecorder, recorder_node);

    relay_to_proofgen.set_frame_handler([this](st::PeerId, su::ByteSpan frame) {
      relay_to_recorder.send(kRecorder, frame);
    });
    relay_to_recorder.set_frame_handler([this](st::PeerId, su::ByteSpan frame) {
      const Bytes relayed = tamper_next_transfer ? tamper(frame) : Bytes(frame.begin(), frame.end());
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

    client.set_control_handler([this](st::PeerId, const sp::NodeFrame& frame) {
      switch (frame.type) {
        case sp::NodeFrameType::kStats:
          stats.push_back(sp::StatsFrame::decode(frame.body));
          break;
        case sp::NodeFrameType::kCommitNotify:
          commits.push_back(sp::SpiderCommit::decode(frame.body));
          break;
        case sp::NodeFrameType::kProofBundle:
          bundles.push_back(frame.body);
          break;
        case sp::NodeFrameType::kCheckResult:
          results.push_back(sp::CheckResultFrame::decode(frame.body));
          break;
        default:
          ADD_FAILURE() << "unexpected frame type " << static_cast<int>(frame.type);
      }
    });
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

  bool pump(const std::function<bool()>& done, sn::Time limit = 30'000 * kMs) {
    const sn::Time deadline = sim.now() + limit;
    while (!done() && sim.now() < deadline) sim.run_until(sim.now() + kMs);
    return done();
  }

  void send(st::PeerId to, sp::NodeFrameType type, const Bytes& body = {}) {
    ASSERT_TRUE(client.send_control(to, type, body));
  }

  /// Stats barrier: every frame sent to `peer` before it has been handled.
  bool barrier(st::PeerId peer, std::uint64_t token) {
    su::ByteWriter w;
    w.u64(token);
    send(peer, sp::NodeFrameType::kStatsRequest, w.take());
    return pump([&] { return !stats.empty() && stats.back().token == token; });
  }

  void inject(std::uint32_t first, std::uint32_t routes) {
    for (std::uint32_t i = first; i < first + routes; i += 4) {
      sp::InjectFrame frame;
      frame.seq = i;
      frame.update = make_update(i, 4);
      send(kRecorder, sp::NodeFrameType::kInject, frame.encode());
    }
  }

  /// Ingest, then the first commitment after it.
  sp::SpiderCommit ingest_and_commit() {
    send(kRecorder, sp::NodeFrameType::kSubscribeCommits);
    inject(0, 256);
    EXPECT_TRUE(barrier(kRecorder, 1));
    EXPECT_EQ(stats.back().updates_mirrored, 256u);
    const std::size_t seen = commits.size();
    EXPECT_TRUE(pump([&] { return commits.size() > seen; }));
    return commits.back();
  }

  sp::ProofRequestFrame request(const sp::SpiderCommit& commit, std::uint32_t round) const {
    sp::ProofRequestFrame frame;
    frame.elector = kRecorder;
    frame.commit_time = commit.timestamp;
    frame.consumer = kChecker;
    frame.round = round;
    frame.round_count = kRounds;
    return frame;
  }

  /// The loadgen's pipelined session: kRounds proof requests, kWindow in
  /// flight, each bundle relayed to the checker as it arrives.
  bool verify(const sp::SpiderCommit& commit) {
    std::uint32_t requested = 0;
    std::size_t relayed = 0;
    while (requested < kWindow) {
      send(kProofgen, sp::NodeFrameType::kProofRequest, request(commit, requested++).encode());
    }
    while (results.size() < kRounds) {
      while (relayed < bundles.size()) {
        send(kChecker, sp::NodeFrameType::kCheckRequest, bundles[relayed++]);
        if (requested < kRounds) {
          send(kProofgen, sp::NodeFrameType::kProofRequest, request(commit, requested++).encode());
        }
      }
      const std::size_t have_bundles = bundles.size(), have_results = results.size();
      if (!pump([&] { return bundles.size() > have_bundles || results.size() > have_results; })) {
        return false;
      }
    }
    return true;
  }
};

TEST(NodeHost, NetsimSessionVerifiesCleanFromOneReconstruction) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  const std::uint64_t hits_before = counter("proof_gen/reconstruct_cache_hits");
  ASSERT_TRUE(world.verify(commit));

  std::size_t imports_checked = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const sp::CheckResultFrame& result = world.results[round];
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
}

TEST(NodeHost, TamperedBitProofsFailTheCheck) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  for (std::uint32_t cls = 0; cls < kClasses; ++cls) {
    world.proofgen->proof_generator().faults().tamper_classes.insert(cls);
  }
  ASSERT_TRUE(world.verify(commit));
  for (const sp::CheckResultFrame& result : world.results) {
    EXPECT_EQ(result.ok, 0);
    EXPECT_EQ(result.root_matches, 1);  // the rebuild is honest, the proofs are not
    EXPECT_TRUE(result.detail.find("producer: ") != std::string::npos ||
                result.detail.find("consumer: ") != std::string::npos)
        << result.detail;
  }
}

TEST(NodeHost, TamperedLogTransferIsNeverRestored) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  world.tamper_next_transfer = true;
  world.send(kProofgen, sp::NodeFrameType::kProofRequest, world.request(commit, 0).encode());
  ASSERT_TRUE(world.pump([&] { return world.bundles.size() == 1; }));
  EXPECT_FALSE(world.tamper_next_transfer);  // the relay did alter an entry

  const sp::ProofBundleFrame bundle = sp::ProofBundleFrame::decode(world.bundles[0]);
  EXPECT_EQ(bundle.root_matches, 0);
  EXPECT_TRUE(sp::ProducerProofs::decode(bundle.producer_proofs).items.empty());
  EXPECT_TRUE(sp::ConsumerProofs::decode(bundle.consumer_proofs).items.empty());
  EXPECT_TRUE(world.proofgen->recorder().log().commitments().empty());  // shadow untouched

  // The next request fetches an intact log and proves normally.
  world.send(kProofgen, sp::NodeFrameType::kProofRequest, world.request(commit, 1).encode());
  ASSERT_TRUE(world.pump([&] { return world.bundles.size() == 2; }));
  const sp::ProofBundleFrame second = sp::ProofBundleFrame::decode(world.bundles[1]);
  EXPECT_EQ(second.root_matches, 1);
  EXPECT_FALSE(sp::ConsumerProofs::decode(second.consumer_proofs).items.empty());
}

TEST(NodeHost, ProofRequestForAnotherElectorAnswersEmpty) {
  NodeWorld world;
  const sp::SpiderCommit commit = world.ingest_and_commit();
  sp::ProofRequestFrame frame = world.request(commit, 0);
  frame.elector = kChecker;  // the proof generator hosts AS 5 only
  world.send(kProofgen, sp::NodeFrameType::kProofRequest, frame.encode());
  ASSERT_TRUE(world.pump([&] { return world.bundles.size() == 1; }));
  EXPECT_TRUE(world.proofgen->recorder().log().commitments().empty());  // nothing fetched

  // Also once the shadow holds AS 5's log, which does cover this time.
  world.send(kProofgen, sp::NodeFrameType::kProofRequest, world.request(commit, 0).encode());
  world.send(kProofgen, sp::NodeFrameType::kProofRequest, frame.encode());
  ASSERT_TRUE(world.pump([&] { return world.bundles.size() == 3; }));
  EXPECT_EQ(sp::ProofBundleFrame::decode(world.bundles[1]).root_matches, 1);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const sp::ProofBundleFrame bundle = sp::ProofBundleFrame::decode(world.bundles[i]);
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
  inject.update = make_update(0, 1);
  su::ByteWriter token;
  token.u64(7);
  sp::ProofBundleFrame bundle;
  bundle.elector = kRecorder;
  bundle.commit_time = commit.timestamp;
  bundle.producer_proofs = sp::ProducerProofs{}.encode();
  bundle.consumer_proofs = sp::ConsumerProofs{}.encode();
  const struct {
    st::PeerId to;
    sp::NodeFrameType type;
    Bytes body;
  } cases[] = {
      {kRecorder, sp::NodeFrameType::kInject, inject.encode()},
      {kRecorder, sp::NodeFrameType::kStatsRequest, token.take()},
      {kChecker, sp::NodeFrameType::kStatsRequest, Bytes(8, 0)},
      {kChecker, sp::NodeFrameType::kCheckRequest, bundle.encode()},
      {kProofgen, sp::NodeFrameType::kProofRequest, world.request(commit, 0).encode()},
      {kProofgen, sp::NodeFrameType::kStatsRequest, Bytes(8, 0)},
  };
  const std::uint64_t errors_before = world.recorder->control_frame_errors() +
                                      world.checker->control_frame_errors() +
                                      world.proofgen->control_frame_errors();
  std::uint64_t sent = 0;
  for (const auto& c : cases) {
    ASSERT_FALSE(c.body.empty());
    for (const Bytes& body : {Bytes{}, Bytes(c.body.begin(), c.body.end() - 1)}) {
      world.send(c.to, c.type, body);
      ++sent;
    }
  }
  // Each node still answers the next well-formed request, in order.
  std::uint64_t token_value = 100;
  for (st::PeerId peer : {kRecorder, kChecker, kProofgen}) {
    EXPECT_TRUE(world.barrier(peer, ++token_value)) << "peer " << peer;
  }
  EXPECT_EQ(world.recorder->control_frame_errors() + world.checker->control_frame_errors() +
                world.proofgen->control_frame_errors() - errors_before,
            sent);
  EXPECT_TRUE(world.bundles.empty());
  EXPECT_TRUE(world.results.empty());
  ASSERT_TRUE(world.verify(commit));
  for (const sp::CheckResultFrame& result : world.results) EXPECT_EQ(result.ok, 1) << result.detail;
}

}  // namespace
