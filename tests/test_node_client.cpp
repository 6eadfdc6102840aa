// verify::NodeClient on both transports: a clean pipelined session
// against three NodeHosts over loopback TCP in one process, and the
// client's deadlines under netsim when nobody answers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netsim/sim.hpp"
#include "spider/node_wire.hpp"
#include "transport/netsim_transport.hpp"
#include "transport/tcp_transport.hpp"
#include "verify/node_client.hpp"
#include "verify/node_host.hpp"

namespace sb = spider::bgp;
namespace sn = spider::netsim;
namespace st = spider::transport;
namespace sv = spider::verify;

namespace {

constexpr st::PeerId kChecker = 2;
constexpr st::PeerId kRecorder = 5;
constexpr st::PeerId kProofgen = 905;
constexpr st::PeerId kClient = 1000;  // doubles as the trace-peer AS number
constexpr st::Time kMs = 1'000;

sv::NodeConfig node_config(sv::NodeRole role, std::uint32_t id, std::uint32_t neighbor) {
  sv::NodeConfig config;
  config.role = role;
  config.id = id;
  config.neighbors = {neighbor};
  config.num_classes = 16;
  config.commit_interval = 200 * kMs;
  config.batch_window = 10 * kMs;
  return config;
}

TEST(NodeClient, TcpSessionVerifiesCleanAgainstThreeNodeHosts) {
  st::TcpTransport checker_tcp(kChecker), recorder_tcp(kRecorder), proofgen_tcp(kProofgen),
      client_tcp(kClient);
  const std::uint16_t checker_port = checker_tcp.listen_on(0);
  const std::uint16_t recorder_port = recorder_tcp.listen_on(0);
  const std::uint16_t proofgen_port = proofgen_tcp.listen_on(0);
  ASSERT_TRUE(recorder_tcp.connect_peer(kChecker, "127.0.0.1", checker_port));
  ASSERT_TRUE(proofgen_tcp.connect_peer(kRecorder, "127.0.0.1", recorder_port));
  ASSERT_TRUE(client_tcp.connect_peer(kChecker, "127.0.0.1", checker_port));
  ASSERT_TRUE(client_tcp.connect_peer(kRecorder, "127.0.0.1", recorder_port));
  ASSERT_TRUE(client_tcp.connect_peer(kProofgen, "127.0.0.1", proofgen_port));

  sv::NodeHost checker(checker_tcp, node_config(sv::NodeRole::kChecker, kChecker, kRecorder));
  sv::NodeConfig rc = node_config(sv::NodeRole::kRecorder, kRecorder, kChecker);
  rc.trusted_log_peers = {kProofgen};
  sv::NodeHost recorder(recorder_tcp, rc);
  sv::NodeConfig pc = node_config(sv::NodeRole::kProofgen, kProofgen, kChecker);
  pc.elector = kRecorder;
  sv::NodeHost proofgen(proofgen_tcp, pc);
  // One step turns all four event loops; only the client's waits.
  sv::NodeClient client(client_tcp, [&] {
    for (st::TcpTransport* node : {&checker_tcp, &recorder_tcp, &proofgen_tcp}) {
      node->poll_once(0);
    }
    client_tcp.poll_once(1 * kMs);
  });

  std::vector<sb::Update> updates(64);
  for (std::uint32_t i = 0; i < 256; ++i) {
    sb::Route route;
    route.prefix = sb::Prefix((10u << 24) | (i << 8), 24);
    route.as_path = {kClient, 64496};
    updates[i / 4].announced.push_back(route);
  }
  ASSERT_TRUE(client.subscribe(kRecorder));
  ASSERT_TRUE(client.inject(kRecorder, client.inject_frames(updates)));
  const auto stats = client.barrier(kRecorder);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->updates_mirrored, 256u);
  const auto commit = client.await_commit();
  ASSERT_TRUE(commit);

  const auto rounds = client.verify(kRecorder, commit->commit.timestamp, kProofgen, kChecker);
  ASSERT_TRUE(rounds);
  ASSERT_EQ(rounds->size(), sv::NodeClient::kRounds);
  for (const sv::NodeClient::Round& round : *rounds) {
    EXPECT_EQ(round.bundle.root_matches, 1);
    EXPECT_EQ(round.result.root_matches, 1);
    EXPECT_EQ(round.result.ok, 1) << "round " << round.bundle.round << ": " << round.result.detail;
  }
  EXPECT_EQ(client.frames_dropped(), 0u);
  EXPECT_TRUE(recorder.recorder().alarms().empty());
}

/// A client and one node that never answers, on one simulator.
struct SilentWorld {
  sn::Simulator sim;
  st::NetsimTransport client_net{sim}, silent_net{sim};  // silent_net has no frame handler
  sv::NodeClient client{client_net, [this] { sim.run_until(sim.now() + kMs); }};

  SilentWorld() {
    const sn::NodeId client_node = sim.add_node(client_net, "client");
    const sn::NodeId silent_node = sim.add_node(silent_net, "silent");
    sim.connect(client_node, silent_node, 1 * kMs);
    client_net.register_peer(kProofgen, silent_node);
    client_net.register_peer(kChecker, silent_node);
  }
};

TEST(NodeClient, VerifyAgainstASilentProofGeneratorFailsAtItsDeadline) {
  SilentWorld world;
  EXPECT_FALSE(world.client.verify(kRecorder, 1'000 * kMs, kProofgen, kChecker));
  EXPECT_GE(world.sim.now(), sv::NodeClient::kReplyTimeout);
  EXPECT_LE(world.sim.now(), sv::NodeClient::kReplyTimeout + kMs);
}

TEST(NodeClient, BarrierToAnUnregisteredPeerFailsWithoutWaitingOutTheDeadline) {
  SilentWorld world;
  EXPECT_FALSE(world.client.barrier(kRecorder));  // no route to AS 5 at all
  EXPECT_LE(world.sim.now(), sv::NodeClient::kSendRetry + kMs);
}

}  // namespace
