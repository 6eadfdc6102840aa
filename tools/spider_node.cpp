// spider_node — one SPIDeR node as an OS process over loopback TCP: a thin
// CLI over verify::NodeHost (src/verify/node_host.hpp), which implements
// the recorder, checker and proofgen roles (§6.1).  It parses flags,
// listens, dials the --peer nodes and runs one NodeHost over TcpTransport
// until a kShutdown frame arrives.
//
//   spider_node --role recorder --as 5 --listen 47701 --neighbor 2
//       --peer 2:127.0.0.1:47702 --trust 905 --commit-interval-ms 250
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "node_common.hpp"
#include "verify/node_host.hpp"

using namespace spider;
using nodetool::PeerSpec;
using transport::PeerId;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --role recorder|checker|proofgen --as N --listen PORT\n"
               "          [--port-file FILE] [--peer ID:HOST:PORT]... [--neighbor AS]...\n"
               "          [--trust PEERID]... [--elector AS (proofgen: required)]\n"
               "          [--num-classes N] [--commit-interval-ms N] [--batch-window-ms N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  verify::NodeConfig config;
  std::string role;
  std::uint16_t listen = 0;
  std::string port_file;
  std::vector<PeerSpec> peers;
  nodetool::Args args{argc, argv, usage};
  constexpr proto::Time kMs = 1000;
  while (const char* flag = args.next_flag()) {
    const std::string arg = flag;
    if (arg == "--role") {
      role = args.value();
    } else if (arg == "--as" || arg == "--id") {
      config.id = args.number<std::uint32_t>(1);
    } else if (arg == "--listen") {
      listen = args.number<std::uint16_t>();
    } else if (arg == "--port-file") {
      port_file = args.value();
    } else if (arg == "--peer") {
      peers.push_back(args.peer());
    } else if (arg == "--neighbor") {
      config.neighbors.push_back(args.number<std::uint32_t>(1));
    } else if (arg == "--trust") {
      config.trusted_log_peers.insert(args.number<PeerId>(1));
    } else if (arg == "--elector") {
      config.elector = args.number<std::uint32_t>(1);
    } else if (arg == "--num-classes") {
      config.num_classes = args.number<std::uint32_t>(1);
    } else if (arg == "--commit-interval-ms") {
      config.commit_interval = args.number<std::uint32_t>(1) * kMs;
    } else if (arg == "--batch-window-ms") {
      config.batch_window = args.number<std::uint32_t>() * kMs;
    } else {
      args.fail();
    }
  }
  if (role == "recorder") {
    config.role = verify::NodeRole::kRecorder;
  } else if (role == "checker") {
    config.role = verify::NodeRole::kChecker;
  } else if (role == "proofgen" && config.elector != 0) {
    config.role = verify::NodeRole::kProofgen;
  } else {
    args.fail();
  }
  if (config.id == 0) args.fail();

  signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IOLBF, 0);  // keep progress visible under redirection
  transport::TcpTransport tcp(config.id);

  const std::uint16_t port = tcp.listen_on(listen);
  std::printf("spider_node: role=%s id=%u listening on %u\n", role.c_str(), config.id, port);
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f) {
      std::fprintf(f, "%u\n", port);
      std::fclose(f);
    }
  }
  for (const PeerSpec& peer : peers) {
    if (!nodetool::dial_with_retry(tcp, peer)) {
      std::fprintf(stderr, "cannot reach peer %u at %s:%u\n", peer.id, peer.host.c_str(),
                   peer.port);
      return 1;
    }
  }

  verify::NodeHost host(tcp, config, [&tcp] { tcp.stop(); });
  tcp.run();
  std::printf("spider_node %s\n", host.summary().c_str());
  return 0;
}
