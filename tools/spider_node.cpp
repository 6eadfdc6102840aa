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
#include <cstdlib>
#include <string>
#include <vector>

#include "node_common.hpp"
#include "verify/node_host.hpp"

using namespace spider;
using nodetool::PeerSpec;
using transport::PeerId;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --role recorder|checker|proofgen --as N --listen PORT\n"
               "          [--port-file FILE] [--peer ID:HOST:PORT]... [--neighbor AS]...\n"
               "          [--trust PEERID]... [--elector AS (proofgen: required)]\n"
               "          [--num-classes N] [--commit-interval-ms N] [--batch-window-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  verify::NodeConfig config;
  std::string role;
  std::uint16_t listen = 0;
  std::string port_file;
  std::vector<PeerSpec> peers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (arg == "--role") {
      role = next();
    } else if (arg == "--as" || arg == "--id") {
      config.id = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--listen") {
      listen = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--peer") {
      peers.push_back(nodetool::parse_peer_spec(next()));
    } else if (arg == "--neighbor") {
      config.neighbors.push_back(static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--trust") {
      config.trusted_log_peers.insert(static_cast<PeerId>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--elector") {
      config.elector = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--num-classes") {
      config.num_classes = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--commit-interval-ms") {
      config.commit_interval = std::strtol(next(), nullptr, 10) * 1000;
    } else if (arg == "--batch-window-ms") {
      config.batch_window = std::strtol(next(), nullptr, 10) * 1000;
    } else {
      return usage(argv[0]);
    }
  }
  if (role == "recorder") {
    config.role = verify::NodeRole::kRecorder;
  } else if (role == "checker") {
    config.role = verify::NodeRole::kChecker;
  } else if (role == "proofgen" && config.elector != 0) {
    config.role = verify::NodeRole::kProofgen;
  } else {
    return usage(argv[0]);
  }
  if (config.id == 0) return usage(argv[0]);

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
