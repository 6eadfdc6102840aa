// Shared plumbing for the multi-process SPIDeR tools (spider_node,
// spider_loadgen): peer-spec parsing and dial/wait helpers over the TCP
// transport's event loop.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "transport/tcp_transport.hpp"

namespace spider::nodetool {

struct PeerSpec {
  std::uint32_t id = 0;
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "ID:HOST:PORT" (e.g. "5:127.0.0.1:47701").
inline PeerSpec parse_peer_spec(const std::string& spec) {
  auto first = spec.find(':');
  auto last = spec.rfind(':');
  if (first == std::string::npos || first == last) {
    std::fprintf(stderr, "bad peer spec \"%s\" (want ID:HOST:PORT)\n", spec.c_str());
    std::exit(2);
  }
  PeerSpec out;
  out.id = static_cast<std::uint32_t>(std::strtoul(spec.substr(0, first).c_str(), nullptr, 10));
  out.host = spec.substr(first + 1, last - first - 1);
  out.port = static_cast<std::uint16_t>(std::strtoul(spec.substr(last + 1).c_str(), nullptr, 10));
  if (out.id == 0 || out.host.empty() || out.port == 0) {
    std::fprintf(stderr, "bad peer spec \"%s\"\n", spec.c_str());
    std::exit(2);
  }
  return out;
}

/// Dials a peer, retrying while its process is still starting up.
inline bool dial_with_retry(transport::TcpTransport& tcp, const PeerSpec& peer,
                            int attempts = 100) {
  for (int i = 0; i < attempts; ++i) {
    if (tcp.connect_peer(peer.id, peer.host, peer.port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

/// Pumps the event loop until `done()` or `timeout` microseconds elapse.
inline bool pump_until(transport::TcpTransport& tcp, const std::function<bool()>& done,
                       transport::Time timeout) {
  const transport::Time deadline = tcp.now() + timeout;
  while (!done() && tcp.now() < deadline) tcp.poll_once(10'000);
  return done();
}

}  // namespace spider::nodetool
