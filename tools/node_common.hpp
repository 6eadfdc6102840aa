// Shared plumbing for the multi-process SPIDeR tools (spider_node,
// spider_loadgen): strict flag parsing and dialing over the TCP
// transport's event loop.  spiderctl parses its numbers with the same
// parse_number.
#pragma once

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "transport/tcp_transport.hpp"

namespace spider::nodetool {

/// Parses all of `text` as a decimal integer in [min, max]: no sign, no
/// spaces, nothing after the digits.
template <typename T>
std::optional<T> parse_number(std::string_view text, T min = 0,
                              T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc{} || last != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

struct PeerSpec {
  std::uint32_t id = 0;
  std::string host;
  std::uint16_t port = 0;
};

/// Walks a tool's argv.  A missing or malformed flag value prints the
/// tool's usage and exits 2.
struct Args {
  int argc;
  char** argv;
  void (*usage)(const char* argv0);
  int i = 0;

  /// The next flag, or nullptr after the last.
  const char* next_flag() { return ++i < argc ? argv[i] : nullptr; }
  /// The current flag's value.
  const char* value() {
    if (i + 1 >= argc) fail();
    return argv[++i];
  }
  template <typename T>
  T number(T min = 0) {
    const auto parsed = parse_number<T>(value(), min);
    if (!parsed) fail();
    return *parsed;
  }
  /// "ID:HOST:PORT" (e.g. "5:127.0.0.1:47701"); ID and PORT are nonzero.
  PeerSpec peer() {
    const std::string_view spec = value();
    const auto first = spec.find(':');
    const auto last = spec.rfind(':');
    if (first == std::string_view::npos || first == last) fail();
    const auto id = parse_number<std::uint32_t>(spec.substr(0, first), 1);
    const auto port = parse_number<std::uint16_t>(spec.substr(last + 1), 1);
    std::string host(spec.substr(first + 1, last - first - 1));
    if (!id || !port || host.empty()) fail();
    return PeerSpec{*id, std::move(host), *port};
  }
  [[noreturn]] void fail() const {
    usage(argv[0]);
    std::exit(2);
  }
};

/// Dials a peer, retrying for up to ten seconds while its process is
/// still starting up.
inline bool dial_with_retry(transport::TcpTransport& tcp, const PeerSpec& peer) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (tcp.connect_peer(peer.id, peer.host, peer.port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

}  // namespace spider::nodetool
