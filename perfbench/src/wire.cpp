// wire: the real deployment over loopback TCP.  Three single-threaded
// spider_node processes (checker AS 2, recorder AS 5, proof generator 905,
// started with the flags tools/transport_smoke.sh uses and a small class
// count) and this process as the one load generator, holding one
// connection per node.  The timed phase
//
//   1. pushes one-route kInject frames in a closed loop: a window of
//      frames, then a stats barrier, then the next window;
//   2. runs commit-visibility rounds: a small burst, a barrier, then the
//      wait for the recorder's next kCommitNotify; and
//   3. runs one pipelined verification over the sockets.
//
// It is the only workload where the transport (framing, epoll, write
// queues) and the node_wire codecs carry the load, at the smallest frames,
// where per-message cost dominates.  replay and audit use NetsimTransport,
// so a transport change should show no change there.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "trace/routeviews.hpp"
#include "transport/tcp_transport.hpp"
#include "util/serde.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace proto = spider::proto;
namespace trace = spider::trace;
namespace transport = spider::transport;
namespace util = spider::util;
using transport::PeerId;

/// The load generator's peer id doubles as the trace-peer AS number
/// (TraceConfig::peer_as): the recorder's speaker treats it as a
/// neighbor that does not run SPIDeR.
constexpr PeerId kLoadgenId = 1000;
constexpr PeerId kChecker = 2;
constexpr PeerId kRecorder = 5;
constexpr PeerId kProofgen = 905;
constexpr int kClasses = 16;
constexpr int kCommitIntervalMs = 50;
constexpr int kBatchWindowMs = 10;
/// Routes per kInject frame while loading the table during set-up.
constexpr std::size_t kTableRoutesPerFrame = 4;
/// Pipelined verification: the prefix space splits into this many rounds,
/// with at most kVerifyWindow outstanding.
constexpr std::uint32_t kVerifyRounds = 4;
constexpr std::uint32_t kVerifyWindow = 2;
constexpr transport::Time kTimeout = 30'000'000;  // any single wait, in us

struct Size {
  std::size_t prefixes;
  std::size_t window;        // kInject frames between two barriers
  std::size_t windows;       // closed-loop windows in the ingest phase
  std::size_t burst;         // updates per commit-visibility round
  std::size_t rounds;        // commit-visibility rounds
};

constexpr std::size_t kMinRounds = 100;  // a p90 needs 100 samples
/// Calibrated on a 4-vCPU x86-64 VM: a 1000-frame window takes ~25 ms, so
/// at 20 s the ingest phase runs about 12 s.
constexpr double kWindowsPerSecond = 24.0;

Size size_for(const Options& opt) {
  if (opt.tiny) return {256, 100, 3, 20, 5};
  const auto windows = static_cast<std::size_t>(opt.seconds * kWindowsPerSecond + 0.5);
  return {1024, 1000, std::max<std::size_t>(10, windows), 100, kMinRounds};
}

// ------------------------------------------------------------ processes

/// One spider_node child.  The destructor kills and reaps a child that is
/// still running, so no exit path leaves a process behind.
class NodeProcess {
 public:
  NodeProcess(const std::string& bin, const std::vector<std::string>& args,
              const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + bin);
  }
  ~NodeProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      reap(/*block=*/true);
    }
  }
  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  /// Waits up to `timeout_s` for a clean exit; kills the child after that.
  /// Returns true when it exited with status 0 on its own.
  bool wait_exit(double timeout_s) {
    const double deadline = wall_now() + timeout_s;
    while (pid_ > 0 && wall_now() < deadline) {
      if (reap(/*block=*/false)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      reap(/*block=*/true);
      return false;
    }
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }

  double cpu_s() const { return cpu_s_; }
  double max_rss_mb() const { return max_rss_mb_; }

 private:
  bool reap(bool block) {
    rusage usage{};
    const pid_t got = wait4(pid_, &status_, block ? 0 : WNOHANG, &usage);
    if (got != pid_) return false;
    pid_ = -1;
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    cpu_s_ = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    max_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return true;
  }

  pid_t pid_ = -1;
  int status_ = 0;
  double cpu_s_ = 0;
  double max_rss_mb_ = 0;
};

std::uint16_t wait_port(const std::string& path) {
  const double deadline = wall_now() + 10.0;
  while (wall_now() < deadline) {
    std::ifstream in(path);
    unsigned port = 0;
    if (in >> port && port != 0) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("node did not publish its port in " + path);
}

// ------------------------------------------------------------- the client

/// The load generator's side of the three connections.
struct Client {
  transport::TcpTransport tcp{kLoadgenId};
  std::optional<proto::StatsFrame> last_stats;
  std::vector<proto::SpiderCommit> commits;
  std::vector<double> commit_arrivals;
  std::vector<util::Bytes> bundles;  // ProofBundleFrame bodies, arrival order
  std::vector<proto::CheckResultFrame> results;
  std::uint64_t unexpected = 0;

  Client() {
    tcp.set_frame_handler([this](PeerId, util::ByteSpan bytes) {
      const proto::NodeFrame frame = proto::NodeFrame::decode(bytes);
      switch (frame.type) {
        case proto::NodeFrameType::kStats:
          last_stats = proto::StatsFrame::decode(frame.body);
          break;
        case proto::NodeFrameType::kCommitNotify:
          commits.push_back(proto::SpiderCommit::decode(frame.body));
          commit_arrivals.push_back(wall_now());
          break;
        case proto::NodeFrameType::kProofBundle:
          bundles.push_back(frame.body);
          break;
        case proto::NodeFrameType::kCheckResult:
          results.push_back(proto::CheckResultFrame::decode(frame.body));
          break;
        default:
          ++unexpected;
      }
    });
  }

  bool pump_until(const std::function<bool()>& done) {
    const transport::Time deadline = tcp.now() + kTimeout;
    while (!done() && tcp.now() < deadline) tcp.poll_once(10'000);
    return done();
  }

  /// Sends one encoded node frame, absorbing backpressure by pumping the
  /// loop.
  bool send_frame(PeerId to, const util::Bytes& frame) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      if (tcp.send(to, frame)) return true;
      if (!tcp.peer_connected(to)) return false;
      tcp.poll_once(1'000);
    }
    return false;
  }
  bool send(PeerId to, proto::NodeFrameType type, util::Bytes body) {
    return send_frame(to, proto::NodeFrame{type, std::move(body)}.encode());
  }

  /// Stats barrier: the reply proves `peer` handled every earlier frame.
  std::optional<proto::StatsFrame> barrier(PeerId peer, std::uint64_t token) {
    auto span = tracer().scope("wire/barrier_wait");
    last_stats.reset();
    util::ByteWriter w;
    w.u64(token);
    if (!send(peer, proto::NodeFrameType::kStatsRequest, w.take())) return std::nullopt;
    if (!pump_until([&] { return last_stats && last_stats->token == token; })) {
      return std::nullopt;
    }
    return last_stats;
  }
};

/// Encodes one kInject node frame per update.
std::vector<util::Bytes> encode_injects(const std::vector<spider::bgp::Update>& updates,
                                        std::uint64_t first_seq) {
  auto span = tracer().scope("spider/node_wire_encode");
  std::vector<util::Bytes> frames;
  frames.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    proto::InjectFrame inject;
    inject.seq = first_seq + i;
    inject.update = updates[i];
    frames.push_back(proto::NodeFrame{proto::NodeFrameType::kInject, inject.encode()}.encode());
  }
  return frames;
}

/// A running three-node deployment plus the connected client.
struct Deployment {
  std::vector<std::unique_ptr<NodeProcess>> nodes;  // checker, recorder, proofgen
  std::unique_ptr<Client> client;
  std::uint64_t next_seq = 0;
  std::uint64_t next_token = 1;

  bool send_updates(const std::vector<spider::bgp::Update>& updates) {
    const std::vector<util::Bytes> frames = encode_injects(updates, next_seq);
    next_seq += updates.size();
    auto span = tracer().scope("transport/send");
    for (const util::Bytes& frame : frames) {
      if (!client->send_frame(kRecorder, frame)) return false;
    }
    return true;
  }
  std::optional<proto::StatsFrame> barrier() { return client->barrier(kRecorder, next_token++); }

  /// Asks every node to exit and reaps it.  Returns false if one did not
  /// exit cleanly.
  bool shut_down() {
    for (PeerId peer : {kChecker, kProofgen, kRecorder}) {
      client->send(peer, proto::NodeFrameType::kShutdown, {});
    }
    client->tcp.run_for(100'000);  // let the frames drain before closing
    client.reset();
    bool clean = true;
    for (auto& node : nodes) clean &= node->wait_exit(10.0);
    return clean;
  }
};

Deployment start_nodes(const Options& opt, int instance) {
  const std::string dir = opt.work_dir + "/wire" + std::to_string(instance);
  Deployment d;
  auto start = [&](const std::string& role, std::vector<std::string> args) {
    const std::string port_file = dir + "-" + role + ".port";
    std::remove(port_file.c_str());
    args.insert(args.end(), {"--role", role, "--num-classes", std::to_string(kClasses),
                             "--listen", "0", "--port-file", port_file});
    d.nodes.push_back(std::make_unique<NodeProcess>(opt.node_bin, args, dir + "-" + role + ".log"));
    return wait_port(port_file);
  };
  const auto interval = std::to_string(kCommitIntervalMs);
  const auto window = std::to_string(kBatchWindowMs);
  const std::uint16_t cport = start("checker", {"--as", "2", "--neighbor", "5"});
  const std::uint16_t rport =
      start("recorder", {"--as", "5", "--neighbor", "2", "--peer",
                         "2:127.0.0.1:" + std::to_string(cport), "--trust", "905",
                         "--commit-interval-ms", interval, "--batch-window-ms", window});
  const std::uint16_t pport =
      start("proofgen", {"--id", "905", "--neighbor", "2", "--peer",
                         "5:127.0.0.1:" + std::to_string(rport), "--elector", "5",
                         "--commit-interval-ms", interval, "--batch-window-ms", window});
  d.client = std::make_unique<Client>();
  d.client->tcp.listen_on(0);  // sets up the event loop; nothing dials us
  for (auto [peer, port] : {std::pair<PeerId, std::uint16_t>{kChecker, cport},
                            {kRecorder, rport},
                            {kProofgen, pport}}) {
    if (!d.client->tcp.connect_peer(peer, "127.0.0.1", port)) {
      throw std::runtime_error("cannot dial node " + std::to_string(peer));
    }
  }
  if (!d.client->send(kRecorder, proto::NodeFrameType::kSubscribeCommits, {})) {
    throw std::runtime_error("cannot subscribe to commitments");
  }
  return d;
}

/// Set-up: trace generation, node processes started, table injected and
/// the first commit notification after it received.
struct Setup {
  trace::RouteViewsTrace trace;
  Deployment deployment;
  double generate_s = 0;
};

Setup set_up(const Options& opt, const Size& size, int instance) {
  Setup s;
  trace::TraceConfig tc;
  tc.num_prefixes = size.prefixes;
  tc.num_updates = size.window * size.windows + size.burst * size.rounds;
  tc.seed = opt.seed;
  tc.peer_as = kLoadgenId;
  {
    const double t0 = wall_now();
    auto span = tracer().scope("trace/generate");
    s.trace = trace::generate(tc);
    s.generate_s = wall_now() - t0;
  }
  s.deployment = start_nodes(opt, instance);
  Deployment& d = s.deployment;
  std::vector<spider::bgp::Update> table;
  for (std::size_t i = 0; i < s.trace.rib_snapshot.size(); i += kTableRoutesPerFrame) {
    spider::bgp::Update update;
    for (std::size_t k = i; k < std::min(i + kTableRoutesPerFrame, s.trace.rib_snapshot.size());
         ++k) {
      update.announced.push_back(s.trace.rib_snapshot[k]);
    }
    table.push_back(std::move(update));
  }
  if (!d.send_updates(table) || !d.barrier()) throw std::runtime_error("table injection failed");
  const std::size_t seen = d.client->commits.size();
  if (!d.client->pump_until([&] { return d.client->commits.size() > seen; })) {
    throw std::runtime_error("no commitment after the table load");
  }
  return s;
}

}  // namespace

Result run_wire(const Options& opt) {
  const Size size = size_for(opt);
  Tracer& tr = tracer();
  Result result;

  std::vector<double> setup_times, generate_times;
  std::optional<Setup> s;
  for (int i = 0; i < opt.setups; ++i) {
    if (s && !s->deployment.shut_down()) result.fail("a set-up node did not exit cleanly");
    s.reset();
    const double t0 = wall_now();
    s = set_up(opt, size, i);
    setup_times.push_back(wall_now() - t0);
    generate_times.push_back(s->generate_s);
  }
  Deployment& d = s->deployment;
  Client& client = *d.client;
  const std::vector<trace::TraceEvent>& events = s->trace.events;
  auto slice = [&](std::size_t from, std::size_t count) {
    std::vector<spider::bgp::Update> out;
    for (std::size_t i = from; i < from + count; ++i) out.push_back(events[i].update);
    return out;
  };

  ObsDelta delta;
  delta.before = obs_snapshot();
  const std::size_t mark = tr.mark();
  const double cpu0 = process_cpu_now();
  const double wall0 = wall_now();
  auto fatal = [&](const std::string& what) {
    result.fail(what);
    return result;
  };

  // 1. Closed-loop ingest.
  const auto before = d.barrier();
  if (!before) return fatal("pre-ingest barrier");
  std::size_t next = 0;
  const double ingest0 = wall_now();
  for (std::size_t w = 0; w < size.windows; ++w, next += size.window) {
    if (!d.send_updates(slice(next, size.window))) return fatal("ingest send");
    if (!d.barrier()) return fatal("ingest barrier");
  }
  const double ingest_wall = wall_now() - ingest0;
  const std::size_t ingested = next;

  // 2. Commit visibility: burst, barrier, wait for the next notification.
  std::vector<double> visible_ms;
  for (std::size_t round = 0; round < size.rounds; ++round, next += size.burst) {
    if (!d.send_updates(slice(next, size.burst))) return fatal("burst send");
    if (!d.barrier()) return fatal("burst barrier");
    const double ingested_at = wall_now();
    const std::size_t seen = client.commits.size();
    auto span = tr.scope("wire/commit_wait");
    if (!client.pump_until([&] { return client.commits.size() > seen; })) {
      return fatal("no commitment notification");
    }
    visible_ms.push_back((client.commit_arrivals.back() - ingested_at) * 1e3);
  }
  const auto after = d.barrier();
  if (!after) return fatal("final barrier");

  // 3. One pipelined verification of the latest commitment.
  const proto::Time commit_time = client.commits.back().timestamp;
  std::uint32_t requested = 0;
  std::size_t relayed = 0;
  auto request = [&](std::uint32_t round) {
    proto::ProofRequestFrame frame;
    frame.elector = kRecorder;
    frame.commit_time = commit_time;
    frame.consumer = kChecker;
    frame.round = round;
    frame.round_count = kVerifyRounds;
    return client.send(kProofgen, proto::NodeFrameType::kProofRequest, frame.encode());
  };
  {
    auto span = tr.scope("wire/verify");
    while (requested < kVerifyWindow) {
      if (!request(requested++)) return fatal("proof request");
    }
    while (client.results.size() < kVerifyRounds) {
      while (relayed < client.bundles.size()) {
        if (!client.send(kChecker, proto::NodeFrameType::kCheckRequest, client.bundles[relayed])) {
          return fatal("check request");
        }
        ++relayed;
        if (requested < kVerifyRounds && !request(requested++)) return fatal("proof request");
      }
      const std::size_t bundles = client.bundles.size(), results = client.results.size();
      if (!client.pump_until([&] {
            return client.bundles.size() > bundles || client.results.size() > results;
          })) {
        return fatal("verification stalled");
      }
    }
  }
  const double wall = wall_now() - wall0;
  const double loadgen_cpu = process_cpu_now() - cpu0;
  delta.after = obs_snapshot();

  // --- Correctness: every update mirrored, no recorder alarm, every
  // verification round clean with a matching replayed root, no rejected
  // send.
  const std::uint64_t sent = next;
  result.attempted += sent;
  const std::uint64_t mirrored = after->updates_mirrored - before->updates_mirrored;
  if (mirrored != sent) {
    result.failed += sent > mirrored ? sent - mirrored : 1;
    result.failures.push_back("recorder mirrored " + std::to_string(mirrored) + " of " +
                              std::to_string(sent) + " updates");
  }
  for (std::uint64_t i = 0; i < after->alarms; ++i) result.fail("recorder alarm");
  const std::uint64_t rejects = delta.counter("transport/backpressure_rejects");
  for (std::uint64_t i = 0; i < rejects; ++i) result.fail("backpressure reject");
  if (client.unexpected != 0) result.fail("unexpected node frames");
  double proof_bytes = 0, proof_items = 0;
  for (std::uint32_t round = 0; round < kVerifyRounds; ++round) {
    ++result.attempted;
    const proto::CheckResultFrame& check = client.results[round];
    const proto::ProofBundleFrame bundle = proto::ProofBundleFrame::decode(client.bundles[round]);
    if (!check.ok || !bundle.root_matches) {
      result.fail("verification round " + std::to_string(round) + ": " + check.detail);
    }
    proof_bytes += static_cast<double>(bundle.producer_proofs.size() +
                                       bundle.consumer_proofs.size());
    proof_items +=
        static_cast<double>(proto::ProducerProofs::decode(bundle.producer_proofs).items.size() +
                            proto::ConsumerProofs::decode(bundle.consumer_proofs).items.size());
  }
  if (!d.shut_down()) result.fail("a node did not exit cleanly");
  double nodes_cpu = 0, nodes_rss = 0;
  for (const auto& node : d.nodes) {
    nodes_cpu += node->cpu_s();
    nodes_rss = std::max(nodes_rss, node->max_rss_mb());
  }
  if (proof_items == 0) return fatal("verification shipped no proofs");

  result.timed_wall = wall;
  result.items = static_cast<double>(sent);
  auto& m = result.metrics;
  if (!opt.trace) {
    m["setup_s"] = median(setup_times);
    m["throughput_per_s"] = static_cast<double>(ingested) / ingest_wall;
    m["op_ms_p50"] = percentile(visible_ms, 0.5);
    m["op_ms_p90"] = percentile(visible_ms, 0.9);
    m["bytes_per_item"] = proof_bytes / proof_items;
    m["cpu_us_per_item"] = (loadgen_cpu + nodes_cpu) / static_cast<double>(sent) * 1e6;
    m["peak_rss_mb"] = nodes_rss;
    return result;
  }

  const double updates = static_cast<double>(sent);
  library_ledger(delta, wall, m);  // this process signs and hashes nothing
  m["spider.node_wire_encode_frac"] = tr.total("spider/node_wire_encode", mark) / wall;
  m["transport.send_frac"] = tr.total("transport/send", mark) / wall;
  m["transport.bytes_per_update"] =
      static_cast<double>(delta.counter("transport/bytes_out")) / updates;
  m["transport.max_queued_bytes"] =
      static_cast<double>(delta.gauge("transport/max_queued_bytes"));
  m["transport.backpressure_rejects"] = static_cast<double>(rejects);
  m["wire.barrier_wait_frac"] = tr.total("wire/barrier_wait", mark) / wall;
  m["trace.generate_s"] = median(generate_times);
  m["trace.attributed_frac"] = tr.attributed({}, mark) / wall;
  complete_ledger(m);
  return result;
}

}  // namespace perfbench
