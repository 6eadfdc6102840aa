// Control-plane wire protocol for multi-process SPIDeR nodes
// (tools/spider_node, tools/spider_loadgen).
//
// Inside one process tree (tests, chaos matrix) recorders exchange raw
// signed-envelope frames over the netsim transport.  Between OS processes
// every TCP frame is instead one NodeFrame: recorder-to-recorder envelopes
// travel as kEnvelope bodies (byte-for-byte the same envelope encoding),
// and everything a deployment harness needs — trace injection, stats
// barriers, commit notifications, log transfer for the proof generator,
// proof delivery to checkers — rides the remaining frame types.
//
// Trust boundaries follow the paper's: kLogSegment checkpoint/commitment
// records contain the elector's secrets (commitment seeds), so a recorder
// only serves kLogRequest to peers its operator explicitly listed (the
// AS's own proof generator, §6.1).  kCommitNotify carries only the public
// SpiderCommit — never the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bgp/route.hpp"
#include "spider/messages.hpp"
#include "transport/transport.hpp"

namespace spider::proto {

enum class NodeFrameType : std::uint8_t {
  /// Recorder-to-recorder signed envelope (the body is exactly what
  /// NetsimTransport would have carried as a whole frame).
  kEnvelope = 1,
  /// Loadgen → recorder: inject one BGP update at the hosted speaker.
  kInject = 2,
  /// Loadgen → node: request a StatsFrame echoing the same token (a
  /// barrier: the reply proves every earlier frame was processed).
  kStatsRequest = 3,
  kStats = 4,
  /// Loadgen → recorder: subscribe to kCommitNotify pushes.
  kSubscribeCommits = 5,
  /// Recorder → subscribers: a commitment was just logged (SpiderCommit
  /// encoding — root only, never the seed).
  kCommitNotify = 6,
  /// Proof generator → recorder: stream me your log (trusted peers only).
  kLogRequest = 7,
  kLogSegment = 8,
  kLogEnd = 9,
  /// Loadgen → proof generator: produce proofs for one commitment.
  kProofRequest = 10,
  kProofBundle = 11,
  /// Loadgen → checker: validate this proof bundle.
  kCheckRequest = 12,
  kCheckResult = 13,
  /// Orchestrator → node: exit the event loop cleanly.
  kShutdown = 14,
};

struct NodeFrame {
  NodeFrameType type = NodeFrameType::kEnvelope;
  Bytes body;

  Bytes encode() const;
  static NodeFrame decode(ByteSpan data);
};

/// One trace update injected at the recorder's hosted speaker, as if
/// received from the (non-SPIDeR) trace peer.  `seq` and `sent_at` come
/// back in stats/latency accounting on the loadgen side.
struct InjectFrame {
  std::uint64_t seq = 0;
  Time sent_at = 0;
  bgp::Update update;

  Bytes encode() const;
  static InjectFrame decode(ByteSpan data);
};

/// Node-side counters, echoed with the request's token.
struct StatsFrame {
  std::uint64_t token = 0;
  std::uint64_t updates_mirrored = 0;
  std::uint64_t commitments_made = 0;
  std::uint64_t alarms = 0;
  std::uint64_t log_entries = 0;

  Bytes encode() const;
  static StatsFrame decode(ByteSpan data);
};

/// One batch of log records during a kLogRequest transfer.  Entries stream
/// in append order so the receiver's rebuilt MessageLog reproduces the
/// identical hash chain (both sides start from seq 0 / zero head).
struct LogSegmentFrame {
  enum Kind : std::uint8_t { kEntries = 0, kCheckpoints = 1, kCommitments = 2 };
  std::uint8_t kind = kEntries;
  std::vector<Bytes> records;  // LogEntry / LogCheckpoint / CommitmentRecord encodings

  Bytes encode() const;
  static LogSegmentFrame decode(ByteSpan data);
};

/// Assigns a prefix to one of `round_count` pipelined challenge rounds.
/// Proof generator and checker evaluate this independently (FNV-1a over
/// the canonical prefix encoding), so a round's membership never has to
/// cross the wire — the request names only (round, round_count) and both
/// sides agree on which prefixes it covers.  round_count <= 1 collapses
/// to the single full-set round.
std::uint32_t proof_round_of(const bgp::Prefix& prefix, std::uint32_t round_count);

struct ProofRequestFrame {
  std::uint32_t elector = 0;
  Time commit_time = 0;
  std::uint32_t consumer = 0;
  /// Pipelined sessions split the prefix space into `round_count` chunks
  /// by proof_round_of and request them as overlapping rounds; this frame
  /// asks for chunk `round`.  round_count <= 1 (the default) keeps the
  /// legacy one-shot semantics: every prefix in one bundle.
  std::uint32_t round = 0;
  std::uint32_t round_count = 0;

  Bytes encode() const;
  static ProofRequestFrame decode(ByteSpan data);
};

/// The proof generator's answer: per-role proof sets for `consumer`, plus
/// whether the replayed root matched the logged commitment (§6.5).
struct ProofBundleFrame {
  std::uint32_t elector = 0;
  Time commit_time = 0;
  std::uint32_t consumer = 0;
  /// Echo of the request's round coordinates, so the checker restricts its
  /// expected window/imports to the same chunk before checking.
  std::uint32_t round = 0;
  std::uint32_t round_count = 0;
  std::uint8_t root_matches = 0;
  Bytes producer_proofs;  // ProducerProofs encoding
  Bytes consumer_proofs;  // ConsumerProofs encoding

  Bytes encode() const;
  static ProofBundleFrame decode(ByteSpan data);
};

struct CheckResultFrame {
  std::uint8_t ok = 0;           // whole round clean
  std::uint8_t producer_ok = 0;  // producer-role check found no fault
  std::uint8_t consumer_ok = 0;  // consumer-role check found no fault
  std::uint8_t root_matches = 0;
  std::string detail;

  Bytes encode() const;
  static CheckResultFrame decode(ByteSpan data);
};

/// transport::Endpoint adapter that wraps recorder envelope traffic in
/// NodeFrame{kEnvelope} and routes every other frame type to a control
/// handler.  A recorder bound to it sees exactly the frame bytes it would
/// see on the wrapped endpoint alone; the node host (or a load generator)
/// sees everything else.  Works over any backend: TcpTransport between
/// processes, NetsimTransport in tests.  A frame that is not a NodeFrame
/// is dropped.
class NodeEndpoint final : public transport::Endpoint {
 public:
  using ControlHandler = std::function<void(transport::PeerId, const NodeFrame&)>;

  /// Installs itself as `inner`'s frame handler (and uninstalls on
  /// destruction); `inner` must outlive it.
  explicit NodeEndpoint(transport::Endpoint& inner);
  ~NodeEndpoint() override { inner_.set_frame_handler({}); }
  NodeEndpoint(const NodeEndpoint&) = delete;
  NodeEndpoint& operator=(const NodeEndpoint&) = delete;

  void set_frame_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  void set_control_handler(ControlHandler handler) { control_ = std::move(handler); }

  bool send(transport::PeerId to, ByteSpan frame) override;
  bool send_control(transport::PeerId to, NodeFrameType type, ByteSpan body);

  void schedule_in(transport::Time delay, std::function<void()> fn) override {
    inner_.schedule_in(delay, std::move(fn));
  }
  transport::Time now() const override { return inner_.now(); }

 private:
  transport::Endpoint& inner_;
  FrameHandler handler_;
  ControlHandler control_;
};

}  // namespace spider::proto
