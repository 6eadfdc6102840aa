// The client side of node_wire: what drives verify::NodeHost nodes from
// outside — the §7.1 trace peer injecting updates, stats barriers, commit
// subscriptions and the §6.1 session that requests proofs from the
// elector's proof generator and relays each bundle to a checker.  Runs
// over any transport: TcpTransport in tools/spider_loadgen,
// NetsimTransport in tests.
//
// The client never blocks on its own.  Every wait runs `step`, one turn
// of the caller's event loop (one TcpTransport::poll_once, one simulated
// millisecond), until the reply arrives or a deadline on endpoint.now()
// passes.  A reply whose body does not decode, or whose type no client
// request produces, is dropped and counted (node_client/frames_dropped),
// as NodeHost does for control frames.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "spider/node_wire.hpp"

namespace spider::verify {

class NodeClient {
 public:
  /// Runs one turn of the caller's event loop.
  using Step = std::function<void()>;

  /// How long any one reply may take: a proof generator's first round
  /// reconstructs the elector's whole table.
  static constexpr transport::Time kReplyTimeout = 120'000'000;
  /// How long send() retries a frame the transport refuses (backpressure,
  /// or a peer it cannot reach).
  static constexpr transport::Time kSendRetry = 1'000'000;
  /// A verification session's rounds (proof_round_of chunks) and how many
  /// proof requests it keeps outstanding.
  static constexpr std::uint32_t kRounds = 4;
  static constexpr std::uint32_t kWindow = 2;

  struct Commit {
    proto::SpiderCommit commit;
    transport::Time arrived_at = 0;  // endpoint.now() when the notification arrived
  };
  /// One round of a verification session.
  struct Round {
    proto::ProofBundleFrame bundle;
    proto::CheckResultFrame result;
  };

  /// Installs itself as `endpoint`'s frame handler; `endpoint` must outlive
  /// the client.
  NodeClient(transport::Endpoint& endpoint, Step step);
  NodeClient(const NodeClient&) = delete;
  NodeClient& operator=(const NodeClient&) = delete;

  /// Sends one control frame, stepping the loop while the transport
  /// refuses it, for at most kSendRetry.
  bool send(transport::PeerId to, proto::NodeFrameType type, util::ByteSpan body);

  /// Subscribes to `recorder`'s commitment notifications.
  bool subscribe(transport::PeerId recorder);

  /// One kInject frame per update, numbered on from the last frame built.
  /// Built apart from inject() so a timed burst holds the recorder's work,
  /// not the encoding.
  std::vector<util::Bytes> inject_frames(const std::vector<bgp::Update>& updates);
  /// Sends frames from inject_frames to `recorder`.
  bool inject(transport::PeerId recorder, const std::vector<util::Bytes>& frames);

  /// Stats barrier: `peer`'s counters, once it has handled every frame
  /// this client sent it before (frames on one connection are handled in
  /// order).
  std::optional<proto::StatsFrame> barrier(transport::PeerId peer);

  /// The first commitment notification to arrive after this call.
  std::optional<Commit> await_commit();

  /// One pipelined session on `elector`'s commitment at `commit_time`: the
  /// kRounds chunks are requested from `proofgen` with at most kWindow
  /// outstanding, and each bundle is relayed to `checker` as it arrives.
  /// Returns every round in order, or nullopt when a send fails or a reply
  /// misses its deadline.
  std::optional<std::vector<Round>> verify(std::uint32_t elector, proto::Time commit_time,
                                           transport::PeerId proofgen, transport::PeerId checker);

  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  void handle_control(const proto::NodeFrame& frame);
  bool wait_until(const std::function<bool()>& done, transport::Time timeout);

  proto::NodeEndpoint endpoint_;
  Step step_;
  std::uint64_t next_token_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::optional<proto::StatsFrame> stats_;
  std::optional<Commit> last_commit_;
  // Replies of the session in flight, in arrival order; bundles and
  // results that arrive outside a session are discarded.
  bool in_session_ = false;
  std::deque<proto::ProofBundleFrame> bundles_;
  std::deque<proto::CheckResultFrame> results_;
};

}  // namespace spider::verify
