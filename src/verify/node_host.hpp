// One SPIDeR node: the recorder, checker or proof-generator role of one AS
// (paper §6.1), served over node_wire control frames on any transport —
// TcpTransport between processes (tools/spider_node), NetsimTransport in
// tests.  The protocol objects are the classes the in-process deployment
// runs.
//
//   recorder  The AS's BGP speaker + recorder.  Trace updates arrive as
//             kInject (the RouteViews peer of §7.1); recorder traffic to
//             peer nodes rides kEnvelope.  Pushes kCommitNotify to
//             subscribers, keeps two committed rounds of log (§6.5) and
//             serves it to trusted peers (its own proof generator).
//   checker   A neighbour AS's recorder (no commitments) that validates
//             proof bundles on kCheckRequest against the commitment it
//             received.
//   proofgen  The elector's proof generator (§6.5): one shadow recorder,
//             refreshed by log transfer + restore_from, answers
//             kProofRequest from ProofGenerator::reconstruction, so every
//             round of a session on one commitment shares one rebuild.
//
// A control frame whose body does not decode is dropped and counted
// (node/control_frame_errors); the node keeps serving.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "verify/session.hpp"

namespace spider::verify {

enum class NodeRole : std::uint8_t { kRecorder, kChecker, kProofgen };

struct NodeConfig {
  NodeRole role = NodeRole::kRecorder;
  /// AS number of the hosted recorder (recorder, checker); the proof
  /// generator's own peer id.
  std::uint32_t id = 0;
  /// The hosted recorder's SPIDeR neighbours.
  std::vector<std::uint32_t> neighbors;
  /// Recorder: peers allowed to fetch its log (its own proof generator).
  std::set<transport::PeerId> trusted_log_peers;
  /// Proof generator: the AS whose log it fetches and proves for.
  std::uint32_t elector = 0;
  std::uint32_t num_classes = 50;
  proto::Time commit_interval = 60'000'000;
  proto::Time batch_window = 10'000;
};

/// The recorder-hosting setup every role shares (node_host.cpp).
struct HostedRecorder;

class NodeHost {
 public:
  /// Binds the role to `transport` (which must outlive the host) and
  /// starts it: the recorder's commit cadence, the checker's mirror-log
  /// retention.  `on_stop` runs on kShutdown.
  NodeHost(transport::Endpoint& transport, NodeConfig config,
           std::function<void()> on_stop = {});
  ~NodeHost();
  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Handles one control frame (the endpoint's control handler; public so
  /// tests and fuzzers can feed frames directly).  Never throws on
  /// malformed input.
  void handle_control(transport::PeerId from, const proto::NodeFrame& frame);

  /// One summary line of the role's counters (no trailing newline).
  std::string summary() const;

  const NodeConfig& config() const { return config_; }
  /// The hosted recorder: the AS's own (recorder, checker) or the
  /// elector's shadow (proofgen).
  proto::Recorder& recorder();
  /// The proof generator bound to the shadow (proofgen only).
  proto::ProofGenerator& proof_generator() { return *generator_; }
  std::uint64_t control_frame_errors() const { return control_frame_errors_; }

 private:
  void dispatch(transport::PeerId from, const proto::NodeFrame& frame);
  void send_stats(transport::PeerId to, const proto::NodeFrame& request);
  void on_commitment(const proto::CommitmentRecord& record);
  void send_log(transport::PeerId to);
  void schedule_checker_retention();
  void check(transport::PeerId from, const proto::NodeFrame& frame);
  CachedProofVerifier& verifier_for(std::uint32_t elector, proto::Time commit_time);
  void serve_proof_requests();
  void answer_proof_request(transport::PeerId requester, const proto::ProofRequestFrame& request);
  void finish_transfer();

  NodeConfig config_;
  std::function<void()> on_stop_;
  proto::NodeEndpoint endpoint_;
  std::unique_ptr<HostedRecorder> hosted_;
  std::uint64_t control_frame_errors_ = 0;

  // Recorder.
  std::set<transport::PeerId> commit_subscribers_;
  std::uint64_t injects_since_drain_ = 0;
  std::vector<proto::Time> checkpoint_times_;

  // Checker: one memoizing verifier per (elector, commitment) under
  // check, oldest first, bounded like log retention.
  std::deque<std::pair<std::pair<std::uint32_t, proto::Time>, CachedProofVerifier>> verifiers_;

  // Proof generator.
  std::unique_ptr<proto::ProofGenerator> generator_;
  /// Memoizes proof material across the rounds of a session; valid for
  /// exactly the reconstruction it is tied to.
  std::shared_ptr<const proto::ProofGenerator::Reconstruction> memo_recon_;
  std::unique_ptr<core::MttProofMemo> memo_;
  struct QueuedRequest {
    transport::PeerId requester = 0;
    proto::ProofRequestFrame request;
  };
  /// Requests in arrival order; at most one log transfer in flight.
  std::deque<QueuedRequest> waiting_;
  struct Transfer {
    std::vector<util::Bytes> entries, checkpoints, commitments;
    bool corrupt = false;  // a segment failed to decode
  };
  std::optional<Transfer> transfer_;
  std::uint64_t requests_answered_ = 0;
  std::uint64_t reconstructions_ = 0;
  std::uint64_t recon_cache_hits_ = 0;
};

}  // namespace spider::verify
