// The SPIDeR recorder (paper §6.1-6.2, §6.5).
//
// One recorder runs per AS, beside the BGP speaker.  It:
//   * mirrors the speaker's routing state by observing the BGP message
//     flow (the paper's iBGP/eBGP tap);
//   * re-announces every UPDATE to the recorders of adjacent ASes with
//     signatures, batching messages Nagle-style; each flush signs once,
//     over a salted Merkle root of its per-neighbour batches;
//   * acknowledges every batch it receives that carries more than ACKs
//     (the ACK rides the next batch to that neighbour) and raises an alarm
//     when an expected ACK never arrives or mirrored state disagrees with
//     BGP;
//   * appends everything to a tamper-evident log with periodic state
//     checkpoints; and
//   * periodically builds the MTT over its mirrored state and broadcasts
//     the signed commitment (storing only the CSPRNG seed).
//
// Routes learned from neighbors that do not run SPIDeR (e.g. the
// RouteViews trace peer) are logged from the local BGP view instead — the
// incremental-deployment story of §6.7.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/speaker.hpp"
#include "core/mtt.hpp"
#include "core/promise.hpp"
#include "crypto/rsa.hpp"
#include "spider/log.hpp"
#include "spider/messages.hpp"
#include "spider/state.hpp"
#include "transport/transport.hpp"
#include "util/timers.hpp"

namespace spider::proto {

struct RecorderConfig {
  bgp::AsNumber asn = 0;
  std::uint32_t num_classes = 50;
  /// Commitments are generated every commit_interval (paper: 60 s).
  Time commit_interval = 60 * netsim::kMicrosPerSecond;
  /// Outgoing messages are batched and flushed once per window (§6.2);
  /// one flush signs once for all neighbours.
  Time batch_window = 50'000;  // 50 ms
  /// ACKs must arrive within this deadline or the batch is retransmitted;
  /// after max_retransmits the recorder raises an alarm (T_max of §6.2:
  /// "If a router fails to acknowledge m after some time T_max, even after
  /// several retransmissions, the sender raises an alarm").
  Time ack_deadline = 2 * netsim::kMicrosPerSecond;
  int max_retransmits = 3;
  /// Target size of one streamed checkpoint chunk (see
  /// MirrorState::serialize_chunked): full-RIB checkpoints are written and
  /// restored without ever building a contiguous state buffer.
  std::size_t checkpoint_chunk_bytes = 1 << 20;
  /// Received timestamps must be within this skew of the local clock.
  Time max_clock_skew = 5 * netsim::kMicrosPerSecond;
  /// Input-selection window for loose synchronization (δ of §6.4).
  Time delta = 5 * netsim::kMicrosPerSecond;
  /// Labeling threads (c of §7.1).
  unsigned commit_threads = 1;
  /// Secret salt for per-commitment seeds and the flush-window salt key
  /// (deterministic in tests).
  // spider-taint: secret
  std::string seed_salt = "spider-seed";
};

/// §6.4 acceptance window for a received announce's sender timestamp.
/// Asymmetric on purpose: a future-dated timestamp is bounded by the
/// clock-skew assumption alone (a lying clock could otherwise pre-date its
/// way past the mirror's last-writer-wins input ordering), while a
/// past-dated one is tolerated up to skew plus the full retransmit budget
/// — a batch that needed every retransmission arrives late by design, and
/// stale timestamps are harmless anyway (the high-water guard ignores
/// them).  The live recorder and checkpoint+replay reconstruction apply
/// this same predicate (with the logged arrival time standing in for
/// local_now), so the two paths cannot diverge on acceptance.
bool announce_timely(Time announce_timestamp, Time local_arrival, const RecorderConfig& config);

/// The recorder is written against the transport plane (transport.hpp),
/// never the simulator: the same protocol object runs inside the
/// deterministic netsim (NetsimTransport, tests and the chaos matrix) and
/// as a real process over TCP (TcpTransport, tools/spider_node).
class Recorder {
 public:
  /// Elector-side misbehaviors, mirroring §7.4's fault injection.  A
  /// faulty AS controls its own recorder, so the recorder must be able to
  /// lie in the same way its BGP configuration does.
  struct Faults {
    /// "Overaggressive filter": build commitments as if these neighbors
    /// had sent nothing.
    std::set<bgp::AsNumber> ignore_inputs;
    /// Equivocation (§4.5): the commitment broadcast to these neighbors
    /// carries a root with one bit flipped, so the same round has two
    /// different roots in circulation (caught by the cross-check).
    std::set<bgp::AsNumber> equivocate_to;
    /// Withhold the commitment broadcast from these neighbors entirely
    /// (caught as a missing message during verification).
    std::set<bgp::AsNumber> withhold_commit_from;
  };

  /// The recorder installs itself as `transport`'s frame handler; the
  /// endpoint must outlive it.  Peer routing (where a neighbor AS actually
  /// lives) is the backend's concern — see NetsimTransport::register_peer
  /// and TcpTransport::connect_peer.
  Recorder(transport::Endpoint& transport, RecorderConfig config, const crypto::Signer& signer,
           const core::KeyRegistry& keys, bgp::Speaker& speaker);

  /// Declares that `neighbor_as` runs a SPIDeR recorder we exchange signed
  /// batches with.  Each neighbour owns one slot of every flush window,
  /// so a recorder has at most kMaxWindowSlots neighbours.
  void add_neighbor(bgp::AsNumber neighbor_as);

  /// The promise made to a consumer neighbor (the ≤_j of VPref).
  void set_promise(bgp::AsNumber consumer, core::Promise promise);

  /// Installs the speaker observer, logs the initial checkpoint, and
  /// schedules batch flushing (+ periodic commitments when enabled).
  void start(bool schedule_commitments = true);

  /// Crash-restart path (§6.5): adopts `log` as this recorder's log and
  /// rebuilds the mirrored state from its latest checkpoint plus replay of
  /// the messages logged after it — the same acceptance rules as live
  /// processing, so the restored mirror equals the pre-crash one.  Must be
  /// called before start().  Commitment seeds are derived from commitment
  /// timestamps, so a restored recorder can never re-derive a seed that a
  /// pre-crash commitment already used (the restored clock is strictly
  /// ahead of every logged commitment).
  void restore_from(MessageLog log);

  /// Delivery of one frame from the transport (installed as the endpoint's
  /// frame handler by the constructor; public so tests and process runners
  /// can feed frames directly).
  void handle_frame(transport::PeerId from, util::ByteSpan payload);

  /// Invoked after every commitment this recorder logs (process runners
  /// push commit notifications to subscribers from here).  Optional.
  void set_commitment_hook(std::function<void(const CommitmentRecord&)> hook) {
    commitment_hook_ = std::move(hook);
  }

  /// Builds and broadcasts a commitment over the current mirrored state;
  /// returns the log record.  Normally driven by the commit timer.
  const CommitmentRecord& make_commitment();

  /// Flushes pending outgoing batches immediately (normally timer-driven):
  /// one batch per neighbour with pending parts, all under one signature.
  void flush_batches();

  // ------------------------------------------------------------- accessors
  const RecorderConfig& config() const { return config_; }
  const MirrorState& state() const { return state_; }
  const MessageLog& log() const { return log_; }
  const core::PathLengthClassifier& classifier() const { return classifier_; }
  const std::map<bgp::AsNumber, core::Promise>& promises() const { return promises_; }
  /// Bumped by every set_promise(); caches of promise-derived state pin it.
  std::uint64_t promises_version() const { return promises_version_; }
  Faults& faults() { return faults_; }
  const Faults& faults() const { return faults_; }
  const crypto::Signer& signer() const { return signer_; }

  /// Commitments received from each neighbor, by commitment timestamp.
  const std::map<bgp::AsNumber, std::map<Time, SpiderCommit>>& received_commitments() const {
    return received_commitments_;
  }

  /// Raised alarms (missing ACKs, mirror/BGP mismatches, bad signatures).
  const std::vector<std::string>& alarms() const { return alarms_; }

  /// What this AS currently believes it is exporting to / importing from a
  /// neighbor — the checker's ground truth when verifying that neighbor.
  /// `within` keeps only one prefix subtree and walks only that key range
  /// (§7.3 subtree sessions); nullopt = everything.
  std::map<bgp::Prefix, bgp::Route> my_exports_to(
      bgp::AsNumber neighbor, std::optional<bgp::Prefix> within = std::nullopt) const;
  std::map<bgp::Prefix, bgp::Route> my_imports_from(
      bgp::AsNumber neighbor, std::optional<bgp::Prefix> within = std::nullopt) const;

  /// Writes a full checkpoint of the mirrored state into the log now.
  void make_checkpoint();

  /// Discards log entries, checkpoints and commitments older than `cutoff`
  /// (the retention policy of §6.5; R days in the paper).
  void enforce_retention(Time cutoff) { log_.prune_before(cutoff); }

  /// Evidence construction (§6.3): the latest quotable announce (or
  /// withdraw) exchanged with `peer` for `prefix` at or before `until`.
  /// `direction` selects sent (my export) vs received (their export).
  std::optional<MessageQuote> find_announce_quote(LogDirection direction, bgp::AsNumber peer,
                                                  const bgp::Prefix& prefix, Time until) const;
  std::optional<MessageQuote> find_withdraw_quote(LogDirection direction, bgp::AsNumber peer,
                                                  const bgp::Prefix& prefix, Time until) const;

  /// The logged batch from the peer carrying the ACK for the batch with
  /// this digest (ACKs ride ordinary batches), if any.
  std::optional<core::SignedEnvelope> find_ack_for(const Digest20& batch_digest) const;

  // ----------------------------------------------------------- statistics
  /// One per flush window.
  std::uint64_t signatures_performed() const { return signatures_; }
  std::uint64_t verifications_performed() const { return verifications_; }
  std::uint64_t updates_mirrored() const { return updates_mirrored_; }
  std::uint64_t commitments_made() const { return commitments_made_; }
  double sign_cpu_seconds() const { return sign_meter_.total(); }
  double mtt_cpu_seconds() const { return mtt_meter_.total(); }
  double total_cpu_seconds() const { return total_meter_.total(); }
  /// Total bytes this recorder has sent over SPIDeR links.
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void observe_update_out(bgp::AsNumber to, const bgp::Update& update);
  void observe_route_in(bgp::AsNumber from, const bgp::Route& raw,
                        const std::optional<bgp::Route>& imported);
  void observe_withdraw_in(bgp::AsNumber from, const bgp::Prefix& prefix);

  void queue_part(bgp::AsNumber neighbor, SpiderMsgType type, Bytes body);
  void schedule_flush();
  void schedule_commit();
  void process_batch(bgp::AsNumber from, const core::SignedEnvelope& envelope);
  /// Queues the ACK of a received batch for the next flush to `to`.
  void send_ack(bgp::AsNumber to, const Digest20& batch_digest);
  /// Drops dedup entries older than the announce_timely late budget.
  void prune_dedup_state();
  void cross_check_mirror();
  void alarm(std::string what);

  bool verify_now(const core::SignedEnvelope& envelope);
  /// Window PRF keyed by window_key_: 's' derives slot salts, 'd' the
  /// dummy leaves of empty slots, at (flush time, flush seq, slot).
  Digest20 window_prf(char domain, Time at, std::uint64_t seq, std::uint32_t slot) const;

  Time local_now() const;

  /// Seed for the commitment stamped `now`: a function of the timestamp,
  /// never of a counter, so checkpoint restore cannot replay an
  /// already-used seed.
  crypto::Seed commitment_seed(Time now) const;
  /// Marks a prefix changed since the last commitment (no-op while there
  /// is no live tree: the next commitment rebuilds from the mirror anyway).
  void mark_dirty(const bgp::Prefix& prefix);
  /// The MTT root over the current mirror: a fresh build on the first
  /// commitment, after restore or after a global-parameter change, and an
  /// apply of the dirty prefixes against the live tree otherwise.
  Digest20 commit_root(const crypto::Seed& seed);

  transport::Endpoint& transport_;
  RecorderConfig config_;
  const crypto::Signer& signer_;
  const core::KeyRegistry& keys_;
  bgp::Speaker& speaker_;
  core::PathLengthClassifier classifier_;

  std::set<bgp::AsNumber> neighbors_;
  std::map<bgp::AsNumber, core::Promise> promises_;
  std::function<void(const CommitmentRecord&)> commitment_hook_;

  MirrorState state_;
  MessageLog log_;
  /// Raw routes as seen by the local BGP speaker, for the mirror
  /// cross-check (§6.2).
  std::map<bgp::AsNumber, std::map<bgp::Prefix, bgp::Route>> bgp_raw_;

  std::map<bgp::AsNumber, std::vector<SpiderBatch::Part>> pending_parts_;
  struct PendingAck {
    Digest20 digest;
    Time sent_at;
    bgp::AsNumber to;
    Bytes wire;        // retransmission payload
    int attempts = 0;  // transmissions so far
  };
  std::vector<PendingAck> awaiting_ack_;
  /// Digests of sent batches whose ACK already arrived, with the arrival
  /// time.  A second ACK for one of these is benign: when the network
  /// delays our batch past the ACK deadline we retransmit, the neighbor's
  /// dedup re-ACKs, and both ACKs eventually land (likewise when the
  /// network duplicates a batch).  Only an ACK matching neither set is an
  /// actual protocol violation.  Pruned at each commitment.
  std::map<Digest20, Time> satisfied_acks_;
  void schedule_ack_check(const Digest20& digest);
  std::uint64_t retransmissions_ = 0;

 public:
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Entries held for duplicate detection (seen batches + satisfied ACKs).
  std::size_t dedup_entries() const { return seen_batches_.size() + satisfied_acks_.size(); }

 private:

  /// Digest of every batch processed within the retransmit budget, with
  /// whether it was ACKed and when it arrived.  A retransmission (our ACK
  /// was lost) or a network duplicate must not be re-applied — replaying
  /// old announces would regress the mirror — but a previously ACKed
  /// batch is re-ACKed so the sender's retransmit loop terminates.
  /// Pruned at each commitment.
  struct SeenBatch {
    bool acked;
    Time at;
  };
  std::map<Digest20, SeenBatch> seen_batches_;

  /// Key of the window PRF; the salts it derives are never reused, since
  /// (flush time, flush seq) is unique and flush_seq_ resumes past the log
  /// on restore.
  // spider-taint: secret
  crypto::Seed window_key_;
  std::uint64_t flush_seq_ = 0;

  std::map<bgp::AsNumber, std::map<Time, SpiderCommit>> received_commitments_;
  std::vector<std::string> alarms_;
  Faults faults_;

  // Commit state.  The live tree mirrors state_'s table between commits;
  // dirty_prefixes_ accumulates the prefixes whose inputs/exports changed
  // since the last commitment.  The committed_* snapshots detect
  // global-parameter changes (ignore-input faults, promises) that
  // invalidate every prefix's bits at once and force a full rebuild.
  core::Mtt live_tree_;
  bool live_tree_valid_ = false;
  std::set<bgp::Prefix> dirty_prefixes_;
  std::set<bgp::AsNumber> committed_ignored_;
  std::uint64_t promises_version_ = 0;
  std::uint64_t committed_promises_version_ = 0;

  std::uint64_t signatures_ = 0;
  std::uint64_t verifications_ = 0;
  std::uint64_t updates_mirrored_ = 0;
  std::uint64_t commitments_made_ = 0;
  std::uint64_t bytes_sent_ = 0;
  util::CpuMeter sign_meter_;
  util::CpuMeter mtt_meter_;
  util::CpuMeter total_meter_;
  bool flush_scheduled_ = false;
  bool started_ = false;
};

}  // namespace spider::proto
