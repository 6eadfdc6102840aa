// spider_node — one SPIDeR node as an OS process over loopback TCP.
//
// Three roles, matching the paper's per-AS components (§6.1):
//
//   --role recorder   Hosts a BGP speaker plus the AS's recorder.  Trace
//                     updates arrive as kInject frames (the RouteViews
//                     peer of §7.1, delivered over TCP instead of a sim
//                     link); recorder-to-recorder traffic (signed batches,
//                     ACKs, commitments) flows to peered spider_nodes as
//                     kEnvelope frames.  Serves its message log to
//                     explicitly trusted peers (its own proof generator)
//                     and pushes kCommitNotify to subscribers.
//
//   --role checker    Hosts the neighbor AS's recorder (started without
//                     commitments), mirroring what the elector sends it;
//                     on kCheckRequest validates a proof bundle against
//                     the commitment it received (§6.1 checker).
//
//   --role proofgen   The elector's proof generator as its own process
//                     (§6.5): fetches the recorder's log over TCP,
//                     rebuilds it, reconstructs checkpoint+replay state,
//                     and answers kProofRequest with per-neighbor proofs.
//
// The protocol objects are the same classes the deterministic netsim tests
// run; only the transport differs (TcpTransport vs NetsimTransport).
//
//   spider_node --role recorder --as 5 --listen 47701 --neighbor 2
//       --peer 2:127.0.0.1:47702 --trust 905 --commit-interval-ms 250
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/speaker.hpp"
#include "node_common.hpp"
#include "spider/checker.hpp"
#include "spider/proof_generator.hpp"
#include "transport/netsim_transport.hpp"
#include "util/serde.hpp"
#include "verify/session.hpp"

using namespace spider;
using nodetool::NodeEndpoint;
using nodetool::PeerSpec;
using transport::PeerId;

namespace {

struct Options {
  std::string role;
  std::uint32_t id = 0;  // AS number for recorder/checker; plain id for proofgen
  std::uint16_t listen = 0;
  std::string port_file;
  std::vector<PeerSpec> peers;
  std::vector<std::uint32_t> neighbors;  // the hosted recorder's SPIDeR neighbors
  std::set<PeerId> trusted_log_peers;
  std::uint32_t elector = 0;  // proofgen: whose log to fetch
  std::uint32_t num_classes = 50;
  std::int64_t commit_interval = 60'000'000;
  std::int64_t batch_window = 10'000;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --role recorder|checker|proofgen --as N --listen PORT\n"
               "          [--port-file FILE] [--peer ID:HOST:PORT]... [--neighbor AS]...\n"
               "          [--trust PEERID]... [--elector AS] [--num-classes N]\n"
               "          [--commit-interval-ms N] [--batch-window-ms N]\n",
               argv0);
  return 2;
}

/// Everything a recorder-hosting role owns; the checker role reuses it
/// with commitments disabled.
struct HostedRecorder {
  netsim::Simulator sim;
  netsim::NodeId speaker_node = 0;
  std::unique_ptr<bgp::Speaker> speaker;
  core::KeyRegistry keys;
  std::unique_ptr<crypto::HashSigner> signer;
  std::unique_ptr<proto::Recorder> recorder;

  HostedRecorder(NodeEndpoint& endpoint, const Options& opt) {
    speaker = std::make_unique<bgp::Speaker>(sim, opt.id, bgp::Policy{});
    speaker_node = sim.add_node(*speaker, "bgp-as" + std::to_string(opt.id));

    std::set<std::uint32_t> key_ases{opt.id};
    for (std::uint32_t neighbor : opt.neighbors) key_ases.insert(neighbor);
    nodetool::add_keys(keys, key_ases);
    signer = std::make_unique<crypto::HashSigner>(nodetool::key_of(opt.id));

    proto::RecorderConfig rc;
    rc.asn = opt.id;
    rc.num_classes = opt.num_classes;
    rc.commit_interval = opt.commit_interval;
    rc.batch_window = opt.batch_window;
    recorder = std::make_unique<proto::Recorder>(endpoint, rc, *signer, keys, *speaker);

    for (std::uint32_t neighbor : opt.neighbors) {
      // Observed-only: the export pipeline (policy, adj-rib-out, mirror
      // hooks) runs, but nothing is encoded into the local sim — the real
      // neighbor router lives in another process.
      speaker->add_observed_neighbor(neighbor);
      recorder->add_neighbor(neighbor);
      recorder->set_promise(neighbor, core::Promise::total_order(opt.num_classes));
    }
  }

  proto::StatsFrame stats(std::uint64_t token) const {
    proto::StatsFrame frame;
    frame.token = token;
    frame.updates_mirrored = recorder->updates_mirrored();
    frame.commitments_made = recorder->commitments_made();
    frame.alarms = recorder->alarms().size();
    frame.log_entries = recorder->log().entries().size();
    return frame;
  }
};

// --------------------------------------------------------------- recorder

int run_recorder(transport::TcpTransport& tcp, NodeEndpoint& endpoint, const Options& opt) {
  HostedRecorder host(endpoint, opt);
  std::set<PeerId> commit_subscribers;
  std::uint64_t injects_since_drain = 0;
  std::vector<proto::Time> checkpoint_times;

  host.recorder->set_commitment_hook([&](const proto::CommitmentRecord& record) {
    // Public commitment only — the record's seed never leaves this AS
    // except through the trusted log channel to its own proof generator.
    proto::SpiderCommit commit;
    commit.timestamp = record.timestamp;
    commit.from_as = opt.id;
    commit.num_classes = record.num_classes;
    commit.root = record.root;
    const util::Bytes body = commit.encode();
    for (PeerId subscriber : commit_subscribers) {
      endpoint.send_control(subscriber, proto::NodeFrameType::kCommitNotify, body);
    }

    // §6.5 retention: checkpoint the committed round and keep two rounds
    // of history.  A proof request for this commitment — or the previous
    // one, possibly in flight — replays from the surviving window, while
    // older entries are pruned so the log stops growing with ingest.
    host.recorder->make_checkpoint();
    checkpoint_times.push_back(host.recorder->log().checkpoints().back().timestamp);
    if (checkpoint_times.size() >= 3) {
      host.recorder->enforce_retention(checkpoint_times[checkpoint_times.size() - 3]);
      checkpoint_times.erase(checkpoint_times.begin(), checkpoint_times.end() - 3);
    }
  });

  endpoint.set_control_handler([&](PeerId from, const proto::NodeFrame& frame) {
    switch (frame.type) {
      case proto::NodeFrameType::kInject: {
        proto::InjectFrame inject = proto::InjectFrame::decode(frame.body);
        // The sender's peer id doubles as the trace-peer AS number: an
        // unregistered speaker neighbor, i.e. a non-SPIDeR peer (§6.7).
        // The observer hooks fire synchronously inside inject(); any
        // queued sim events (batch-window timers) are drained in batches
        // so their cost stays off the per-update path.
        host.speaker->inject(from, inject.update);
        if (++injects_since_drain >= 256) {
          host.sim.run_until(host.sim.now() + 2);
          injects_since_drain = 0;
        }
        break;
      }
      case proto::NodeFrameType::kStatsRequest: {
        util::ByteReader r(frame.body);
        const std::uint64_t token = r.u64();
        r.expect_end();
        endpoint.send_control(from, proto::NodeFrameType::kStats, host.stats(token).encode());
        break;
      }
      case proto::NodeFrameType::kSubscribeCommits:
        commit_subscribers.insert(from);
        break;
      case proto::NodeFrameType::kLogRequest: {
        if (opt.trusted_log_peers.count(from) == 0) {
          std::fprintf(stderr, "refusing log request from untrusted peer %u\n", from);
          break;
        }
        const proto::MessageLog& log = host.recorder->log();
        constexpr std::size_t kBatch = 256;
        proto::LogSegmentFrame segment;
        segment.kind = proto::LogSegmentFrame::kEntries;
        for (const proto::LogEntry& entry : log.entries()) {
          segment.records.push_back(entry.encode());
          if (segment.records.size() == kBatch) {
            endpoint.send_control(from, proto::NodeFrameType::kLogSegment, segment.encode());
            segment.records.clear();
          }
        }
        if (!segment.records.empty()) {
          endpoint.send_control(from, proto::NodeFrameType::kLogSegment, segment.encode());
        }
        proto::LogSegmentFrame checkpoints;
        checkpoints.kind = proto::LogSegmentFrame::kCheckpoints;
        for (const proto::LogCheckpoint& cp : log.checkpoints()) {
          checkpoints.records.push_back(cp.encode());
        }
        endpoint.send_control(from, proto::NodeFrameType::kLogSegment, checkpoints.encode());
        proto::LogSegmentFrame commitments;
        commitments.kind = proto::LogSegmentFrame::kCommitments;
        for (const auto& [time, record] : log.commitments()) {
          commitments.records.push_back(record.encode());
        }
        endpoint.send_control(from, proto::NodeFrameType::kLogSegment, commitments.encode());
        endpoint.send_control(from, proto::NodeFrameType::kLogEnd, {});
        break;
      }
      case proto::NodeFrameType::kShutdown:
        tcp.stop();
        break;
      default:
        std::fprintf(stderr, "recorder: unexpected frame type %u from peer %u\n",
                     static_cast<unsigned>(frame.type), from);
    }
  });

  host.recorder->start(/*schedule_commitments=*/true);
  tcp.run();
  std::printf("spider_node recorder as=%u: %llu updates mirrored, %llu commitments, %zu alarms\n",
              opt.id, static_cast<unsigned long long>(host.recorder->updates_mirrored()),
              static_cast<unsigned long long>(host.recorder->commitments_made()),
              host.recorder->alarms().size());
  return 0;
}

// ---------------------------------------------------------------- checker

int run_checker(transport::TcpTransport& tcp, NodeEndpoint& endpoint, const Options& opt) {
  HostedRecorder host(endpoint, opt);

  // One memoizing verifier per commitment under check: bit proofs for the
  // rounds of one pipelined session share their interior fold chains, so
  // the session's later rounds skip most digest work (src/verify).  The
  // verifier keys its caches by root internally, which keeps equivocating
  // electors separated.  Bounded FIFO, same depth as log retention.
  using VerifierKey = std::pair<std::uint32_t, proto::Time>;
  std::map<VerifierKey, verify::CachedProofVerifier> verifiers;
  std::deque<VerifierKey> verifier_fifo;
  constexpr std::size_t kVerifierCapacity = 4;
  auto verifier_for = [&](std::uint32_t elector, proto::Time commit_time)
      -> verify::CachedProofVerifier& {
    const VerifierKey key{elector, commit_time};
    auto it = verifiers.find(key);
    if (it != verifiers.end()) return it->second;
    while (verifiers.size() >= kVerifierCapacity) {
      verifiers.erase(verifier_fifo.front());
      verifier_fifo.pop_front();
    }
    verifier_fifo.push_back(key);
    return verifiers
        .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                 std::forward_as_tuple(/*use_cache=*/true, /*cache_capacity=*/1 << 16))
        .first->second;
  };

  endpoint.set_control_handler([&](PeerId from, const proto::NodeFrame& frame) {
    switch (frame.type) {
      case proto::NodeFrameType::kStatsRequest: {
        util::ByteReader r(frame.body);
        const std::uint64_t token = r.u64();
        r.expect_end();
        endpoint.send_control(from, proto::NodeFrameType::kStats, host.stats(token).encode());
        break;
      }
      case proto::NodeFrameType::kCheckRequest: {
        proto::ProofBundleFrame bundle = proto::ProofBundleFrame::decode(frame.body);
        proto::CheckResultFrame result;
        result.root_matches = bundle.root_matches;
        const auto& received = host.recorder->received_commitments();
        auto elector_it = received.find(bundle.elector);
        auto commit_it = elector_it != received.end()
                             ? elector_it->second.find(bundle.commit_time)
                             : std::map<proto::Time, proto::SpiderCommit>::const_iterator{};
        if (elector_it == received.end() || commit_it == elector_it->second.end()) {
          result.detail = "no commitment received for this round";
        } else {
          const proto::SpiderCommit& commit = commit_it->second;
          // A multi-round bundle covers only its chunk of the prefix
          // space; restrict the expected windows with the same shared
          // membership rule the proof generator applied, so a prefix
          // missing from its own round is still flagged as withheld.
          auto in_round = [&](const bgp::Prefix& prefix) {
            return bundle.round_count <= 1 ||
                   proto::proof_round_of(prefix, bundle.round_count) == bundle.round;
          };
          proto::ProofVerifyFn verify_fn = [&](const util::Digest20& root, std::uint32_t num_classes,
                                               const core::MttPrefixProof& proof) {
            return verifier_for(bundle.elector, bundle.commit_time)
                .verify(root, num_classes, proof);
          };
          std::map<bgp::Prefix, std::vector<bgp::Route>> window;
          for (const auto& [prefix, route] : host.recorder->my_exports_to(bundle.elector)) {
            if (in_round(prefix)) window[prefix] = {route};
          }
          auto producer_verdict = proto::Checker::check_producer_proofs(
              commit, bundle.elector, window,
              proto::ProducerProofs::decode(bundle.producer_proofs), host.recorder->classifier(),
              verify_fn);
          std::map<bgp::Prefix, bgp::Route> imports;
          for (const auto& [prefix, route] : host.recorder->my_imports_from(bundle.elector)) {
            if (in_round(prefix)) imports.emplace(prefix, route);
          }
          // The promise the elector made to this checker's AS; the smoke
          // deployment uses the paper's §7.2 configuration everywhere.
          const core::Promise promise = core::Promise::total_order(opt.num_classes);
          auto consumer_verdict = proto::Checker::check_consumer_proofs(
              commit, bundle.elector, promise, imports,
              proto::ConsumerProofs::decode(bundle.consumer_proofs), opt.id,
              host.recorder->classifier(), verify_fn);
          result.producer_ok = producer_verdict ? 0 : 1;
          result.consumer_ok = consumer_verdict ? 0 : 1;
          result.ok = (result.producer_ok && result.consumer_ok && bundle.root_matches) ? 1 : 0;
          if (producer_verdict) result.detail += "producer: " + producer_verdict->detail + "; ";
          if (consumer_verdict) result.detail += "consumer: " + consumer_verdict->detail + "; ";
          if (result.ok) {
            result.detail = "clean: " + std::to_string(imports.size()) + " imports checked";
          }
        }
        endpoint.send_control(from, proto::NodeFrameType::kCheckResult, result.encode());
        break;
      }
      case proto::NodeFrameType::kShutdown:
        tcp.stop();
        break;
      default:
        std::fprintf(stderr, "checker: unexpected frame type %u from peer %u\n",
                     static_cast<unsigned>(frame.type), from);
    }
  });

  // The checker never commits, so nothing else prunes its mirror log;
  // retire rounds on the elector's commitment cadence.  Its mirrored
  // state (what the checks read) lives outside the log and is unaffected.
  std::function<void()> checker_retention = [&] {
    host.recorder->enforce_retention(tcp.now() - 2 * opt.commit_interval);
    tcp.schedule_in(opt.commit_interval, checker_retention);
  };
  tcp.schedule_in(opt.commit_interval, checker_retention);

  host.recorder->start(/*schedule_commitments=*/false);
  tcp.run();
  verify::SessionStats cache_stats;
  for (const auto& [key, verifier] : verifiers) verifier.drain_into(cache_stats);
  std::printf("spider_node checker as=%u: %llu updates mirrored, %zu alarms, "
              "%llu proof-path cache hits / %llu misses (%llu bytes deduped)\n",
              opt.id, static_cast<unsigned long long>(host.recorder->updates_mirrored()),
              host.recorder->alarms().size(),
              static_cast<unsigned long long>(cache_stats.cache_hits),
              static_cast<unsigned long long>(cache_stats.cache_misses),
              static_cast<unsigned long long>(cache_stats.bytes_deduped));
  return 0;
}

// --------------------------------------------------------------- proofgen

int run_proofgen(transport::TcpTransport& tcp, NodeEndpoint& endpoint, const Options& opt) {
  // One reconstructed commitment kept live for reuse.  A pipelined session
  // (loadgen --verify-rounds > 1) sends many per-round requests for the
  // same (elector, commit_time); only the first pays the log transfer and
  // checkpoint+replay — the rest slice proofs out of the cached MTT.
  //
  // Destruction order matters: the shadow recorder holds references into
  // the other members, so `shadow`/`generator` are declared last (destroyed
  // first).
  struct ReconEntry {
    std::unique_ptr<netsim::Simulator> sim;
    std::unique_ptr<bgp::Speaker> speaker;
    std::unique_ptr<transport::NetsimTransport> shadow_endpoint;
    std::unique_ptr<core::KeyRegistry> keys;
    std::unique_ptr<crypto::HashSigner> signer;
    std::unique_ptr<proto::Recorder> shadow;
    std::unique_ptr<proto::ProofGenerator> generator;
    /// nullopt when reconstruction threw: such requests answer with empty
    /// proof sets (and root_matches = 0), exactly like the uncached path.
    std::optional<proto::ProofGenerator::Reconstruction> recon;
    /// Memoizes per-prefix proof material across the session's rounds
    /// (valid for exactly this reconstruction's tree + seed).
    std::unique_ptr<core::MttProofMemo> memo;
  };
  using ReconKey = std::pair<std::uint32_t, proto::Time>;
  std::map<ReconKey, ReconEntry> recon_cache;
  std::deque<ReconKey> recon_fifo;  // front = oldest; bound matches §6.5 retention
  constexpr std::size_t kReconCapacity = 2;
  std::uint64_t recon_builds = 0, requests_answered = 0;

  // Requests wait here in arrival order; at most one log transfer is in
  // flight at a time (overlapping requests queue instead of dropping).
  struct QueuedRequest {
    PeerId requester = 0;
    proto::ProofRequestFrame request;
  };
  std::deque<QueuedRequest> waiting;
  struct Transfer {
    std::vector<util::Bytes> entries, checkpoints, commitments;
  };
  std::optional<Transfer> transfer;

  auto answer_from_cache = [&](const QueuedRequest& queued, ReconEntry& entry) {
    const proto::ProofRequestFrame& request = queued.request;
    proto::ProofBundleFrame bundle;
    bundle.elector = request.elector;
    bundle.commit_time = request.commit_time;
    bundle.consumer = request.consumer;
    bundle.round = request.round;
    bundle.round_count = request.round_count;
    if (entry.recon) {
      bundle.root_matches = entry.recon->root_matches ? 1 : 0;
      // Round restriction: both sides compute membership independently via
      // proof_round_of, so only (round, round_count) crosses the wire.
      const std::set<bgp::Prefix>* subset = nullptr;
      std::set<bgp::Prefix> chunk;
      if (request.round_count > 1) {
        for (const bgp::Prefix& prefix : entry.recon->state.all_prefixes()) {
          if (proto::proof_round_of(prefix, request.round_count) == request.round) {
            chunk.insert(prefix);
          }
        }
        subset = &chunk;
      }
      bundle.producer_proofs = entry.generator
                                   ->proofs_for_producer(*entry.recon, request.consumer,
                                                         std::nullopt, subset, entry.memo.get())
                                   .encode();
      bundle.consumer_proofs = entry.generator
                                   ->proofs_for_consumer(*entry.recon, request.consumer,
                                                         std::nullopt, subset, entry.memo.get())
                                   .encode();
    } else {
      bundle.producer_proofs = proto::ProducerProofs{}.encode();
      bundle.consumer_proofs = proto::ConsumerProofs{}.encode();
    }
    endpoint.send_control(queued.requester, proto::NodeFrameType::kProofBundle,
                          bundle.encode());
    ++requests_answered;
  };

  // Answers every queued request the cache can serve, then kicks off one
  // log transfer for the first one it cannot.
  std::function<void()> service = [&] {
    while (!waiting.empty()) {
      const ReconKey key{waiting.front().request.elector, waiting.front().request.commit_time};
      auto it = recon_cache.find(key);
      if (it == recon_cache.end()) break;
      answer_from_cache(waiting.front(), it->second);
      waiting.pop_front();
    }
    if (!waiting.empty() && !transfer) {
      transfer.emplace();
      endpoint.send_control(waiting.front().request.elector, proto::NodeFrameType::kLogRequest,
                            {});
    }
  };

  auto finish_transfer = [&] {
    // Rebuild the elector's log preserving the transferred seq numbers and
    // authenticators — the recorder prunes committed rounds, so the chain
    // may start mid-sequence.  verify_chain() recomputes the whole chain
    // from the first retained entry's base authenticator, so a tampered
    // transfer still fails even though the entries arrive pre-chained.
    proto::MessageLog log;
    for (const util::Bytes& bytes : transfer->entries) {
      log.append_entry(proto::LogEntry::decode(bytes));
    }
    for (const util::Bytes& bytes : transfer->checkpoints) {
      proto::LogCheckpoint cp = proto::LogCheckpoint::decode(bytes);
      log.add_checkpoint(cp.timestamp, std::move(cp.chunks));
    }
    for (const util::Bytes& bytes : transfer->commitments) {
      log.record_commitment(proto::CommitmentRecord::decode(bytes));
    }
    transfer.reset();
    if (!log.verify_chain()) {
      std::fprintf(stderr, "proofgen: transferred log failed chain verification\n");
    }
    if (waiting.empty()) return;  // requester vanished mid-transfer
    const proto::ProofRequestFrame& request = waiting.front().request;

    // Shadow recorder: same AS, same configuration, fed only by the log —
    // the §6.5 checkpoint+replay path, here in a different OS process
    // than the recorder that produced the log.
    ReconEntry entry;
    entry.sim = std::make_unique<netsim::Simulator>();
    entry.speaker = std::make_unique<bgp::Speaker>(*entry.sim, request.elector, bgp::Policy{});
    entry.sim->add_node(*entry.speaker, "shadow-bgp");
    entry.shadow_endpoint = std::make_unique<transport::NetsimTransport>(*entry.sim);
    entry.sim->add_node(*entry.shadow_endpoint, "shadow-rec");
    entry.keys = std::make_unique<core::KeyRegistry>();
    std::set<std::uint32_t> key_ases{request.elector};
    for (std::uint32_t neighbor : opt.neighbors) key_ases.insert(neighbor);
    nodetool::add_keys(*entry.keys, key_ases);
    entry.signer = std::make_unique<crypto::HashSigner>(nodetool::key_of(request.elector));
    proto::RecorderConfig rc;
    rc.asn = request.elector;
    rc.num_classes = opt.num_classes;
    rc.commit_interval = opt.commit_interval;
    rc.batch_window = opt.batch_window;
    entry.shadow = std::make_unique<proto::Recorder>(*entry.shadow_endpoint, rc, *entry.signer,
                                                     *entry.keys, *entry.speaker);
    for (std::uint32_t neighbor : opt.neighbors) {
      entry.shadow->add_neighbor(neighbor);
      entry.shadow->set_promise(neighbor, core::Promise::total_order(opt.num_classes));
    }
    entry.shadow->restore_from(std::move(log));
    entry.generator = std::make_unique<proto::ProofGenerator>(*entry.shadow);
    entry.memo = std::make_unique<core::MttProofMemo>();
    try {
      entry.recon = entry.generator->reconstruct(request.commit_time, 1);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "proofgen: reconstruction failed: %s\n", e.what());
    }
    ++recon_builds;

    const ReconKey key{request.elector, request.commit_time};
    while (recon_cache.size() >= kReconCapacity) {
      recon_cache.erase(recon_fifo.front());
      recon_fifo.pop_front();
    }
    recon_cache.emplace(key, std::move(entry));
    recon_fifo.push_back(key);
    service();
  };

  endpoint.set_control_handler([&](PeerId from, const proto::NodeFrame& frame) {
    switch (frame.type) {
      case proto::NodeFrameType::kProofRequest: {
        QueuedRequest queued;
        queued.requester = from;
        queued.request = proto::ProofRequestFrame::decode(frame.body);
        waiting.push_back(std::move(queued));
        service();
        break;
      }
      case proto::NodeFrameType::kLogSegment: {
        if (!transfer) break;
        proto::LogSegmentFrame segment = proto::LogSegmentFrame::decode(frame.body);
        auto& sink = segment.kind == proto::LogSegmentFrame::kEntries ? transfer->entries
                     : segment.kind == proto::LogSegmentFrame::kCheckpoints
                         ? transfer->checkpoints
                         : transfer->commitments;
        for (util::Bytes& record : segment.records) sink.push_back(std::move(record));
        break;
      }
      case proto::NodeFrameType::kLogEnd:
        if (transfer) finish_transfer();
        break;
      case proto::NodeFrameType::kStatsRequest: {
        util::ByteReader r(frame.body);
        proto::StatsFrame stats;
        stats.token = r.u64();
        r.expect_end();
        endpoint.send_control(from, proto::NodeFrameType::kStats, stats.encode());
        break;
      }
      case proto::NodeFrameType::kShutdown:
        tcp.stop();
        break;
      default:
        std::fprintf(stderr, "proofgen: unexpected frame type %u from peer %u\n",
                     static_cast<unsigned>(frame.type), from);
    }
  });

  tcp.run();
  // Every answered request either triggered a reconstruction or reused a
  // cached one, so hits are the difference.
  std::printf("spider_node proofgen id=%u: %llu requests answered, %llu reconstructions, "
              "%llu recon-cache hits\n",
              opt.id, static_cast<unsigned long long>(requests_answered),
              static_cast<unsigned long long>(recon_builds),
              static_cast<unsigned long long>(
                  requests_answered > recon_builds ? requests_answered - recon_builds : 0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (arg == "--role") {
      opt.role = next();
    } else if (arg == "--as" || arg == "--id") {
      opt.id = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--listen") {
      opt.listen = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--port-file") {
      opt.port_file = next();
    } else if (arg == "--peer") {
      opt.peers.push_back(nodetool::parse_peer_spec(next()));
    } else if (arg == "--neighbor") {
      opt.neighbors.push_back(static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--trust") {
      opt.trusted_log_peers.insert(static_cast<PeerId>(std::strtoul(next(), nullptr, 10)));
    } else if (arg == "--elector") {
      opt.elector = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--num-classes") {
      opt.num_classes = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--commit-interval-ms") {
      opt.commit_interval = std::strtol(next(), nullptr, 10) * 1000;
    } else if (arg == "--batch-window-ms") {
      opt.batch_window = std::strtol(next(), nullptr, 10) * 1000;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.id == 0 ||
      (opt.role != "recorder" && opt.role != "checker" && opt.role != "proofgen")) {
    return usage(argv[0]);
  }

  signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IOLBF, 0);  // keep progress visible under redirection
  transport::TcpTransport tcp(opt.id);
  NodeEndpoint endpoint(tcp);

  const std::uint16_t port = tcp.listen_on(opt.listen);
  std::printf("spider_node: role=%s id=%u listening on %u\n", opt.role.c_str(), opt.id, port);
  std::fflush(stdout);
  if (!opt.port_file.empty()) {
    std::FILE* f = std::fopen(opt.port_file.c_str(), "w");
    if (f) {
      std::fprintf(f, "%u\n", port);
      std::fclose(f);
    }
  }
  for (const PeerSpec& peer : opt.peers) {
    if (!nodetool::dial_with_retry(tcp, peer)) {
      std::fprintf(stderr, "cannot reach peer %u at %s:%u\n", peer.id, peer.host.c_str(),
                   peer.port);
      return 1;
    }
  }

  if (opt.role == "recorder") return run_recorder(tcp, endpoint, opt);
  if (opt.role == "checker") return run_checker(tcp, endpoint, opt);
  return run_proofgen(tcp, endpoint, opt);
}
