#include "verify/node_host.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "spider/checker.hpp"
#include "transport/netsim_transport.hpp"
#include "util/serde.hpp"

namespace spider::verify {

using proto::NodeFrameType;
using transport::PeerId;

struct HostedRecorder {
  HostedRecorder(transport::Endpoint* endpoint, std::uint32_t asn, const NodeConfig& config) {
    speaker = std::make_unique<bgp::Speaker>(sim, asn, bgp::Policy{});
    sim.add_node(*speaker, "bgp-as" + std::to_string(asn));
    if (endpoint == nullptr) {
      detached = std::make_unique<transport::NetsimTransport>(sim);
      sim.add_node(*detached, "rec-as" + std::to_string(asn));
      endpoint = detached.get();
    }

    // Deterministic per-AS keys shared by every node of one deployment.
    auto key_of = [](std::uint32_t key_asn) {
      const std::string secret = "spider-node-key-" + std::to_string(key_asn);
      return util::Bytes(secret.begin(), secret.end());
    };
    std::set<std::uint32_t> key_ases{asn};
    key_ases.insert(config.neighbors.begin(), config.neighbors.end());
    for (std::uint32_t key_as : key_ases) {
      keys.add(key_as, std::make_unique<crypto::HashVerifier>(key_of(key_as)));
    }
    signer = std::make_unique<crypto::HashSigner>(key_of(asn));

    proto::RecorderConfig rc;
    rc.asn = asn;
    rc.num_classes = config.num_classes;
    rc.commit_interval = config.commit_interval;
    rc.batch_window = config.batch_window;
    recorder = std::make_unique<proto::Recorder>(*endpoint, rc, *signer, keys, *speaker);

    for (std::uint32_t neighbor : config.neighbors) {
      // Observed-only: the export pipeline (policy, adj-rib-out, mirror
      // hooks) runs, but nothing is encoded into the private sim — the
      // real neighbour router lives in another node.
      speaker->add_observed_neighbor(neighbor);
      recorder->add_neighbor(neighbor);
      recorder->set_promise(neighbor, core::Promise::total_order(config.num_classes));
    }
  }

  netsim::Simulator sim;
  std::unique_ptr<bgp::Speaker> speaker;
  std::unique_ptr<transport::NetsimTransport> detached;
  core::KeyRegistry keys;
  std::unique_ptr<crypto::HashSigner> signer;
  std::unique_ptr<proto::Recorder> recorder;  // last: it refers to the members above
};

namespace {

constexpr const char* kRoleNames[] = {"recorder", "checker", "proofgen"};

/// Verifiers kept by a checker: bounded like log retention.
constexpr std::size_t kVerifierCapacity = 4;

}  // namespace

NodeHost::NodeHost(transport::Endpoint& transport, NodeConfig config,
                   std::function<void()> on_stop)
    : config_(std::move(config)), on_stop_(std::move(on_stop)), endpoint_(transport) {
  endpoint_.set_control_handler(
      [this](PeerId from, const proto::NodeFrame& frame) { handle_control(from, frame); });
  switch (config_.role) {
    case NodeRole::kRecorder:
      hosted_ = std::make_unique<HostedRecorder>(&endpoint_, config_.id, config_);
      hosted_->recorder->set_commitment_hook(
          [this](const proto::CommitmentRecord& record) { on_commitment(record); });
      hosted_->recorder->start(/*schedule_commitments=*/true);
      break;
    case NodeRole::kChecker:
      hosted_ = std::make_unique<HostedRecorder>(&endpoint_, config_.id, config_);
      schedule_checker_retention();
      hosted_->recorder->start(/*schedule_commitments=*/false);
      break;
    case NodeRole::kProofgen:
      // The shadow: the elector's recorder, fed only by transferred logs —
      // the §6.5 checkpoint+replay path in another node than the recorder.
      hosted_ = std::make_unique<HostedRecorder>(nullptr, config_.elector, config_);
      generator_ = std::make_unique<proto::ProofGenerator>(*hosted_->recorder);
      break;
  }
}

NodeHost::~NodeHost() = default;

proto::Recorder& NodeHost::recorder() { return *hosted_->recorder; }

void NodeHost::handle_control(PeerId from, const proto::NodeFrame& frame) {
  try {
    dispatch(from, frame);
  } catch (const util::DecodeError&) {
    ++control_frame_errors_;
    SPIDER_OBS_COUNT("node/control_frame_errors", 1);
  }
}

void NodeHost::dispatch(PeerId from, const proto::NodeFrame& frame) {
  const NodeRole role = config_.role;
  switch (frame.type) {
    case NodeFrameType::kStatsRequest:
      send_stats(from, frame);
      return;
    case NodeFrameType::kShutdown:
      if (on_stop_) on_stop_();
      return;
    case NodeFrameType::kInject: {
      if (role != NodeRole::kRecorder) break;
      const proto::InjectFrame inject = proto::InjectFrame::decode(frame.body);
      // The sender's peer id doubles as the trace-peer AS number: an
      // unregistered speaker neighbour, i.e. a non-SPIDeR peer (§6.7).  The
      // observer hooks fire synchronously inside inject(); queued speaker
      // events are drained in batches so their cost stays off the
      // per-update path.
      hosted_->speaker->inject(from, inject.update);
      if (++injects_since_drain_ >= 256) {
        hosted_->sim.run_until(hosted_->sim.now() + 2);
        injects_since_drain_ = 0;
      }
      return;
    }
    case NodeFrameType::kSubscribeCommits:
      if (role != NodeRole::kRecorder) break;
      commit_subscribers_.insert(from);
      return;
    case NodeFrameType::kLogRequest:
      if (role != NodeRole::kRecorder) break;
      if (config_.trusted_log_peers.count(from) == 0) {
        std::fprintf(stderr, "refusing log request from untrusted peer %u\n", from);
      } else {
        send_log(from);
      }
      return;
    case NodeFrameType::kCheckRequest:
      if (role != NodeRole::kChecker) break;
      check(from, frame);
      return;
    case NodeFrameType::kProofRequest:
      if (role != NodeRole::kProofgen) break;
      waiting_.push_back({from, proto::ProofRequestFrame::decode(frame.body)});
      serve_proof_requests();
      return;
    case NodeFrameType::kLogSegment: {
      if (role != NodeRole::kProofgen) break;
      if (!transfer_ || from != config_.elector) return;
      proto::LogSegmentFrame segment;
      try {
        segment = proto::LogSegmentFrame::decode(frame.body);
      } catch (const util::DecodeError&) {
        transfer_->corrupt = true;
        throw;
      }
      std::vector<util::Bytes>* sink = &transfer_->commitments;
      if (segment.kind == proto::LogSegmentFrame::kEntries) sink = &transfer_->entries;
      if (segment.kind == proto::LogSegmentFrame::kCheckpoints) sink = &transfer_->checkpoints;
      for (util::Bytes& record : segment.records) sink->push_back(std::move(record));
      return;
    }
    case NodeFrameType::kLogEnd:
      if (role != NodeRole::kProofgen) break;
      if (transfer_ && from == config_.elector) finish_transfer();
      return;
    default:
      break;
  }
  std::fprintf(stderr, "%s: unexpected frame type %u from peer %u\n",
               kRoleNames[static_cast<int>(role)], static_cast<unsigned>(frame.type), from);
}

std::string NodeHost::summary() const {
  const proto::Recorder& rec = *hosted_->recorder;
  const std::string mirrored = std::to_string(rec.updates_mirrored()) + " updates mirrored, ";
  const std::string alarms = std::to_string(rec.alarms().size()) + " alarms";
  switch (config_.role) {
    case NodeRole::kRecorder:
      return "recorder as=" + std::to_string(config_.id) + ": " + mirrored +
             std::to_string(rec.commitments_made()) + " commitments, " + alarms;
    case NodeRole::kChecker: {
      SessionStats cache = {};
      for (const auto& [key, verifier] : verifiers_) verifier.drain_into(cache);
      return "checker as=" + std::to_string(config_.id) + ": " + mirrored + alarms + ", " +
             std::to_string(cache.cache_hits) + " proof-path cache hits / " +
             std::to_string(cache.cache_misses) + " misses (" +
             std::to_string(cache.bytes_deduped) + " bytes deduped)";
    }
    case NodeRole::kProofgen:
      break;
  }
  return "proofgen id=" + std::to_string(config_.id) + ": " + std::to_string(requests_answered_) +
         " requests answered, " + std::to_string(reconstructions_) + " reconstructions, " +
         std::to_string(recon_cache_hits_) + " recon-cache hits";
}

void NodeHost::send_stats(PeerId to, const proto::NodeFrame& request) {
  util::ByteReader r(request.body);
  proto::StatsFrame stats;
  stats.token = r.u64();
  r.expect_end();
  if (config_.role != NodeRole::kProofgen) {
    const proto::Recorder& rec = *hosted_->recorder;
    stats.updates_mirrored = rec.updates_mirrored();
    stats.commitments_made = rec.commitments_made();
    stats.alarms = rec.alarms().size();
    stats.log_entries = rec.log().entries().size();
  }
  endpoint_.send_control(to, NodeFrameType::kStats, stats.encode());
}

// --------------------------------------------------------------- recorder

void NodeHost::on_commitment(const proto::CommitmentRecord& record) {
  // Public commitment only — the record's seed never leaves this AS except
  // through the trusted log channel to its own proof generator.
  proto::SpiderCommit commit;
  commit.timestamp = record.timestamp;
  commit.from_as = config_.id;
  commit.num_classes = record.num_classes;
  commit.root = record.root;
  const util::Bytes body = commit.encode();
  for (PeerId subscriber : commit_subscribers_) {
    endpoint_.send_control(subscriber, NodeFrameType::kCommitNotify, body);
  }

  // §6.5 retention: checkpoint the committed round and keep two rounds of
  // history.  A proof request for this commitment — or the previous one,
  // possibly in flight — replays from the surviving window, while older
  // entries are pruned so the log stops growing with ingest.
  proto::Recorder& rec = *hosted_->recorder;
  rec.make_checkpoint();
  checkpoint_times_.push_back(rec.log().checkpoints().back().timestamp);
  if (checkpoint_times_.size() >= 3) {
    rec.enforce_retention(checkpoint_times_[checkpoint_times_.size() - 3]);
    checkpoint_times_.erase(checkpoint_times_.begin(), checkpoint_times_.end() - 3);
  }
}

void NodeHost::send_log(PeerId to) {
  auto send_segment = [&](std::uint8_t kind, std::vector<util::Bytes> records) {
    proto::LogSegmentFrame segment{kind, std::move(records)};
    endpoint_.send_control(to, NodeFrameType::kLogSegment, segment.encode());
  };
  const proto::MessageLog& log = hosted_->recorder->log();
  constexpr std::size_t kBatch = 256;
  std::vector<util::Bytes> records;
  for (const proto::LogEntry& entry : log.entries()) {
    records.push_back(entry.encode());
    if (records.size() == kBatch) {
      send_segment(proto::LogSegmentFrame::kEntries, std::exchange(records, {}));
    }
  }
  if (!records.empty()) send_segment(proto::LogSegmentFrame::kEntries, std::exchange(records, {}));
  for (const proto::LogCheckpoint& cp : log.checkpoints()) records.push_back(cp.encode());
  send_segment(proto::LogSegmentFrame::kCheckpoints, std::exchange(records, {}));
  for (const auto& [time, record] : log.commitments()) records.push_back(record.encode());
  send_segment(proto::LogSegmentFrame::kCommitments, std::move(records));
  endpoint_.send_control(to, NodeFrameType::kLogEnd, {});
}

// ---------------------------------------------------------------- checker

void NodeHost::schedule_checker_retention() {
  // The checker never commits, so nothing else prunes its mirror log;
  // retire rounds on the elector's commitment cadence.  Its mirrored state
  // (what the checks read) lives outside the log and is unaffected.
  endpoint_.schedule_in(config_.commit_interval, [this] {
    hosted_->recorder->enforce_retention(endpoint_.now() - 2 * config_.commit_interval);
    schedule_checker_retention();
  });
}

CachedProofVerifier& NodeHost::verifier_for(std::uint32_t elector, proto::Time commit_time) {
  // Bit proofs for the rounds of one pipelined session share their
  // interior fold chains, so the session's later rounds skip most digest
  // work.  The verifier keys its caches by root internally, which keeps
  // equivocating electors separated.
  const std::pair key{elector, commit_time};
  for (auto& [verifier_key, verifier] : verifiers_) {
    if (verifier_key == key) return verifier;
  }
  if (verifiers_.size() == kVerifierCapacity) verifiers_.pop_front();
  return verifiers_
      .emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                    std::forward_as_tuple(CachedProofVerifier::kCacheCapacity))
      .second;
}

void NodeHost::check(PeerId from, const proto::NodeFrame& frame) {
  const proto::ProofBundleFrame bundle = proto::ProofBundleFrame::decode(frame.body);
  const proto::Recorder& rec = *hosted_->recorder;
  proto::CheckResultFrame result;
  result.root_matches = bundle.root_matches;
  const auto& received = rec.received_commitments();
  auto elector_it = received.find(bundle.elector);
  const proto::SpiderCommit* commit = nullptr;
  if (elector_it != received.end()) {
    auto commit_it = elector_it->second.find(bundle.commit_time);
    if (commit_it != elector_it->second.end()) commit = &commit_it->second;
  }
  if (commit == nullptr) {
    result.detail = "no commitment received for this round";
    endpoint_.send_control(from, NodeFrameType::kCheckResult, result.encode());
    return;
  }

  // A multi-round bundle covers only its chunk of the prefix space;
  // restrict the expectation with the same shared membership rule the
  // proof generator applied, so a prefix missing from its own round is
  // still flagged as withheld.
  proto::CheckerExpectation expected = proto::Checker::expectation(rec, bundle.elector);
  if (bundle.round_count > 1) {
    auto outside_round = [&](const auto& entry) {
      return proto::proof_round_of(entry.first, bundle.round_count) != bundle.round;
    };
    std::erase_if(expected.window, outside_round);
    std::erase_if(expected.imports, outside_round);
  }
  CachedProofVerifier& verifier = verifier_for(bundle.elector, bundle.commit_time);
  const proto::ProofVerifyFn verify_fn = [&](const util::Digest20& root,
                                             std::uint32_t num_classes,
                                             const core::MttPrefixProof& proof) {
    return verifier.verify(root, num_classes, proof);
  };
  auto producer_verdict = proto::Checker::check_producer_proofs(
      *commit, bundle.elector, expected.window,
      proto::ProducerProofs::decode(bundle.producer_proofs), rec.classifier(), verify_fn);
  // The promise the elector made to this checker's AS; node deployments
  // use the paper's §7.2 configuration everywhere.
  const core::Promise promise = core::Promise::total_order(config_.num_classes);
  auto consumer_verdict = proto::Checker::check_consumer_proofs(
      *commit, bundle.elector, promise, expected.imports,
      proto::ConsumerProofs::decode(bundle.consumer_proofs), config_.id, rec.classifier(),
      verify_fn);
  result.producer_ok = producer_verdict ? 0 : 1;
  result.consumer_ok = consumer_verdict ? 0 : 1;
  result.ok = (result.producer_ok && result.consumer_ok && bundle.root_matches) ? 1 : 0;
  if (producer_verdict) result.detail += "producer: " + producer_verdict->detail + "; ";
  if (consumer_verdict) result.detail += "consumer: " + consumer_verdict->detail + "; ";
  if (result.ok) {
    result.detail = "clean: " + std::to_string(expected.imports.size()) + " imports checked";
  }
  endpoint_.send_control(from, NodeFrameType::kCheckResult, result.encode());
}

// --------------------------------------------------------------- proofgen

void NodeHost::serve_proof_requests() {
  // Answer in arrival order every request the shadow's log already covers
  // (a log holding a commitment at or after T holds everything up to T);
  // the first one it cannot cover waits for one log transfer.
  auto covered = [&](const proto::ProofRequestFrame& request) {
    if (request.elector != config_.elector) return true;  // answered empty
    const auto& commitments = hosted_->recorder->log().commitments();
    return !commitments.empty() && commitments.rbegin()->first >= request.commit_time;
  };
  while (!waiting_.empty() && covered(waiting_.front().request)) {
    answer_proof_request(waiting_.front().requester, waiting_.front().request);
    waiting_.pop_front();
  }
  if (!waiting_.empty() && !transfer_) {
    transfer_.emplace();
    endpoint_.send_control(config_.elector, NodeFrameType::kLogRequest, {});
  }
}

void NodeHost::answer_proof_request(PeerId requester, const proto::ProofRequestFrame& request) {
  proto::ProofBundleFrame bundle;
  bundle.elector = request.elector;
  bundle.commit_time = request.commit_time;
  bundle.consumer = request.consumer;
  bundle.round = request.round;
  bundle.round_count = request.round_count;
  std::shared_ptr<const proto::ProofGenerator::Reconstruction> recon;
  if (request.elector == config_.elector) {
    bool cache_hit = false;
    try {
      recon = generator_->reconstruction(request.commit_time, 1, &cache_hit);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "proofgen: reconstruction failed: %s\n", e.what());
    } catch (const util::DecodeError& e) {
      std::fprintf(stderr, "proofgen: reconstruction failed: %s\n", e.what());
    }
    ++(cache_hit ? recon_cache_hits_ : reconstructions_);
  }
  if (recon) {
    bundle.root_matches = recon->root_matches ? 1 : 0;
    if (recon != memo_recon_) {
      memo_recon_ = recon;
      memo_ = std::make_unique<core::MttProofMemo>();
    }
    // Round restriction: both sides compute membership independently via
    // proof_round_of, so only (round, round_count) crosses the wire.
    const std::set<bgp::Prefix>* subset = nullptr;
    std::set<bgp::Prefix> chunk;
    if (request.round_count > 1) {
      for (const bgp::Prefix& prefix : recon->state.all_prefixes()) {
        if (proto::proof_round_of(prefix, request.round_count) == request.round) {
          chunk.insert(prefix);
        }
      }
      subset = &chunk;
    }
    bundle.producer_proofs = generator_
                                 ->proofs_for_producer(*recon, request.consumer, std::nullopt,
                                                       subset, memo_.get())
                                 .encode();
    bundle.consumer_proofs = generator_
                                 ->proofs_for_consumer(*recon, request.consumer, std::nullopt,
                                                       subset, memo_.get())
                                 .encode();
  } else {
    // No such commitment, a failed rebuild or another elector: empty proof
    // sets and root_matches = 0.
    bundle.producer_proofs = proto::ProducerProofs{}.encode();
    bundle.consumer_proofs = proto::ConsumerProofs{}.encode();
  }
  endpoint_.send_control(requester, NodeFrameType::kProofBundle, bundle.encode());
  ++requests_answered_;
}

void NodeHost::finish_transfer() {
  Transfer transfer = std::move(*transfer_);
  transfer_.reset();
  // Rebuild the elector's log preserving the transferred seq numbers and
  // authenticators — the recorder prunes committed rounds, so the chain
  // may start mid-sequence.  verify_chain() recomputes the whole chain from
  // the first retained entry's base authenticator, so a tampered transfer
  // fails even though the entries arrive pre-chained.  A log that fails is
  // never restored.
  bool restored = false;
  if (!transfer.corrupt) {
    try {
      proto::MessageLog log;
      for (const util::Bytes& bytes : transfer.entries) {
        log.append_entry(proto::LogEntry::decode(bytes));
      }
      for (const util::Bytes& bytes : transfer.checkpoints) {
        proto::LogCheckpoint cp = proto::LogCheckpoint::decode(bytes);
        log.add_checkpoint(cp.timestamp, std::move(cp.chunks));
      }
      for (const util::Bytes& bytes : transfer.commitments) {
        log.record_commitment(proto::CommitmentRecord::decode(bytes));
      }
      if (log.verify_chain()) {
        hosted_->recorder->restore_from(std::move(log));
        restored = true;
      }
    } catch (const util::DecodeError&) {
    } catch (const std::invalid_argument&) {
    }
  }
  if (!restored) std::fprintf(stderr, "proofgen: transferred log rejected (chain or decode)\n");

  // The request that started the transfer is answered from whatever the
  // shadow now holds (a commitment still missing answers empty), and after
  // a failed transfer so is every request still waiting on one.
  while (!waiting_.empty()) {
    answer_proof_request(waiting_.front().requester, waiting_.front().request);
    waiting_.pop_front();
    if (restored) break;
  }
  serve_proof_requests();
}

}  // namespace spider::verify
