#include "spider/proof_generator.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/timers.hpp"

namespace spider::proto {

std::size_t ProducerProofs::total_bytes() const {
  std::size_t total = 0;
  for (const auto& item : items) total += item.proof.byte_size();
  return total;
}

std::size_t ConsumerProofs::total_bytes() const {
  std::size_t total = 0;
  for (const auto& item : items) total += item.proof.byte_size();
  return total;
}

Bytes ProducerProofs::encode() const {
  util::ByteWriter w;
  w.i64(commit_time);
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const Item& item : items) {
    item.prefix.encode(w);
    item.used_route.encode(w);
    w.u32(item.cls);
    w.bytes(item.proof.encode());
  }
  return w.take();
}

ProducerProofs ProducerProofs::decode(ByteSpan data) {
  util::ByteReader r(data);
  ProducerProofs proofs;
  proofs.commit_time = r.i64();
  // prefix (5) + empty route (22) + cls (4) + proof length prefix (4).
  std::uint32_t n = r.check_count(r.u32(), 35, "ProducerProofs items");
  proofs.items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Item item;
    item.prefix = bgp::Prefix::decode(r);
    item.used_route = bgp::Route::decode(r);
    item.cls = r.u32();
    item.proof = core::MttPrefixProof::decode(r.bytes());
    proofs.items.push_back(std::move(item));
  }
  r.expect_end();
  return proofs;
}

Bytes ConsumerProofs::encode() const {
  util::ByteWriter w;
  w.i64(commit_time);
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const Item& item : items) {
    item.prefix.encode(w);
    item.offered_route.encode(w);
    w.bytes(item.proof.encode());
  }
  return w.take();
}

ConsumerProofs ConsumerProofs::decode(ByteSpan data) {
  util::ByteReader r(data);
  ConsumerProofs proofs;
  proofs.commit_time = r.i64();
  // prefix (5) + empty route (22) + proof length prefix (4).
  std::uint32_t n = r.check_count(r.u32(), 31, "ConsumerProofs items");
  proofs.items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Item item;
    item.prefix = bgp::Prefix::decode(r);
    item.offered_route = bgp::Route::decode(r);
    item.proof = core::MttPrefixProof::decode(r.bytes());
    proofs.items.push_back(std::move(item));
  }
  r.expect_end();
  return proofs;
}

ProofGenerator::Reconstruction ProofGenerator::reconstruct(Time commit_time,
                                                           unsigned threads) const {
  SPIDER_OBS_SPAN(reconstruct_span, "proof_gen/reconstruct");
  SPIDER_OBS_COUNT("spider/reconstructions", 1);
  util::WallTimer timer;
  const MessageLog& log = recorder_.log();
  const CommitmentRecord* record = log.commitment_at(commit_time);
  if (!record) throw std::invalid_argument("ProofGenerator: no commitment at requested time");
  const LogCheckpoint* checkpoint = log.checkpoint_before(commit_time);
  if (!checkpoint) throw std::invalid_argument("ProofGenerator: no checkpoint before commitment");

  Reconstruction recon;
  recon.commit_time = commit_time;
  recon.seed = record->seed;
  recon.state = MirrorState::deserialize_chunked(checkpoint->chunks);

  const Time window_start = commit_time - recorder_.config().delta;
  auto note_window = [&](bgp::AsNumber from, const bgp::Prefix& prefix, Time t) {
    if (t <= window_start) return;
    const InputRecord* before = recon.state.input(from, prefix);
    auto& candidates = recon.window_candidates[{from, prefix}];
    candidates.push_back(before ? std::optional<bgp::Route>(before->route) : std::nullopt);
  };

  // Replay the logged message trace (§6.5).
  for (const LogEntry* entry : log.entries_between(checkpoint->timestamp, commit_time)) {
    core::SignedEnvelope envelope = core::SignedEnvelope::decode(entry->message);
    SpiderBatch batch = SpiderBatch::decode(envelope.payload);
    for (const SpiderBatch::Part& part : batch.parts) {
      switch (part.type) {
        case SpiderMsgType::kAnnounce: {
          SpiderAnnounce announce = SpiderAnnounce::decode(part.body);
          if (announce.re_announce) break;  // never replayed in place of originals
          if (entry->direction == LogDirection::kReceived) {
            // Mirror the live recorder's acceptance rule exactly — a part
            // the recorder rejected for timing must not resurface here.
            if (!announce_timely(announce.timestamp, entry->timestamp, recorder_.config())) break;
            note_window(announce.from_as, announce.route.prefix, entry->timestamp);
            recon.state.apply_announce_in(announce, crypto::digest20(part.body));
          } else {
            recon.state.apply_announce_out(announce);
          }
          break;
        }
        case SpiderMsgType::kWithdraw: {
          SpiderWithdraw withdraw = SpiderWithdraw::decode(part.body);
          if (entry->direction == LogDirection::kReceived) {
            note_window(withdraw.from_as, withdraw.prefix, entry->timestamp);
            recon.state.apply_withdraw_in(withdraw);
          } else {
            recon.state.apply_withdraw_out(withdraw);
          }
          break;
        }
        case SpiderMsgType::kAck:
        case SpiderMsgType::kCommit:
        case SpiderMsgType::kReAnnounce:
          break;
      }
    }
  }

  // Final in-window value completes each candidate list.
  for (auto& [key, candidates] : recon.window_candidates) {
    const InputRecord* final_input = recon.state.input(key.first, key.second);
    candidates.push_back(final_input ? std::optional<bgp::Route>(final_input->route)
                                     : std::nullopt);
  }

  // Regenerate the MTT exactly as the recorder did at commit time.
  {
    SPIDER_OBS_SPAN(mtt_span, "proof_gen/mtt_path");
    auto entries = build_mtt_entries(recon.state, recorder_.classifier(), recorder_.promises(),
                                     recorder_.faults().ignore_inputs);
    recon.tree = core::Mtt::build(std::move(entries), recorder_.config().num_classes);
    recon.tree.compute_labels(crypto::CommitmentPrf(recon.seed), threads);
  }
  recon.root_matches = crypto::constant_time_equal(recon.tree.root_label(), record->root);
  recon.reconstruct_seconds = timer.seconds();
  // spider-taint: declassify(§6.5: replay runs inside the challenge boundary — the checker holding the log already has the seed, so reconstructed state is not a further disclosure)
  return recon;
}

ProofGenerator::ReconKey ProofGenerator::recon_key(Time commit_time) const {
  const MessageLog& log = recorder_.log();
  const CommitmentRecord* record = log.commitment_at(commit_time);
  if (!record) throw std::invalid_argument("ProofGenerator: no commitment at requested time");
  const LogCheckpoint* checkpoint = log.checkpoint_before(commit_time);
  if (!checkpoint) throw std::invalid_argument("ProofGenerator: no checkpoint before commitment");

  ReconKey key;
  key.commit_time = commit_time;
  key.root = record->root;
  key.log_generation = log.generation();
  key.checkpoint_time = checkpoint->timestamp;
  // The last entry entries_between(checkpoint, T) hands the replay: an
  // entry logged at T after the commitment would extend it.
  const auto& entries = log.entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->timestamp > checkpoint->timestamp && it->timestamp <= commit_time) {
      key.last_seq = it->seq;
      break;
    }
  }
  key.ignore_inputs = recorder_.faults().ignore_inputs;
  key.promises_version = recorder_.promises_version();
  return key;
}

std::shared_ptr<const ProofGenerator::Reconstruction> ProofGenerator::reconstruction(
    Time commit_time, unsigned threads, bool* cache_hit) {
  if (faults_.answer_from) commit_time = *faults_.answer_from;
  ReconKey key = recon_key(commit_time);
  auto it = std::find_if(recon_cache_.begin(), recon_cache_.end(),
                         [&](const auto& entry) { return entry.first.commit_time == commit_time; });
  if (it != recon_cache_.end()) {
    if (it->first == key) {
      std::rotate(recon_cache_.begin(), it, it + 1);  // most recently used first
      SPIDER_OBS_COUNT("proof_gen/reconstruct_cache_hits", 1);
      if (cache_hit != nullptr) *cache_hit = true;
      return recon_cache_.front().second;
    }
    recon_cache_.erase(it);  // the log or a fault knob changed underneath
  }
  auto recon = std::make_shared<const Reconstruction>(reconstruct(commit_time, threads));
  if (recon_cache_.size() >= kReconCacheCapacity) recon_cache_.pop_back();
  recon_cache_.emplace(recon_cache_.begin(), std::move(key), recon);
  if (cache_hit != nullptr) *cache_hit = false;
  return recon;
}

ProducerProofs ProofGenerator::proofs_for_producer(const Reconstruction& recon,
                                                   bgp::AsNumber producer,
                                                   std::optional<bgp::Prefix> within,
                                                   const std::set<bgp::Prefix>* subset,
                                                   core::MttProofMemo* memo) const {
  ProducerProofs proofs;
  proofs.commit_time = recon.commit_time;
  if (faults_.withhold_producer_proofs) return proofs;
  const crypto::CommitmentPrf prf(recon.seed);
  const auto& classifier = recorder_.classifier();

  auto inputs_it = recon.state.inputs().find(producer);
  if (inputs_it == recon.state.inputs().end()) return proofs;

  for (const auto& [prefix, record] : bgp::subtree_of(inputs_it->second, within)) {
    if (subset != nullptr && subset->count(prefix) == 0) continue;
    // Loose sync (§6.4): the elector may justify itself against any
    // in-window value from this producer that would not have been
    // preferred over the actual output.  We scan newest-first, so when the
    // final value is acceptable (always true for an honest elector, since
    // the output is the decision-process maximum) it is the one cited and
    // the producer's own current state agrees.
    bgp::Route used = record.route;
    auto window_it = recon.window_candidates.find({producer, prefix});
    if (window_it != recon.window_candidates.end()) {
      std::optional<bgp::Route> chosen =
          elector_choice(recon.state, prefix, recorder_.faults().ignore_inputs);
      const auto& candidates = window_it->second;
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        if (!*it) continue;  // ⊥ needs no justification for producers
        if (!chosen || !bgp::better(**it, *chosen)) {
          used = **it;
          break;
        }
      }
    }

    ProducerProofs::Item item;
    item.prefix = prefix;
    item.used_route = used;
    item.cls = classifier.classify(used);
    if (faults_.misclassify_producer) {
      item.cls = (item.cls + 1) % recorder_.config().num_classes;
    }
    item.proof = recon.tree.prove(prf, prefix, {item.cls}, memo);
    if (faults_.tamper_classes.count(item.cls) != 0) {
      item.proof.revealed[0].bit = !item.proof.revealed[0].bit;
    }
    proofs.items.push_back(std::move(item));
  }
  SPIDER_OBS_COUNT("spider/producer_proof_items", proofs.items.size());
  SPIDER_OBS_HIST("spider/producer_proof_bytes", proofs.total_bytes(), obs::size_buckets_bytes());
  return proofs;
}

ConsumerProofs ProofGenerator::proofs_for_consumer(const Reconstruction& recon,
                                                   bgp::AsNumber consumer,
                                                   std::optional<bgp::Prefix> within,
                                                   const std::set<bgp::Prefix>* subset,
                                                   core::MttProofMemo* memo) const {
  ConsumerProofs proofs;
  proofs.commit_time = recon.commit_time;
  const crypto::CommitmentPrf prf(recon.seed);
  const auto& classifier = recorder_.classifier();
  const auto& promises = recorder_.promises();
  auto promise_it = promises.find(consumer);
  if (promise_it == promises.end()) return proofs;

  auto exports_it = recon.state.exports().find(consumer);
  if (exports_it == recon.state.exports().end()) return proofs;

  for (const auto& [prefix, record] : bgp::subtree_of(exports_it->second, within)) {
    if (subset != nullptr && subset->count(prefix) == 0) continue;
    bgp::Route underlying = underlying_route(record.route, recorder_.config().asn);
    core::ClassId cls = classifier.classify(underlying);
    std::vector<core::ClassId> better = promise_it->second.classes_better_than(cls);

    ConsumerProofs::Item item;
    item.prefix = prefix;
    item.offered_route = record.route;
    item.proof = recon.tree.prove(prf, prefix, better, memo);
    for (auto& opened : item.proof.revealed) {
      if (faults_.tamper_classes.count(opened.cls) != 0) opened.bit = !opened.bit;
    }
    proofs.items.push_back(std::move(item));
  }
  SPIDER_OBS_COUNT("spider/consumer_proof_items", proofs.items.size());
  SPIDER_OBS_HIST("spider/consumer_proof_bytes", proofs.total_bytes(), obs::size_buckets_bytes());
  return proofs;
}

std::vector<SpiderAnnounce> ProofGenerator::select_re_announcements(
    const Reconstruction& recon, bgp::AsNumber consumer,
    const std::vector<ReAnnounceSet>& sets, std::optional<bgp::Prefix> within) const {
  std::vector<SpiderAnnounce> selected;
  auto exports_it = recon.state.exports().find(consumer);
  if (exports_it == recon.state.exports().end()) return selected;

  for (const auto& [prefix, record] : bgp::subtree_of(exports_it->second, within)) {
    if (!faults_.hide_re_announce.empty() && faults_.hide_re_announce.count(prefix) != 0) {
      continue;
    }
    bgp::Route underlying = underlying_route(record.route, recorder_.config().asn);
    if (underlying.as_path.empty()) continue;  // locally originated
    for (const ReAnnounceSet& set : sets) {
      if (set.from_as != underlying.as_path.front()) continue;
      for (const SpiderAnnounce& announce : set.announcements) {
        if (announce.route.prefix == prefix && announce.route.as_path == underlying.as_path) {
          selected.push_back(announce);
        }
      }
    }
  }
  return selected;
}

ReAnnounceSet build_re_announce_set(const Recorder& producer_recorder, bgp::AsNumber elector,
                                    Time commit_time, std::optional<bgp::Prefix> within) {
  ReAnnounceSet set;
  set.from_as = producer_recorder.config().asn;
  set.commit_time = commit_time;
  for (const auto& [prefix, route] : producer_recorder.my_exports_to(elector, within)) {
    SpiderAnnounce announce;
    announce.timestamp = commit_time;  // §6.6: timestamps equal commit time
    announce.from_as = set.from_as;
    announce.to_as = elector;
    announce.route = route;
    announce.re_announce = true;
    set.announcements.push_back(std::move(announce));
  }
  return set;
}

}  // namespace spider::proto
