#include "spider/recorder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace spider::proto {

Recorder::Recorder(transport::Endpoint& transport, RecorderConfig config,
                   const crypto::Signer& signer, const core::KeyRegistry& keys,
                   bgp::Speaker& speaker)
    : transport_(transport),
      config_(std::move(config)),
      signer_(signer),
      keys_(keys),
      speaker_(speaker),
      classifier_(config_.num_classes),
      window_key_(crypto::seed_from_string(config_.seed_salt + "-" +
                                           std::to_string(config_.asn) + "-window")) {
  transport_.set_frame_handler(
      [this](transport::PeerId from, util::ByteSpan frame) { handle_frame(from, frame); });
}

namespace {

/// How late a message may legitimately arrive: clock skew plus the full
/// retransmit budget.
Time late_budget(const RecorderConfig& config) {
  return config.max_clock_skew + config.ack_deadline * (config.max_retransmits + 1);
}

}  // namespace

bool announce_timely(Time announce_timestamp, Time local_arrival, const RecorderConfig& config) {
  const Time age = local_arrival - announce_timestamp;
  return age >= -config.max_clock_skew && age <= late_budget(config);
}

void Recorder::add_neighbor(bgp::AsNumber neighbor_as) {
  if (neighbors_.count(neighbor_as) == 0 && neighbors_.size() == kMaxWindowSlots) {
    throw std::length_error("Recorder: a flush window has at most 256 neighbour slots");
  }
  neighbors_.insert(neighbor_as);
}

void Recorder::set_promise(bgp::AsNumber consumer, core::Promise promise) {
  promises_.insert_or_assign(consumer, std::move(promise));
  // Promises feed every prefix's bit vector, so a change invalidates the
  // whole live tree (detected against committed_promises_version_).
  ++promises_version_;
}

void Recorder::mark_dirty(const bgp::Prefix& prefix) {
  if (live_tree_valid_) dirty_prefixes_.insert(prefix);
}

Time Recorder::local_now() const { return transport_.now(); }

void Recorder::start(bool schedule_commitments) {
  if (started_) throw std::logic_error("Recorder: already started");
  started_ = true;

  bgp::Speaker::Observer observer;
  observer.on_update_out = [this](bgp::AsNumber to, const bgp::Update& update) {
    observe_update_out(to, update);
  };
  observer.on_route_in = [this](bgp::AsNumber from, const bgp::Route& raw,
                                const std::optional<bgp::Route>& imported) {
    observe_route_in(from, raw, imported);
  };
  observer.on_withdraw_in = [this](bgp::AsNumber from, const bgp::Prefix& prefix) {
    observe_withdraw_in(from, prefix);
  };
  speaker_.set_observer(std::move(observer));

  // Initial full checkpoint: the base of every replay (§6.5).
  log_.add_checkpoint(local_now(), state_.serialize_chunked(config_.checkpoint_chunk_bytes));

  if (schedule_commitments) schedule_commit();
}

void Recorder::make_checkpoint() {
  log_.add_checkpoint(local_now(), state_.serialize_chunked(config_.checkpoint_chunk_bytes));
}

void Recorder::restore_from(MessageLog log) {
  if (started_) throw std::logic_error("Recorder: restore_from after start");
  // Nothing is adopted until the checkpoint decodes: a log that throws
  // here leaves the recorder as it was.
  const LogCheckpoint* checkpoint = log.checkpoint_before(std::numeric_limits<Time>::max());
  if (!checkpoint) throw std::invalid_argument("Recorder: log has no checkpoint to restore from");
  MirrorState base = MirrorState::deserialize_chunked(checkpoint->chunks);
  const Time base_time = checkpoint->timestamp;
  log_ = std::move(log);
  state_ = std::move(base);

  // Replay everything logged after the checkpoint, with exactly the live
  // acceptance rules (a part the pre-crash recorder rejected for timing
  // must not resurface in the restored mirror).
  for (const LogEntry* entry :
       log_.entries_between(base_time, std::numeric_limits<Time>::max())) {
    core::SignedEnvelope envelope;
    SpiderBatch batch;
    try {
      envelope = core::SignedEnvelope::decode(entry->message);
      batch = SpiderBatch::decode(envelope.payload);
    } catch (const util::DecodeError&) {
      continue;
    }
    for (const SpiderBatch::Part& part : batch.parts) {
      try {
        switch (part.type) {
          case SpiderMsgType::kAnnounce: {
            SpiderAnnounce announce = SpiderAnnounce::decode(part.body);
            if (announce.re_announce) break;
            if (entry->direction == LogDirection::kReceived) {
              if (!announce_timely(announce.timestamp, entry->timestamp, config_)) break;
              state_.apply_announce_in(announce, crypto::digest20(part.body));
            } else {
              state_.apply_announce_out(announce);
            }
            break;
          }
          case SpiderMsgType::kWithdraw: {
            SpiderWithdraw withdraw = SpiderWithdraw::decode(part.body);
            if (entry->direction == LogDirection::kReceived) {
              state_.apply_withdraw_in(withdraw);
            } else {
              state_.apply_withdraw_out(withdraw);
            }
            break;
          }
          case SpiderMsgType::kAck:
          case SpiderMsgType::kCommit:
          case SpiderMsgType::kReAnnounce:
            break;
        }
      } catch (const util::DecodeError&) {
      }
    }
  }

  // Window salts are keyed on the flush sequence number: continuing from
  // the log's next entry number keeps every (time, seq) pair fresh, since
  // each earlier flush logged at least one entry.
  flush_seq_ = log_.next_seq();

  // The live tree (if any) described the pre-restore mirror; drop it.
  live_tree_valid_ = false;
  dirty_prefixes_.clear();
  SPIDER_OBS_COUNT("spider/restores", 1);
}

void Recorder::schedule_commit() {
  transport_.schedule_in(config_.commit_interval, [this] {
    make_commitment();
    schedule_commit();
  });
}

void Recorder::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  transport_.schedule_in(config_.batch_window, [this] {
    flush_scheduled_ = false;
    flush_batches();
  });
}

bool Recorder::verify_now(const core::SignedEnvelope& envelope) {
  util::ScopedCpu scope(sign_meter_);
  SPIDER_OBS_SPAN(verify_span, "spider/batch_verify");
  ++verifications_;
  SPIDER_OBS_COUNT("spider/batches_verified", 1);
  return check_batch(envelope, keys_);
}

// ------------------------------------------------------- speaker observer

/// SignedEnvelope{signer, payload = SpiderBatch{{type, body}}, empty
/// signature} in a single pass — byte-identical to the nested encode()s,
/// which the §6.7 synthetic-record path otherwise runs once per mirrored
/// route (three writers and two intermediate copies).
Bytes encode_unsigned_single(std::uint32_t signer, SpiderMsgType type, const Bytes& body) {
  util::ByteWriter w;
  w.u32(signer);
  w.u32(static_cast<std::uint32_t>(9 + body.size()));  // one-part batch payload
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(body);
  w.u32(0);  // no signature: the record is the recorder's own observation
  return w.take();
}

void Recorder::observe_update_out(bgp::AsNumber to, const bgp::Update& update) {
  util::ScopedCpu scope(total_meter_);
  const Time now = local_now();
  for (const bgp::Route& route : update.announced) {
    SpiderAnnounce announce;
    announce.timestamp = now;
    announce.from_as = config_.asn;
    announce.to_as = to;
    announce.route = route;
    // Reference to the underlying imported route (the r' of §6.2).
    const bgp::Route* best = speaker_.loc_rib().find(route.prefix);
    if (best && best->learned_from != 0) {
      announce.underlying_from = best->learned_from;
      if (const InputRecord* input = state_.input(best->learned_from, route.prefix)) {
        announce.underlying_digest = input->part_digest;
      }
    }
    state_.apply_announce_out(announce);
    mark_dirty(route.prefix);
    if (neighbors_.count(to) != 0) {
      queue_part(to, SpiderMsgType::kAnnounce, announce.encode());
    }
  }
  for (const bgp::Prefix& prefix : update.withdrawn) {
    SpiderWithdraw withdraw;
    withdraw.timestamp = now;
    withdraw.from_as = config_.asn;
    withdraw.to_as = to;
    withdraw.prefix = prefix;
    state_.apply_withdraw_out(withdraw);
    mark_dirty(prefix);
    if (neighbors_.count(to) != 0) {
      queue_part(to, SpiderMsgType::kWithdraw, withdraw.encode());
    }
  }
}

void Recorder::observe_route_in(bgp::AsNumber from, const bgp::Route& raw,
                                const std::optional<bgp::Route>& /*imported*/) {
  util::ScopedCpu scope(total_meter_);
  if (neighbors_.count(from) != 0) {
    // BGP's view of a participant neighbor, kept for the §6.2 commit-time
    // cross-check against their signed mirror.  Non-participant routes
    // never enter that check, so the copy stays off the §6.7 fast path.
    bgp_raw_[from][raw.prefix] = raw;
    return;  // participant: input arrives signed
  }

  // Non-participant neighbor (§6.7): mirror the BGP view directly and log a
  // synthetic, unsigned record so replay reproduces the same inputs.
  SpiderAnnounce announce;
  announce.timestamp = local_now();
  announce.from_as = from;
  announce.to_as = config_.asn;
  announce.route = raw;
  Bytes body = announce.encode();
  Digest20 digest = crypto::digest20(body);
  state_.apply_announce_in(announce, digest);
  mark_dirty(raw.prefix);
  ++updates_mirrored_;
  SPIDER_OBS_COUNT("spider/updates_mirrored", 1);

  log_.append(announce.timestamp, LogDirection::kReceived, from,
              encode_unsigned_single(from, SpiderMsgType::kAnnounce, body), 0);
}

void Recorder::observe_withdraw_in(bgp::AsNumber from, const bgp::Prefix& prefix) {
  util::ScopedCpu scope(total_meter_);
  auto raw_it = bgp_raw_.find(from);
  if (raw_it != bgp_raw_.end()) raw_it->second.erase(prefix);
  if (neighbors_.count(from) != 0) return;

  SpiderWithdraw withdraw;
  withdraw.timestamp = local_now();
  withdraw.from_as = from;
  withdraw.to_as = config_.asn;
  withdraw.prefix = prefix;
  Bytes body = withdraw.encode();
  state_.apply_withdraw_in(withdraw);
  mark_dirty(prefix);
  ++updates_mirrored_;
  SPIDER_OBS_COUNT("spider/updates_mirrored", 1);

  log_.append(withdraw.timestamp, LogDirection::kReceived, from,
              encode_unsigned_single(from, SpiderMsgType::kWithdraw, body), 0);
}

// ------------------------------------------------------------- batching

void Recorder::queue_part(bgp::AsNumber neighbor, SpiderMsgType type, Bytes body) {
  pending_parts_[neighbor].push_back({type, std::move(body)});
  schedule_flush();
}

Digest20 Recorder::window_prf(char domain, Time at, std::uint64_t seq,
                              std::uint32_t slot) const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(domain));
  w.i64(at);
  w.u64(seq);
  w.u32(slot);
  const Bytes input = w.take();
  return crypto::digest20_concat({window_key_.span(), input});
}

void Recorder::flush_batches() {
  util::ScopedCpu scope(total_meter_);
  // One window over all neighbour slots: slot i is the i-th neighbour in
  // AS order, and the width is the next power of two, so a proof's depth
  // says nothing about how many neighbours got traffic in this flush.
  std::size_t width = 1;
  while (width < neighbors_.size()) width <<= 1;
  std::vector<WindowSlot> slots(width);
  struct Flushed {
    bgp::AsNumber neighbor;
    bool needs_ack;  // carries a part other than an ACK
  };
  std::vector<Flushed> flushed;
  std::uint32_t slot = 0;
  for (bgp::AsNumber neighbor : neighbors_) {
    auto it = pending_parts_.find(neighbor);
    if (it != pending_parts_.end() && !it->second.empty()) {
      SpiderBatch batch;
      batch.parts = std::move(it->second);
      it->second.clear();
      const bool needs_ack = std::any_of(
          batch.parts.begin(), batch.parts.end(),
          [](const SpiderBatch::Part& part) { return part.type != SpiderMsgType::kAck; });
      slots[slot].payload = batch.encode();
      flushed.push_back({neighbor, needs_ack});
    }
    ++slot;
  }
  if (flushed.empty()) return;

  const Time now = local_now();
  const std::uint64_t seq = flush_seq_++;
  for (std::uint32_t i = 0; i < width; ++i) {
    if (slots[i].payload) {
      const Digest20 salt = window_prf('s', now, seq, i);
      std::copy_n(salt.begin(), kWindowSaltBytes, slots[i].salt.begin());
    } else {
      slots[i].dummy_leaf = window_prf('d', now, seq, i);
    }
  }
  std::vector<core::SignedEnvelope> envelopes;
  {
    util::ScopedCpu sign_scope(sign_meter_);
    SPIDER_OBS_SPAN(sign_span, "spider/batch_sign");
    envelopes = sign_window(config_.asn, signer_, std::move(slots));
  }
  ++signatures_;
  SPIDER_OBS_COUNT("spider/batches_signed", 1);

  for (std::size_t i = 0; i < flushed.size(); ++i) {
    const bgp::AsNumber neighbor = flushed[i].neighbor;
    Bytes wire = envelopes[i].encode();
    SPIDER_OBS_COUNT("spider/batches_flushed", 1);
    SPIDER_OBS_COUNT("spider/wire_bytes_out", wire.size());
    log_.append(now, LogDirection::kSent, neighbor, wire,
                static_cast<std::uint32_t>(envelopes[i].signature.size()));
    // A pure-ACK batch is never ACKed in turn (PROTOCOL.md), so it is
    // neither awaited nor retransmitted: a lost one is recovered by the
    // peer's own retransmission, which this recorder re-ACKs.
    if (flushed[i].needs_ack) {
      const Digest20 digest = crypto::digest20(wire);
      awaiting_ack_.push_back({digest, now, neighbor, wire, 1});
      schedule_ack_check(digest);
    }
    if (transport_.send(neighbor, wire)) bytes_sent_ += wire.size();
  }
}

void Recorder::schedule_ack_check(const Digest20& digest) {
  // ACK deadline (T_max of §6.2): retransmit a few times, then raise an
  // alarm to be handled out of band.
  transport_.schedule_in(config_.ack_deadline, [this, digest] {
    auto it = std::find_if(awaiting_ack_.begin(), awaiting_ack_.end(),
                           [&](const PendingAck& p) {
                             return crypto::constant_time_equal(p.digest, digest);
                           });
    if (it == awaiting_ack_.end()) return;  // acked in time
    if (it->attempts > config_.max_retransmits) {
      alarm("no ACK from AS" + std::to_string(it->to) + " after " +
            std::to_string(it->attempts) + " transmissions");
      return;
    }
    it->attempts += 1;
    ++retransmissions_;
    SPIDER_OBS_COUNT("spider/retransmissions", 1);
    if (transport_.send(it->to, it->wire)) bytes_sent_ += it->wire.size();
    schedule_ack_check(digest);
  });
}

// ------------------------------------------------------------- receiving

void Recorder::handle_frame(transport::PeerId from, util::ByteSpan payload) {
  util::ScopedCpu scope(total_meter_);
  if (from == transport::kUnknownPeer || neighbors_.count(from) == 0) {
    alarm("message from unknown recorder node");
    return;
  }
  const bgp::AsNumber from_as = from;

  core::SignedEnvelope envelope;
  try {
    envelope = core::SignedEnvelope::decode(payload);
  } catch (const util::DecodeError&) {
    alarm("undecodable envelope from AS" + std::to_string(from_as));
    return;
  }
  if (envelope.signer != from_as || !verify_now(envelope)) {
    alarm("bad signature from AS" + std::to_string(from_as));
    return;
  }
  process_batch(from_as, envelope);
}

void Recorder::process_batch(bgp::AsNumber from, const core::SignedEnvelope& envelope) {
  const Digest20 batch_digest = envelope.digest();
  auto seen_it = seen_batches_.find(batch_digest);
  if (seen_it != seen_batches_.end()) {
    // Retransmission (our ACK was lost) or network duplicate: never
    // re-apply — that would regress the mirror — but repeat the ACK when
    // the original processing sent one.
    SPIDER_OBS_COUNT("spider/duplicate_batches", 1);
    if (seen_it->second.acked) send_ack(from, batch_digest);
    return;
  }

  SpiderBatch batch;
  try {
    batch = SpiderBatch::decode(envelope.payload);
  } catch (const util::DecodeError&) {
    alarm("undecodable batch from AS" + std::to_string(from));
    return;
  }

  bool needs_ack = false;
  bool logged = false;
  auto log_once = [&] {
    if (logged) return;
    log_.append(local_now(), LogDirection::kReceived, from, envelope.encode(),
                static_cast<std::uint32_t>(envelope.signature.size()));
    logged = true;
  };

  for (std::size_t i = 0; i < batch.parts.size(); ++i) {
    const SpiderBatch::Part& part = batch.parts[i];
    try {
      switch (part.type) {
        case SpiderMsgType::kAnnounce: {
          SpiderAnnounce announce = SpiderAnnounce::decode(part.body);
          if (announce.from_as != from || announce.to_as != config_.asn) {
            alarm("announce with wrong endpoints from AS" + std::to_string(from));
            break;
          }
          if (!announce_timely(announce.timestamp, local_now(), config_)) {
            alarm("announce timestamp outside skew bound from AS" + std::to_string(from));
            break;
          }
          log_once();
          state_.apply_announce_in(announce, crypto::digest20(part.body));
          mark_dirty(announce.route.prefix);
          ++updates_mirrored_;
          SPIDER_OBS_COUNT("spider/updates_mirrored", 1);
          needs_ack = true;
          break;
        }
        case SpiderMsgType::kWithdraw: {
          SpiderWithdraw withdraw = SpiderWithdraw::decode(part.body);
          if (withdraw.from_as != from || withdraw.to_as != config_.asn) {
            alarm("withdraw with wrong endpoints from AS" + std::to_string(from));
            break;
          }
          log_once();
          state_.apply_withdraw_in(withdraw);
          mark_dirty(withdraw.prefix);
          ++updates_mirrored_;
          SPIDER_OBS_COUNT("spider/updates_mirrored", 1);
          needs_ack = true;
          break;
        }
        case SpiderMsgType::kCommit: {
          SpiderCommit commit = SpiderCommit::decode(part.body);
          if (commit.from_as != from) {
            alarm("commit with wrong source from AS" + std::to_string(from));
            break;
          }
          log_once();
          received_commitments_[from][commit.timestamp] = commit;
          needs_ack = true;
          break;
        }
        case SpiderMsgType::kAck: {
          SpiderAck ack = SpiderAck::decode(part.body);
          auto it = std::find_if(awaiting_ack_.begin(), awaiting_ack_.end(),
                                 [&](const PendingAck& pending) {
                                   return crypto::constant_time_equal(pending.digest, ack.message_digest) &&
                                          pending.to == from;
                                 });
          if (it == awaiting_ack_.end()) {
            if (satisfied_acks_.count(ack.message_digest)) {
              // Duplicate of an ACK we already matched (retransmission
              // crossed with the original ACK, or the network duplicated
              // the batch and the receiver's dedup re-ACKed).
              SPIDER_OBS_COUNT("spider/duplicate_acks", 1);
              break;
            }
            alarm("unexpected ACK from AS" + std::to_string(from));
            break;
          }
          log_once();
          satisfied_acks_.emplace(it->digest, local_now());
          awaiting_ack_.erase(it);
          break;
        }
        case SpiderMsgType::kReAnnounce:
          // Extended verification traffic is handled by the proof
          // generator / checker layer, not the live recorder.
          break;
      }
    } catch (const util::DecodeError&) {
      alarm("undecodable part from AS" + std::to_string(from));
    }
  }

  seen_batches_.emplace(batch_digest, SeenBatch{needs_ack, local_now()});
  if (needs_ack) send_ack(from, batch_digest);
}

void Recorder::send_ack(bgp::AsNumber to, const Digest20& batch_digest) {
  // The ACK rides the next batch to `to`, under that flush's one signature.
  SpiderAck ack;
  ack.timestamp = local_now();
  ack.from_as = config_.asn;
  ack.to_as = to;
  ack.message_digest = batch_digest;
  queue_part(to, SpiderMsgType::kAck, ack.encode());
}

void Recorder::prune_dedup_state() {
  // A duplicate batch or ACK arrives within the retransmit budget of the
  // original (the sender gives up after it), so older entries can never
  // match again.
  const Time cutoff = local_now() - late_budget(config_);
  std::erase_if(seen_batches_, [&](const auto& entry) { return entry.second.at < cutoff; });
  std::erase_if(satisfied_acks_, [&](const auto& entry) { return entry.second < cutoff; });
}

// ------------------------------------------------------------ commitment

crypto::Seed Recorder::commitment_seed(Time now) const {
  // The commitment's identity in the protocol is its timestamp (the log
  // keys commitments by Time), so deriving the seed from the timestamp ties
  // seed freshness to commitment freshness: a recorder restored from
  // checkpoint+replay commits at strictly later times than anything in its
  // log and therefore can never reuse a seed — the bug a restart-counter
  // scheme had.
  return crypto::seed_from_string(config_.seed_salt + "-" + std::to_string(config_.asn) + "-t" +
                                  std::to_string(now));
}

Digest20 Recorder::commit_root(const crypto::Seed& seed) {
  util::ScopedCpu mtt_scope(mtt_meter_);
  const crypto::CommitmentPrf prf(seed);

  // Global-parameter changes (ignore-input faults, promises) rewrite every
  // prefix's bits, so they force a rebuild; prefix churn flows through
  // apply().  Content-addressed PRF indexing makes every branch produce
  // the identical root a fresh build would.
  const bool params_changed = committed_ignored_ != faults_.ignore_inputs ||
                              committed_promises_version_ != promises_version_;
  if (!live_tree_valid_ || params_changed) {
    auto entries = build_mtt_entries(state_, classifier_, promises_, faults_.ignore_inputs);
    live_tree_ = core::Mtt::build(std::move(entries), config_.num_classes);
    live_tree_.compute_labels(prf, config_.commit_threads);
    live_tree_valid_ = true;
    SPIDER_OBS_COUNT("spider/commit_full_builds", 1);
  } else {
    std::vector<core::MttUpdate> updates;
    updates.reserve(dirty_prefixes_.size());
    for (const bgp::Prefix& prefix : dirty_prefixes_) {
      updates.push_back({prefix, mtt_entry_for(state_, classifier_, promises_,
                                               faults_.ignore_inputs, prefix)});
    }
    // Every commitment has a fresh seed: the structure survives, the
    // labeling starts over.
    live_tree_.apply(updates);
    live_tree_.compute_labels(prf, config_.commit_threads);
    SPIDER_OBS_COUNT("spider/commit_structure_reuse", 1);
  }
  committed_ignored_ = faults_.ignore_inputs;
  committed_promises_version_ = promises_version_;
  dirty_prefixes_.clear();
  return live_tree_.root_label();
}

const CommitmentRecord& Recorder::make_commitment() {
  util::ScopedCpu scope(total_meter_);
  SPIDER_OBS_SPAN(commit_span, "spider/commitment");
  cross_check_mirror();
  prune_dedup_state();

  const Time now = local_now();
  CommitmentRecord record;
  record.timestamp = now;
  record.num_classes = config_.num_classes;
  record.seed = commitment_seed(now);
  record.root = commit_root(record.seed);

  log_.record_commitment(record);
  ++commitments_made_;
  SPIDER_OBS_COUNT("spider/commitments_made", 1);

  SpiderCommit commit;
  commit.timestamp = now;
  commit.from_as = config_.asn;
  commit.num_classes = config_.num_classes;
  commit.root = record.root;
  for (bgp::AsNumber neighbor : neighbors_) {
    if (faults_.withhold_commit_from.count(neighbor) != 0) continue;
    SpiderCommit to_send = commit;
    // Equivocation fault: this neighbor gets a different root for the same
    // round (flipping one bit is enough for the cross-check to catch).
    if (faults_.equivocate_to.count(neighbor) != 0) to_send.root[0] ^= 1;
    queue_part(neighbor, SpiderMsgType::kCommit, to_send.encode());
  }
  flush_batches();
  const CommitmentRecord& logged = *log_.commitment_at(record.timestamp);
  if (commitment_hook_) commitment_hook_(logged);
  return logged;
}

void Recorder::cross_check_mirror() {
  // §6.2: the recorder compares the signed messages from each neighbor's
  // recorder against what the local routers got via BGP.
  for (bgp::AsNumber neighbor : neighbors_) {
    auto raw_it = bgp_raw_.find(neighbor);
    const auto* raw = raw_it == bgp_raw_.end() ? nullptr : &raw_it->second;
    auto mirror_it = state_.inputs().find(neighbor);
    const auto* mirror = mirror_it == state_.inputs().end() ? nullptr : &mirror_it->second;
    if (!raw && !mirror) continue;
    if (raw && mirror) {
      for (const auto& [prefix, route] : *raw) {
        auto m = mirror->find(prefix);
        // Compare the wire-visible attributes; learned_from/local_pref are
        // import-side annotations and legitimately differ.
        if (m != mirror->end() &&
            (m->second.route.as_path != route.as_path || m->second.route.med != route.med ||
             m->second.route.origin != route.origin ||
             m->second.route.communities != route.communities)) {
          alarm("mirror mismatch with AS" + std::to_string(neighbor) + " for " + prefix.str());
        }
      }
    }
  }
}

void Recorder::alarm(std::string what) {
  SPIDER_OBS_COUNT("spider/alarms", 1);
  alarms_.push_back(std::move(what));
}

std::map<bgp::Prefix, bgp::Route> Recorder::my_exports_to(
    bgp::AsNumber neighbor, std::optional<bgp::Prefix> within) const {
  std::map<bgp::Prefix, bgp::Route> out;
  auto it = state_.exports().find(neighbor);
  if (it == state_.exports().end()) return out;
  for (const auto& [prefix, record] : bgp::subtree_of(it->second, within)) {
    out.emplace_hint(out.end(), prefix, record.route);
  }
  return out;
}

std::map<bgp::Prefix, bgp::Route> Recorder::my_imports_from(
    bgp::AsNumber neighbor, std::optional<bgp::Prefix> within) const {
  std::map<bgp::Prefix, bgp::Route> out;
  auto it = state_.inputs().find(neighbor);
  if (it == state_.inputs().end()) return out;
  for (const auto& [prefix, record] : bgp::subtree_of(it->second, within)) {
    out.emplace_hint(out.end(), prefix, record.route);
  }
  return out;
}

namespace {

/// Scans the log backwards for the newest part satisfying `match`.
template <typename Match>
std::optional<MessageQuote> find_part(const MessageLog& log, LogDirection direction,
                                      bgp::AsNumber peer, Time until, Match&& match) {
  const auto& entries = log.entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->direction != direction || it->peer_as != peer || it->timestamp > until) continue;
    core::SignedEnvelope envelope;
    SpiderBatch batch;
    try {
      envelope = core::SignedEnvelope::decode(it->message);
      batch = SpiderBatch::decode(envelope.payload);
    } catch (const util::DecodeError&) {
      continue;
    }
    for (std::uint32_t part = 0; part < batch.parts.size(); ++part) {
      if (match(batch.parts[part])) {
        return MessageQuote{envelope, part};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<MessageQuote> Recorder::find_announce_quote(LogDirection direction,
                                                          bgp::AsNumber peer,
                                                          const bgp::Prefix& prefix,
                                                          Time until) const {
  return find_part(log_, direction, peer, until, [&](const SpiderBatch::Part& part) {
    if (part.type != SpiderMsgType::kAnnounce) return false;
    try {
      return SpiderAnnounce::decode(part.body).route.prefix == prefix;
    } catch (const util::DecodeError&) {
      return false;
    }
  });
}

std::optional<MessageQuote> Recorder::find_withdraw_quote(LogDirection direction,
                                                          bgp::AsNumber peer,
                                                          const bgp::Prefix& prefix,
                                                          Time until) const {
  return find_part(log_, direction, peer, until, [&](const SpiderBatch::Part& part) {
    if (part.type != SpiderMsgType::kWithdraw) return false;
    try {
      return SpiderWithdraw::decode(part.body).prefix == prefix;
    } catch (const util::DecodeError&) {
      return false;
    }
  });
}

std::optional<core::SignedEnvelope> Recorder::find_ack_for(const Digest20& batch_digest) const {
  for (auto it = log_.entries().rbegin(); it != log_.entries().rend(); ++it) {
    if (it->direction != LogDirection::kReceived) continue;
    core::SignedEnvelope envelope;
    SpiderBatch batch;
    try {
      envelope = core::SignedEnvelope::decode(it->message);
      batch = SpiderBatch::decode(envelope.payload);
    } catch (const util::DecodeError&) {
      continue;
    }
    for (const SpiderBatch::Part& part : batch.parts) {
      if (part.type != SpiderMsgType::kAck) continue;
      try {
        if (crypto::constant_time_equal(SpiderAck::decode(part.body).message_digest,
                                        batch_digest)) {
          return envelope;
        }
      } catch (const util::DecodeError&) {
      }
    }
  }
  return std::nullopt;
}

}  // namespace spider::proto
