#include "spider/log.hpp"

#include <algorithm>
#include <atomic>

#include "crypto/ct.hpp"
#include "util/serde.hpp"

namespace spider::proto {

namespace {
Digest20 chain_hash(const Digest20& prev, const LogEntry& entry) {
  // The preimage keeps the ByteWriter field layout (big-endian fields,
  // u32 length prefix on the message) but is hashed in place with
  // digest20_concat — append() runs once per mirrored update, and the
  // serialize-then-hash copy was measurable at ingest rates.
  std::uint8_t header[25];
  std::size_t n = 0;
  auto be = [&](std::uint64_t v, int width) {
    for (int shift = (width - 1) * 8; shift >= 0; shift -= 8) {
      header[n++] = static_cast<std::uint8_t>(v >> shift);
    }
  };
  be(entry.seq, 8);
  be(static_cast<std::uint64_t>(entry.timestamp), 8);
  header[n++] = static_cast<std::uint8_t>(entry.direction);
  be(entry.peer_as, 4);
  be(entry.message.size(), 4);
  return crypto::digest20_concat({util::ByteSpan{prev.data(), prev.size()},
                                  util::ByteSpan{header, n},
                                  util::ByteSpan{entry.message.data(), entry.message.size()}});
}
}  // namespace

std::uint64_t MessageLog::Generation::next() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Bytes LogEntry::encode() const {
  util::ByteWriter w;
  w.u64(seq);
  w.i64(timestamp);
  w.u8(static_cast<std::uint8_t>(direction));
  w.u32(peer_as);
  w.bytes(message);
  w.u32(signature_bytes);
  w.digest(authenticator);
  return w.take();
}

LogEntry LogEntry::decode(ByteSpan data) {
  util::ByteReader r(data);
  LogEntry entry;
  entry.seq = r.u64();
  entry.timestamp = r.i64();
  std::uint8_t direction = r.u8();
  if (direction > 1) throw util::DecodeError("LogEntry: bad direction");
  entry.direction = static_cast<LogDirection>(direction);
  entry.peer_as = r.u32();
  entry.message = r.bytes();
  entry.signature_bytes = r.u32();
  entry.authenticator = r.digest();
  r.expect_end();
  return entry;
}

std::uint64_t LogCheckpoint::state_bytes() const {
  std::uint64_t total = 0;
  for (const Bytes& chunk : chunks) total += chunk.size();
  return total;
}

Bytes LogCheckpoint::encode() const {
  util::ByteWriter w;
  w.i64(timestamp);
  w.u32(static_cast<std::uint32_t>(chunks.size()));
  for (const Bytes& chunk : chunks) w.bytes(chunk);
  return w.take();
}

LogCheckpoint LogCheckpoint::decode(ByteSpan data) {
  util::ByteReader r(data);
  LogCheckpoint cp;
  cp.timestamp = r.i64();
  std::uint32_t n = r.check_count(r.u32(), 4, "LogCheckpoint chunks");
  cp.chunks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) cp.chunks.push_back(r.bytes());
  r.expect_end();
  return cp;
}

Bytes CommitmentRecord::encode() const {
  util::ByteWriter w;
  w.i64(timestamp);
  // spider-taint: declassify(§6.5: the log, seeds included, is handed to the trusted checker; this record never travels further)
  w.raw(seed.span());
  w.digest(root);
  w.u32(num_classes);
  return w.take();
}

CommitmentRecord CommitmentRecord::decode(ByteSpan data) {
  util::ByteReader r(data);
  CommitmentRecord record;
  record.timestamp = r.i64();
  Bytes seed_bytes = r.raw(record.seed.data.size());
  std::copy(seed_bytes.begin(), seed_bytes.end(), record.seed.data.begin());
  record.root = r.digest();
  record.num_classes = r.u32();
  r.expect_end();
  return record;
}

const LogEntry& MessageLog::append(Time timestamp, LogDirection direction, std::uint32_t peer_as,
                                   Bytes message, std::uint32_t signature_bytes) {
  LogEntry entry;
  entry.seq = next_seq_++;
  entry.timestamp = timestamp;
  entry.direction = direction;
  entry.peer_as = peer_as;
  entry.message = std::move(message);
  entry.signature_bytes = signature_bytes;
  entry.authenticator = chain_hash(head_, entry);
  head_ = entry.authenticator;
  message_bytes_ += entry.message.size();
  signature_bytes_ += signature_bytes;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

const LogEntry& MessageLog::append_entry(LogEntry entry) {
  next_seq_ = entry.seq + 1;
  head_ = entry.authenticator;
  message_bytes_ += entry.message.size();
  signature_bytes_ += entry.signature_bytes;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

void MessageLog::add_checkpoint(Time timestamp, std::vector<Bytes> state_chunks) {
  LogCheckpoint cp{timestamp, std::move(state_chunks)};
  checkpoint_bytes_ += cp.state_bytes();
  checkpoints_.push_back(std::move(cp));
}

void MessageLog::record_commitment(const CommitmentRecord& record) {
  commitments_[record.timestamp] = record;
}

bool MessageLog::verify_chain() const {
  Digest20 prev{};
  if (!entries_.empty() && entries_.front().seq != 0) {
    // Pruned log: the first remaining entry carries the base; recompute
    // forward from its stored authenticator.
    prev = entries_.front().authenticator;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (!crypto::constant_time_equal(chain_hash(prev, entries_[i]), entries_[i].authenticator)) {
        return false;
      }
      prev = entries_[i].authenticator;
    }
    return true;
  }
  for (const LogEntry& entry : entries_) {
    if (!crypto::constant_time_equal(chain_hash(prev, entry), entry.authenticator)) return false;
    prev = entry.authenticator;
  }
  return true;
}

const LogCheckpoint* MessageLog::checkpoint_before(Time t) const {
  const LogCheckpoint* best = nullptr;
  for (const auto& cp : checkpoints_) {
    if (cp.timestamp <= t && (!best || cp.timestamp > best->timestamp)) best = &cp;
  }
  return best;
}

const CommitmentRecord* MessageLog::commitment_at(Time t) const {
  auto it = commitments_.find(t);
  return it == commitments_.end() ? nullptr : &it->second;
}

std::vector<const LogEntry*> MessageLog::entries_between(Time after, Time until) const {
  std::vector<const LogEntry*> out;
  for (const LogEntry& entry : entries_) {
    if (entry.timestamp > after && entry.timestamp <= until) out.push_back(&entry);
  }
  return out;
}

void MessageLog::prune_before(Time cutoff) {
  generation_.value = Generation::next();
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [cutoff](const LogEntry& e) { return e.timestamp >= cutoff; });
  for (auto del = entries_.begin(); del != it; ++del) {
    message_bytes_ -= del->message.size();
    signature_bytes_ -= del->signature_bytes;
  }
  entries_.erase(entries_.begin(), it);

  // Keep the newest checkpoint older than the cutoff — replay of the oldest
  // retained entries still needs a base state.
  const LogCheckpoint* base = checkpoint_before(cutoff);
  const bool has_base = base != nullptr;
  const Time base_ts = has_base ? base->timestamp : 0;
  auto cp_it = std::remove_if(checkpoints_.begin(), checkpoints_.end(),
                              [&](const LogCheckpoint& cp) {
                                if (has_base && cp.timestamp == base_ts) return false;
                                return cp.timestamp < cutoff;
                              });
  for (auto del = cp_it; del != checkpoints_.end(); ++del) checkpoint_bytes_ -= del->state_bytes();
  checkpoints_.erase(cp_it, checkpoints_.end());

  for (auto c = commitments_.begin(); c != commitments_.end();) {
    if (c->first < cutoff) {
      c = commitments_.erase(c);
    } else {
      ++c;
    }
  }
}

}  // namespace spider::proto
