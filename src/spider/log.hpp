// The recorder's tamper-evident message log (paper §6.5).
//
// Every signed SPIDeR message the AS sends or receives is appended to a
// hash-chained log; commitments add only the 32-byte CSPRNG seed, because
// the MTT can be reconstructed from the message trace; periodic full
// checkpoints of the routing state bound replay time; entries older than
// the retention time can be pruned.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "crypto/random.hpp"
#include "crypto/sha2.hpp"
#include "netsim/sim.hpp"
#include "util/bytes.hpp"

namespace spider::proto {

using netsim::Time;
using util::Bytes;
using util::ByteSpan;
using util::Digest20;

enum class LogDirection : std::uint8_t { kSent = 0, kReceived = 1 };

struct LogEntry {
  std::uint64_t seq = 0;
  Time timestamp = 0;
  LogDirection direction = LogDirection::kSent;
  std::uint32_t peer_as = 0;
  /// The full signed envelope bytes of the (batch) message.
  Bytes message;
  /// How many of those bytes are signature material (for the storage
  /// breakdown of §7.7).
  std::uint32_t signature_bytes = 0;
  /// Chain authenticator: H(prev_auth || seq || timestamp || message).
  Digest20 authenticator{};

  /// Wire form for audit transfer (§6.5): an auditor fetches log segments
  /// from a recorder it does not trust, so decode treats the bytes as
  /// adversarial and re-verifies the hash chain separately.
  Bytes encode() const;
  static LogEntry decode(ByteSpan data);
};

/// A full snapshot of the recorder's mirrored routing state at some time,
/// stored as streamed chunks (MirrorState::serialize_chunked): a full-RIB
/// checkpoint is written and restored chunk by chunk, never as one
/// contiguous state buffer.  The chunks are opaque here; the recorder
/// knows the format.
struct LogCheckpoint {
  Time timestamp = 0;
  std::vector<Bytes> chunks;

  /// Total state payload across all chunks (storage accounting, §7.7).
  std::uint64_t state_bytes() const;

  Bytes encode() const;
  static LogCheckpoint decode(ByteSpan data);
};

/// What a commitment adds to the log: just the seed (32 bytes) — the tree
/// itself is regenerated on demand.
struct CommitmentRecord {
  Time timestamp = 0;
  crypto::Seed seed;
  Digest20 root{};  // convenience copy; also present in the logged message
  std::uint32_t num_classes = 0;

  Bytes encode() const;
  static CommitmentRecord decode(ByteSpan data);
};

class MessageLog {
 public:
  /// Appends a message; returns the entry's chain authenticator.
  const LogEntry& append(Time timestamp, LogDirection direction, std::uint32_t peer_as,
                         Bytes message, std::uint32_t signature_bytes);

  /// Appends a transferred entry as-is, preserving its seq number and
  /// chain authenticator — the audit-transfer path (§6.5), where the
  /// source log may have been pruned and its chain no longer starts at
  /// seq 0.  Callers validate the rebuilt log with verify_chain().
  const LogEntry& append_entry(LogEntry entry);

  void add_checkpoint(Time timestamp, std::vector<Bytes> state_chunks);
  void record_commitment(const CommitmentRecord& record);

  /// Verifies the hash chain; false if any entry was altered.
  bool verify_chain() const;

  /// The most recent checkpoint with timestamp <= t, if any.
  const LogCheckpoint* checkpoint_before(Time t) const;
  const std::vector<LogCheckpoint>& checkpoints() const { return checkpoints_; }

  /// The commitment record at exactly time t.
  const CommitmentRecord* commitment_at(Time t) const;
  const std::map<Time, CommitmentRecord>& commitments() const { return commitments_; }

  /// Entries with checkpoint_time < timestamp <= t, for replay.
  std::vector<const LogEntry*> entries_between(Time after, Time until) const;

  const std::vector<LogEntry>& entries() const { return entries_; }
  /// Sequence number the next appended entry gets (survives pruning).
  std::uint64_t next_seq() const { return next_seq_; }

  /// Discards entries, checkpoints and commitments older than `cutoff`
  /// (the retention time R of §6.5).  The chain stays verifiable from the
  /// stored base authenticator.
  void prune_before(Time cutoff);

  /// Process-unique tag of this log's retained content.  Appends keep it;
  /// prune_before and every copy or move into (or out of) this object
  /// draw a fresh one.  State derived from the log, like the proof
  /// generator's reconstruction cache, pins it so that content removed or
  /// replaced underneath is never served.
  std::uint64_t generation() const { return generation_.value; }

  // --- storage accounting (§7.7)
  std::uint64_t message_bytes() const { return message_bytes_; }
  std::uint64_t signature_bytes() const { return signature_bytes_; }
  std::uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }
  /// Per-commitment storage: 32 bytes of seed plus bookkeeping.
  std::uint64_t commitment_bytes() const { return commitments_.size() * sizeof(crypto::Seed); }

 private:
  std::vector<LogEntry> entries_;
  std::vector<LogCheckpoint> checkpoints_;
  std::map<Time, CommitmentRecord> commitments_;
  Digest20 head_{};  // chain head (base authenticator after pruning)
  std::uint64_t next_seq_ = 0;
  std::uint64_t message_bytes_ = 0;
  std::uint64_t signature_bytes_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;

  struct Generation {
    static std::uint64_t next();
    Generation() = default;
    Generation(const Generation&) : value(next()) {}
    Generation(Generation&& other) noexcept : value(next()) { other.value = next(); }
    Generation& operator=(const Generation&) {
      value = next();
      return *this;
    }
    Generation& operator=(Generation&& other) noexcept {
      value = next();
      other.value = next();
      return *this;
    }
    std::uint64_t value = next();
  };
  Generation generation_;
};

}  // namespace spider::proto
