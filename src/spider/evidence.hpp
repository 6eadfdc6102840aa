// Evidence of import/export with timestamp-based refutation (paper §6.3).
//
// With periodic commitments, a signed announcement alone no longer proves a
// route was in force at verification time T — it may have been withdrawn.
// Evidence is therefore iterative:
//   * Evidence of import ("I was exporting r to Bob at T"): my ANNOUNCE
//     with timestamp t' < T plus Bob's matching ACK.  Bob refutes it with
//     my own WITHDRAW timestamped t'' in (t', T).
//   * Evidence of export ("Bob was exporting r to me at T"): Bob's
//     ANNOUNCE with t' < T.  Bob refutes with his WITHDRAW t'' in (t', T)
//     together with my matching ACK.
// Timestamps are always the *elector's* (outgoing effective when sent,
// incoming when acknowledged), so loosely synchronized clocks cannot be
// gamed by re-signing.
#pragma once

#include <optional>

#include "spider/messages.hpp"

namespace spider::proto {

/// A quoted, signed announce or withdraw (one part of a signed batch).
struct QuotedMessage {
  MessageQuote quote;

  /// Decodes the quoted part as an announce; nullopt if invalid/not one.
  std::optional<SpiderAnnounce> as_announce(const core::KeyRegistry& keys) const;
  std::optional<SpiderWithdraw> as_withdraw(const core::KeyRegistry& keys) const;

  Bytes encode() const { return quote.encode(); }
  static QuotedMessage decode(util::ByteSpan data) { return {MessageQuote::decode(data)}; }
};

/// "Alice was exporting `route` to Bob at time T."
struct ImportEvidence {
  QuotedMessage announce;          // Alice-signed ANNOUNCE, timestamp t' < T
  core::SignedEnvelope ack;        // Bob's batch carrying the ACK of the announce's batch

  Bytes encode() const;
  static ImportEvidence decode(util::ByteSpan data);
};

/// "Bob was exporting `route` to Alice at time T."
struct ExportEvidence {
  QuotedMessage announce;  // Bob-signed ANNOUNCE, timestamp t' < T

  Bytes encode() const;
  static ExportEvidence decode(util::ByteSpan data);
};

/// A refutation: the matching WITHDRAW with t' < t'' < T (for export
/// evidence it must carry the counterparty's ACK).
struct EvidenceRefutation {
  QuotedMessage withdraw;
  std::optional<core::SignedEnvelope> ack;

  Bytes encode() const;
  static EvidenceRefutation decode(util::ByteSpan data);
};

enum class EvidenceVerdict : std::uint8_t {
  kUpheld,    // evidence valid, no (valid) refutation
  kRefuted,   // refutation valid: the route was withdrawn before T
  kInvalid,   // evidence malformed / signatures wrong / timestamps wrong
};

EvidenceVerdict check_evidence_of_import(const ImportEvidence& evidence, Time at,
                                         const std::optional<EvidenceRefutation>& refutation,
                                         const core::KeyRegistry& keys);

EvidenceVerdict check_evidence_of_export(const ExportEvidence& evidence, Time at,
                                         const std::optional<EvidenceRefutation>& refutation,
                                         const core::KeyRegistry& keys);

}  // namespace spider::proto
