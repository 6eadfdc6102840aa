// Verification sessions: the §4.5 / §6.1 VERIFY flow orchestrated across
// an AS's neighborhood.
//
// Any neighbor triggers verification for a commitment time T.  The session
// then:
//   1. collects the commitment each neighbor holds from the elector and
//      cross-checks them (INVALIDCOMMIT on any mismatch — self-contained
//      proof of equivocation);
//   2. has the elector's proof generator reconstruct the MTT
//      (checkpoint + replay + seed) and produce per-neighbor proofs;
//   3. runs every neighbor's checker in both roles (producer & consumer);
//   4. optionally runs extended verification (§6.6): producers re-announce
//      their exports at T, the elector redistributes the selected ones,
//      and consumers check coverage (unpropagated withdrawals surface
//      here);
//   5. returns a verdict per neighbor plus any transferable evidence.
//
// This header holds the session's report; verify::run_session
// (src/verify/session.hpp, library spider_verify) runs the session.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "spider/checker.hpp"
#include "spider/deployment.hpp"
#include "spider/proof_generator.hpp"

namespace spider::proto {

struct NeighborVerdict {
  bgp::AsNumber neighbor = 0;
  std::optional<core::Detection> as_producer;
  std::optional<core::Detection> as_consumer;
  std::optional<core::Detection> extended;  // withdrawal-propagation check
  bool clean() const { return !as_producer && !as_consumer && !extended; }
};

struct VerificationReport {
  bgp::AsNumber elector = 0;
  Time commit_time = 0;
  /// Commitment equivocation found during the cross-check phase.
  std::optional<core::Detection> equivocation;
  /// True when the elector's replayed root matched its logged commitment.
  bool root_matches = false;
  std::vector<NeighborVerdict> verdicts;
  /// Proof bytes actually shipped during this session (wire encodings of
  /// the proof bundles).
  std::size_t proof_bytes = 0;
  /// Proof bytes whose re-verification the session's subpath cache made
  /// redundant (src/verify): sibling material on interior fold levels
  /// skipped by a cache hit.  Accounted separately so the shipped total
  /// no longer hides the dedup savings.
  std::size_t proof_bytes_deduped = 0;
  double elapsed_seconds = 0;

  bool clean() const;
  /// Human-readable one-line summary per finding.
  std::vector<std::string> findings() const;
};

}  // namespace spider::proto
