// The verification-session engine.
//
// A SPIDeR verification session (§4.5 / §6.1) is a sequence of
// challenge/response rounds between the elector's proof generator and its
// neighbors' checkers.  Every session runs the same shape:
//
//   * rounds — each (neighbor, role) prefix set is split into chunks of
//     256 prefixes in sorted prefix order, so per-round first detections
//     merge to exactly the first detection over the whole set;
//   * a pipeline — proof generation and bundle signing run on a
//     `jobs`-thread pool with at most 4 × `jobs` rounds in flight, while
//     the calling thread consumes finished rounds in order and runs the
//     checkers, so proving round k+1 overlaps checking round k;
//   * a ProofPathCache — interior proof subpaths are verified once per
//     (root, position, label); repeat prefixes across neighbors and roles
//     short-circuit at the first cached level (often the prefix node
//     itself, skipping the entire fold), and the generator-side
//     MttProofMemo collapses the matching repeat proving work;
//   * batched signatures — under the RSA scheme, every 4 consumed round
//     bundles are signature-checked through crypto::rsa_verify_batch,
//     amortizing the Montgomery context setup across a batch; results
//     stay per bundle, so one bad signature taints exactly its own round.
//     The keyed-hash scheme verifies per bundle.
//
// Only the worker count is settable.  tests/session_reference.hpp holds
// the sequential oracle (one whole-set proof set per role, plain
// Mtt::verify) that the differential tests compare sessions against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "spider/verification.hpp"
#include "verify/proof_path_cache.hpp"

namespace spider::verify {

struct SessionConfig {
  /// Worker threads generating and signing round bundles.  1 = serial.
  unsigned jobs = 1;
};

/// A session on `jobs` worker threads (0 = hardware concurrency).
SessionConfig pipelined_config(unsigned jobs = 0);

struct SessionStats {
  // Checker-side digest work.
  std::uint64_t digest_ops = 0;        // leaf hashes + prefix labels + folds run
  std::uint64_t digest_ops_saved = 0;  // folds skipped via cache hits
  std::uint64_t proofs_checked = 0;
  std::uint64_t proofs_accepted = 0;
  // Subpath cache, proof granularity (one hit/miss per proof).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  // Bytes: shipped = proof bundles as encoded on the wire; deduped = the
  // sibling bytes whose re-verification a cache hit made redundant.
  std::uint64_t bytes_shipped = 0;
  std::uint64_t bytes_deduped = 0;
  // Session shape.
  std::uint64_t challenge_round_trips = 0;  // proof rounds + RE-ANNOUNCE requests
  std::uint64_t signatures_verified = 0;
  std::uint64_t signature_batches = 0;  // rsa_verify_batch flushes
  std::uint64_t bad_signatures = 0;
  // Reconstruction served from the proof generator's cache (0 or 1).
  std::uint64_t reconstruct_cache_hits = 0;
  // Wall clock: session = the challenge/response part; reconstruction is
  // the elector's replay prep, 0 when the cache served it.
  double session_seconds = 0;
  double reconstruct_seconds = 0;
  double total_seconds = 0;
};

struct SessionResult {
  proto::VerificationReport report;
  SessionStats stats;
};

/// Runs a verification session for `elector`'s commitment at
/// `commit_time`.  Verdicts, evidence and detections do not depend on
/// `config.jobs`.  `extended` runs the §6.6 RE-ANNOUNCE protocol;
/// `within` restricts to a prefix subtree (§7.3).
SessionResult run_session(proto::Fig5Deployment& deploy, bgp::AsNumber elector,
                          proto::Time commit_time, const SessionConfig& config,
                          bool extended = false,
                          std::optional<bgp::Prefix> within = std::nullopt);

/// The memoizing bit-proof verifier the engine plugs into Checker.
/// Accept/reject agrees with core::Mtt::verify on every proof whose
/// subpaths were honestly cached (the cache only ever holds pairs from
/// fully verified proofs).  NodeHost's checker role uses it too.
class CachedProofVerifier {
 public:
  /// Cached (position, label) pairs kept per distinct root.
  static constexpr std::size_t kCacheCapacity = 1 << 16;

  explicit CachedProofVerifier(std::size_t cache_capacity) : cache_capacity_(cache_capacity) {}

  /// Drop-in for core::Mtt::verify.  Always recomputes the revealed leaf
  /// openings and the prefix label (they are the claim under test); only
  /// the interior fold chain consults the cache.
  bool verify(const Digest20& root, std::uint32_t num_classes,
              const core::MttPrefixProof& proof);

  /// Folds per-root cache stats into `stats` and returns the counters
  /// accumulated by verify() calls.
  void drain_into(SessionStats& stats) const;

 private:
  ProofPathCache& cache_for(const Digest20& root);

  std::size_t cache_capacity_;
  std::map<Digest20, ProofPathCache> caches_;  // one per distinct root
  std::uint64_t digest_ops_ = 0;
  std::uint64_t digest_ops_saved_ = 0;
  std::uint64_t proofs_checked_ = 0;
  std::uint64_t proofs_accepted_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t bytes_deduped_ = 0;
};

}  // namespace spider::verify
