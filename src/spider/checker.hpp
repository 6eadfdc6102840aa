// The SPIDeR checker (paper §6.1): runs at each neighbor of the AS under
// verification and validates the bit proofs delivered by that AS's proof
// generator against the commitment the neighbor holds.
//
//   * As a producer, the neighbor checks that every route it was exporting
//     to the elector (within the loose-sync window) is proven present
//     (bit = 1) in its class.
//   * As a consumer, it checks that every class its promise ranks above
//     the class of each route it was offered is proven absent (bit = 0).
//
// All failures surface as core::Detection values, with the same fault
// taxonomy as single-prefix VPref.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/vpref.hpp"
#include "spider/proof_generator.hpp"

namespace spider::proto {

/// Pluggable bit-proof verifier: (root, num_classes, proof) -> opens?
/// Session engines (src/verify) substitute a memoizing verifier here; the
/// default is core::Mtt::verify.
using ProofVerifyFn =
    std::function<bool(const Digest20&, std::uint32_t, const core::MttPrefixProof&)>;

/// What a checker expects the elector's proof generator to prove to it,
/// taken from the checker's own recorder: as a producer, every route it
/// exports to the elector (the loose-sync window of each prefix); as a
/// consumer, every route it imports from the elector.
struct CheckerExpectation {
  std::map<bgp::Prefix, std::vector<bgp::Route>> window;
  std::map<bgp::Prefix, bgp::Route> imports;
};

class Checker {
 public:
  /// The one builder of a checker's expectation, shared by in-process
  /// sessions (verify::run_session) and node hosts.  `within` keeps one
  /// prefix subtree (§7.3); nullopt = everything.  Today each window holds
  /// the checker's current export only.
  static CheckerExpectation expectation(const Recorder& checker, bgp::AsNumber elector,
                                        std::optional<bgp::Prefix> within = std::nullopt);

  /// `my_window_routes` maps each prefix this neighbor was exporting to
  /// the elector to the set of values that were in force at some point in
  /// [T-δ, T]  (the neighbor knows its own history; for stable routes this
  /// is a single value).
  static std::optional<core::Detection> check_producer_proofs(
      const SpiderCommit& commit, bgp::AsNumber elector,
      const std::map<bgp::Prefix, std::vector<bgp::Route>>& my_window_routes,
      const ProducerProofs& proofs, const core::Classifier& classifier,
      const ProofVerifyFn& verify = core::Mtt::verify);

  /// `my_imports` maps each prefix to the route this neighbor currently
  /// holds from the elector (its own Adj-RIB-In mirror).
  static std::optional<core::Detection> check_consumer_proofs(
      const SpiderCommit& commit, bgp::AsNumber elector, const core::Promise& promise,
      const std::map<bgp::Prefix, bgp::Route>& my_imports, const ConsumerProofs& proofs,
      bgp::AsNumber self, const core::Classifier& classifier,
      const ProofVerifyFn& verify = core::Mtt::verify);

  /// Extended verification, consumer side (§6.6): every route this
  /// consumer holds from the elector must be covered by a RE-ANNOUNCE from
  /// the original producer; a missing one means the producer withdrew the
  /// route and the elector failed to propagate the withdrawal.
  static std::optional<core::Detection> check_re_announcements(
      bgp::AsNumber elector, const std::map<bgp::Prefix, bgp::Route>& my_imports,
      const std::vector<SpiderAnnounce>& re_announcements);

  /// Cross-check of commitments gossiped between neighbors: any two
  /// distinct roots for the same (elector, timestamp) prove equivocation.
  static std::optional<core::Detection> cross_check_commits(
      bgp::AsNumber elector, const std::vector<SpiderCommit>& commits);
};

}  // namespace spider::proto
