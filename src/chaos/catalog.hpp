// spider_chaos, plane 2: the Byzantine adversary catalog.
//
// Each entry names one way a faulty AS can break its SPIDeR obligations
// (paper §5 fault classes, §6.3 evidence games, §7.4 fault injections),
// the mechanism used to inject it into a deployment — a fault knob on the
// recorder or proof generator, detected by the deployment's own §6.1
// verification session, or (the two §6.3 entries) tampered evidence
// quoted from a recorder's log — and, crucially, the core::FaultKind the
// checker is REQUIRED to emit for it.
// The detection matrix (matrix.hpp) asserts that tag cell by cell, and
// spider_lint rule R8 refuses any catalog entry that does not declare one.
#pragma once

#include <string_view>
#include <vector>

#include "core/vpref.hpp"

namespace spider::chaos {

enum class Misbehavior {
  /// Flip a revealed MTT leaf bit in delivered proofs (§7.4 fault 3).
  kTamperedBitProof,
  /// Cite the wrong class for a producer's route in its bit proof.
  kWrongClassBit,
  /// Send two different commitment roots for the same round (§4.5).
  kEquivocation,
  /// Filter a neighbor's inputs and commit as if they never arrived
  /// (§7.4 fault 1, the "overaggressive filter").
  kOmittedInput,
  /// Export routes the promise to a consumer forbids (§7.4 fault 2).
  kBrokenPromise,
  /// Replay proofs generated for an earlier commitment round.
  kStaleProof,
  /// Refuse to produce producer proofs past the verification deadline.
  kWithheldProof,
  /// Never send the commitment broadcast to a neighbor.
  kWithheldCommitment,
  /// Present evidence whose quoted batch signature does not verify.
  kInvalidSignature,
  /// Fabricate evidence-of-export for a time before the route existed
  /// (§6.3's timestamp game).
  kFabricatedEvidence,
  /// Fail to propagate an upstream withdrawal (§6.6, extended
  /// verification's RE-ANNOUNCE coverage check).
  kUnpropagatedWithdrawal,
};

struct CatalogEntry {
  Misbehavior id;
  /// Stable CLI / report name (kebab-case).
  const char* name;
  /// The Detection fault class the checker must emit for this entry.
  core::FaultKind expected;
  const char* paper_ref;
  const char* summary;
};

/// The full catalog, in enum order.
const std::vector<CatalogEntry>& catalog();

/// Lookup by CLI name; nullptr when unknown.
const CatalogEntry* find_entry(std::string_view name);

}  // namespace spider::chaos
