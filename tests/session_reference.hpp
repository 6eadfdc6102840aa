// Test-only sequential reference for a §4.5/§6.1 verification session.
// It runs the session the straight-line way: a fresh
// ProofGenerator::reconstruct, one whole-set proofs_for_producer /
// proofs_for_consumer per (neighbor, role), the checkers over plain
// core::Mtt::verify, the commitment cross-check and the §6.6 RE-ANNOUNCE
// round.  It uses no rounds, pool, proof-path cache, proof memo or bundle
// signatures, so a test that compares verify::run_session against it
// checks the engine against an independent implementation of the same
// protocol.
//
// Generator faults are read from the deployment's own generator, where
// sessions and the chaos matrix stage them; `answer_from` substitutes the
// commitment time as ProofGenerator::reconstruction does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "spider/verification.hpp"

namespace spider::test {

struct ReferenceSession {
  proto::VerificationReport report;
  /// core::Mtt::verify calls the checkers made.
  std::uint64_t proofs_checked = 0;
};

inline ReferenceSession reference_session(proto::Fig5Deployment& deploy, bgp::AsNumber elector,
                                          proto::Time commit_time, bool extended = false,
                                          std::optional<bgp::Prefix> within = std::nullopt) {
  ReferenceSession result;
  proto::VerificationReport& report = result.report;
  report.elector = elector;
  report.commit_time = commit_time;
  const std::vector<bgp::AsNumber> neighbors = deploy.neighbors_of(elector);

  std::vector<proto::SpiderCommit> commits;
  std::map<bgp::AsNumber, proto::SpiderCommit> commit_of;
  for (bgp::AsNumber neighbor : neighbors) {
    const auto& received = deploy.recorder(neighbor).received_commitments();
    auto elector_it = received.find(elector);
    if (elector_it == received.end()) continue;
    auto time_it = elector_it->second.find(commit_time);
    if (time_it == elector_it->second.end()) continue;
    commits.push_back(time_it->second);
    commit_of.emplace(neighbor, time_it->second);
  }
  report.equivocation = proto::Checker::cross_check_commits(elector, commits);

  const proto::Recorder& elector_recorder = deploy.recorder(elector);
  proto::ProofGenerator generator(elector_recorder);
  generator.faults() = deploy.proof_generator(elector).faults();
  const proto::ProofGenerator::Reconstruction recon =
      generator.reconstruct(generator.faults().answer_from.value_or(commit_time));
  report.root_matches = recon.root_matches;

  std::vector<proto::ReAnnounceSet> re_sets;
  if (extended) {
    for (bgp::AsNumber neighbor : neighbors) {
      re_sets.push_back(
          proto::build_re_announce_set(deploy.recorder(neighbor), elector, commit_time, within));
    }
  }

  const proto::ProofVerifyFn verify = [&result](const util::Digest20& root,
                                                std::uint32_t num_classes,
                                                const core::MttPrefixProof& proof) {
    ++result.proofs_checked;
    return core::Mtt::verify(root, num_classes, proof);
  };
  for (bgp::AsNumber neighbor : neighbors) {
    proto::NeighborVerdict verdict;
    verdict.neighbor = neighbor;
    auto commit_it = commit_of.find(neighbor);
    if (commit_it == commit_of.end()) {
      verdict.as_consumer = core::Detection{core::FaultKind::kMissingMessage, elector,
                                            "no commitment received for this round"};
      report.verdicts.push_back(std::move(verdict));
      continue;
    }
    const proto::Recorder& checker = deploy.recorder(neighbor);
    const proto::CheckerExpectation expected =
        proto::Checker::expectation(checker, elector, within);
    verdict.as_producer = proto::Checker::check_producer_proofs(
        commit_it->second, elector, expected.window,
        generator.proofs_for_producer(recon, neighbor, within), checker.classifier(), verify);
    auto promise_it = elector_recorder.promises().find(neighbor);
    if (promise_it != elector_recorder.promises().end()) {
      verdict.as_consumer = proto::Checker::check_consumer_proofs(
          commit_it->second, elector, promise_it->second, expected.imports,
          generator.proofs_for_consumer(recon, neighbor, within), neighbor, checker.classifier(),
          verify);
    }
    if (extended) {
      verdict.extended = proto::Checker::check_re_announcements(
          elector, expected.imports,
          generator.select_re_announcements(recon, neighbor, re_sets, within));
    }
    report.verdicts.push_back(std::move(verdict));
  }
  return result;
}

}  // namespace spider::test
