#include "spider/checker.hpp"

#include <algorithm>

#include "crypto/ct.hpp"
#include "obs/metrics.hpp"

namespace spider::proto {

using core::Detection;
using core::FaultKind;

CheckerExpectation Checker::expectation(const Recorder& checker, bgp::AsNumber elector,
                                        std::optional<bgp::Prefix> within) {
  CheckerExpectation expected;
  for (const auto& [prefix, route] : checker.my_exports_to(elector, within)) {
    expected.window[prefix] = {route};
  }
  expected.imports = checker.my_imports_from(elector, within);
  return expected;
}

std::optional<Detection> Checker::check_producer_proofs(
    const SpiderCommit& commit, bgp::AsNumber elector,
    const std::map<bgp::Prefix, std::vector<bgp::Route>>& my_window_routes,
    const ProducerProofs& proofs, const core::Classifier& classifier,
    const ProofVerifyFn& verify) {
  SPIDER_OBS_COUNT("spider/producer_checks", 1);
  for (const auto& [prefix, window] : my_window_routes) {
    auto item_it = std::find_if(proofs.items.begin(), proofs.items.end(),
                                [&](const ProducerProofs::Item& item) {
                                  return item.prefix == prefix;
                                });
    if (item_it == proofs.items.end()) {
      return Detection{FaultKind::kMissingBitProof, elector,
                       "no proof for my route to " + prefix.str()};
    }
    const ProducerProofs::Item& item = *item_it;

    // Loose sync: the elector may judge against any value I exported in
    // the window — but it must be one of mine.
    bool mine = std::any_of(window.begin(), window.end(), [&](const bgp::Route& r) {
      return same_wire_route(r, item.used_route);
    });
    if (!mine) {
      return Detection{FaultKind::kMalformedMessage, elector,
                       "proof for " + prefix.str() + " cites a route I never sent"};
    }
    if (item.cls != classifier.classify(item.used_route)) {
      return Detection{FaultKind::kMalformedMessage, elector,
                       "proof for " + prefix.str() + " misclassifies my route"};
    }
    if (!verify(commit.root, commit.num_classes, item.proof)) {
      return Detection{FaultKind::kInvalidBitProof, elector,
                       "proof for " + prefix.str() + " does not open the commitment"};
    }
    auto opened = std::find_if(item.proof.revealed.begin(), item.proof.revealed.end(),
                               [&](const core::MttPrefixProof::Opened& o) {
                                 return o.cls == item.cls;
                               });
    if (opened == item.proof.revealed.end()) {
      return Detection{FaultKind::kMissingBitProof, elector,
                       "proof for " + prefix.str() + " does not open my class"};
    }
    if (!opened->bit) {
      return Detection{FaultKind::kOmittedInput, elector,
                       "my route to " + prefix.str() + " was hidden (bit = 0)"};
    }
  }
  return std::nullopt;
}

std::optional<Detection> Checker::check_consumer_proofs(
    const SpiderCommit& commit, bgp::AsNumber elector, const core::Promise& promise,
    const std::map<bgp::Prefix, bgp::Route>& my_imports, const ConsumerProofs& proofs,
    bgp::AsNumber /*self*/, const core::Classifier& classifier, const ProofVerifyFn& verify) {
  SPIDER_OBS_COUNT("spider/consumer_checks", 1);
  for (const auto& [prefix, route] : my_imports) {
    auto item_it = std::find_if(proofs.items.begin(), proofs.items.end(),
                                [&](const ConsumerProofs::Item& item) {
                                  return item.prefix == prefix;
                                });
    if (item_it == proofs.items.end()) {
      return Detection{FaultKind::kMissingBitProof, elector,
                       "no proofs for my route to " + prefix.str()};
    }
    const ConsumerProofs::Item& item = *item_it;
    if (!same_wire_route(item.offered_route, route)) {
      return Detection{FaultKind::kMalformedMessage, elector,
                       "proofs for " + prefix.str() + " cite a route I did not receive"};
    }

    const bgp::Route underlying = underlying_route(route, elector);
    const core::ClassId cls = classifier.classify(underlying);
    std::vector<core::ClassId> due = promise.classes_better_than(cls);

    if (!verify(commit.root, commit.num_classes, item.proof)) {
      return Detection{FaultKind::kInvalidBitProof, elector,
                       "proofs for " + prefix.str() + " do not open the commitment"};
    }
    for (core::ClassId want : due) {
      auto opened = std::find_if(item.proof.revealed.begin(), item.proof.revealed.end(),
                                 [&](const core::MttPrefixProof::Opened& o) {
                                   return o.cls == want;
                                 });
      if (opened == item.proof.revealed.end()) {
        return Detection{FaultKind::kMissingBitProof, elector,
                         "class " + std::to_string(want) + " not opened for " + prefix.str()};
      }
      if (opened->bit) {
        return Detection{FaultKind::kBrokenPromise, elector,
                         "a route better than my offer existed for " + prefix.str() +
                             " (class " + std::to_string(want) + ")"};
      }
    }
  }
  return std::nullopt;
}

std::optional<Detection> Checker::check_re_announcements(
    bgp::AsNumber elector, const std::map<bgp::Prefix, bgp::Route>& my_imports,
    const std::vector<SpiderAnnounce>& re_announcements) {
  SPIDER_OBS_COUNT("spider/re_announce_checks", 1);
  for (const auto& [prefix, route] : my_imports) {
    const bgp::Route underlying = underlying_route(route, elector);
    if (underlying.as_path.empty()) continue;  // elector originates it
    bool covered = std::any_of(re_announcements.begin(), re_announcements.end(),
                               [&](const SpiderAnnounce& announce) {
                                 return announce.re_announce &&
                                        announce.route.prefix == prefix &&
                                        announce.route.as_path == underlying.as_path;
                               });
    if (!covered) {
      return Detection{FaultKind::kBrokenPromise, elector,
                       "route to " + prefix.str() +
                           " no longer exists upstream: withdrawal was not propagated"};
    }
  }
  return std::nullopt;
}

std::optional<Detection> Checker::cross_check_commits(bgp::AsNumber elector,
                                                      const std::vector<SpiderCommit>& commits) {
  SPIDER_OBS_COUNT("spider/commit_cross_checks", 1);
  for (std::size_t i = 0; i < commits.size(); ++i) {
    for (std::size_t j = i + 1; j < commits.size(); ++j) {
      if (commits[i].from_as == elector && commits[j].from_as == elector &&
          commits[i].timestamp == commits[j].timestamp &&
          !crypto::constant_time_equal(commits[i].root, commits[j].root)) {
        return Detection{FaultKind::kInconsistentCommit, elector,
                         "two different roots for the same commitment time"};
      }
    }
  }
  return std::nullopt;
}

}  // namespace spider::proto
