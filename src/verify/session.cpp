#include "verify/session.hpp"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/commitment.hpp"
#include "crypto/ct.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/serde.hpp"
#include "util/thread_pool.hpp"
#include "util/timers.hpp"

namespace spider::verify {

using util::Bytes;
using util::ByteSpan;

namespace {

/// Rounds per signature flush; at most kWindow * jobs rounds in flight.
constexpr std::size_t kWindow = 4;
/// Prefixes per challenge round.
constexpr std::size_t kRoundPrefixes = 256;

}  // namespace

SessionConfig pipelined_config(unsigned jobs) {
  SessionConfig config;
  config.jobs = jobs != 0 ? jobs : std::max(1u, std::thread::hardware_concurrency());
  return config;
}

// ----------------------------------------------------- CachedProofVerifier

ProofPathCache& CachedProofVerifier::cache_for(const Digest20& root) {
  auto it = caches_.find(root);
  if (it == caches_.end()) it = caches_.emplace(root, ProofPathCache(cache_capacity_)).first;
  return it->second;
}

bool CachedProofVerifier::verify(const Digest20& root, std::uint32_t num_classes,
                                 const core::MttPrefixProof& proof) {
  ++proofs_checked_;
  SPIDER_OBS_COUNT("core/mtt_proofs_verified", 1);
  if (proof.bit_labels.size() != num_classes) return false;
  if (proof.siblings.size() != static_cast<std::size_t>(proof.prefix.length()) + 1) return false;

  // The claim under test is always recomputed: revealed openings first...
  for (const auto& opened : proof.revealed) {
    if (opened.cls >= num_classes) return false;
    ++digest_ops_;
    if (core::bit_leaf_hash(opened.bit, opened.x) != proof.bit_labels[opened.cls]) return false;
  }
  // ...then the prefix-node label over all bit-node labels.
  ++digest_ops_;
  Digest20 current = core::mtt_prefix_label(proof.bit_labels.data(), proof.bit_labels.size());

  ProofPathCache& cache = cache_for(root);

  // Fold upward, consulting the cache before each level: a hit means the
  // label at this position is known to fold to `root` through interior
  // nodes verified earlier in the session, so the remaining levels are
  // redundant.  The pairs computed below the hit chain into it and are
  // themselves safe to insert.
  std::vector<std::pair<std::uint64_t, Digest20>> trail;
  trail.reserve(proof.siblings.size());
  std::optional<std::size_t> hit_level;
  for (std::size_t level = proof.siblings.size(); level-- > 0;) {
    const std::uint64_t position = core::mtt_path_position(proof.prefix, level + 1);
    if (cache.has_path(position, current)) {
      hit_level = level;
      break;
    }
    trail.emplace_back(position, current);
    current = core::mtt_fold_level(proof.prefix, level, current, proof.siblings[level]);
    ++digest_ops_;
  }

  bool ok;
  if (hit_level) {
    ok = true;
    ++cache_hits_;
    const std::uint64_t skipped = static_cast<std::uint64_t>(*hit_level) + 1;
    digest_ops_saved_ += skipped;
    // The two sibling labels per skipped level did not need re-verifying
    // (and would not have needed shipping to a stateful checker).
    bytes_deduped_ += skipped * 2 * sizeof(Digest20);
  } else {
    ok = crypto::constant_time_equal(current, root);
    ++cache_misses_;
  }
  if (ok) {
    ++proofs_accepted_;
    for (const auto& [position, label] : trail) cache.insert_path(position, label);
  }
  return ok;
}

void CachedProofVerifier::drain_into(SessionStats& stats) const {
  stats.digest_ops += digest_ops_;
  stats.digest_ops_saved += digest_ops_saved_;
  stats.proofs_checked += proofs_checked_;
  stats.proofs_accepted += proofs_accepted_;
  stats.cache_hits += cache_hits_;
  stats.cache_misses += cache_misses_;
  stats.bytes_deduped += bytes_deduped_;
  for (const auto& [root, cache] : caches_) {
    stats.cache_insertions += cache.stats().insertions;
    stats.cache_evictions += cache.stats().evictions;
  }
}

// --------------------------------------------------------------- sessions

namespace {

enum class Role : std::uint8_t { kProducer = 0, kConsumer = 1 };

/// One challenge/response round: the elector proves one chunk of one
/// neighbor's prefix set in one role, and signs the bundle.
struct RoundTask {
  std::size_t plan_index = 0;
  bgp::AsNumber neighbor = 0;
  Role role = Role::kProducer;
  std::size_t chunk_index = 0;
  /// The checker prefixes this round covers.
  std::set<bgp::Prefix> subset;

  // Filled by the worker.
  proto::ProducerProofs producer;
  proto::ConsumerProofs consumer;
  Bytes payload;    // encoded proofs (the shipped bytes)
  Bytes bundle;     // signed message: context header + payload
  Bytes signature;  // elector's signature over `bundle`
  std::exception_ptr error;
  bool done = false;  // guarded by the session mutex

  // Filled by the consumer.
  bool signature_ok = false;
};

/// Per-neighbor session state: the checker's own view plus verdict slots.
struct NeighborPlan {
  bgp::AsNumber neighbor = 0;
  bool have_commit = false;
  proto::SpiderCommit commit;
  std::map<bgp::Prefix, std::vector<bgp::Route>> window;
  std::map<bgp::Prefix, bgp::Route> imports;
  const core::Promise* promise = nullptr;
  std::optional<core::Detection> producer_detection;
  std::optional<core::Detection> consumer_detection;
};

/// Splits the sorted keys of `map` into consecutive chunks of
/// kRoundPrefixes (sorted order is what makes per-round detections
/// concatenate to the first detection over the whole set).
template <typename Map>
std::vector<std::set<bgp::Prefix>> chunk_keys(const Map& map) {
  std::vector<std::set<bgp::Prefix>> chunks;
  std::set<bgp::Prefix> current;
  for (const auto& [prefix, value] : map) {
    current.insert(prefix);
    if (current.size() == kRoundPrefixes) {
      chunks.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) chunks.push_back(std::move(current));
  return chunks;
}

Bytes round_bundle_bytes(bgp::AsNumber elector, proto::Time commit_time, const RoundTask& task) {
  util::ByteWriter w;
  w.u32(elector);
  w.i64(commit_time);
  w.u32(task.neighbor);
  w.u8(static_cast<std::uint8_t>(task.role));
  w.u32(static_cast<std::uint32_t>(task.chunk_index));
  w.bytes(task.payload);
  return w.take();
}

template <typename Map>
Map restrict_to(const Map& map, const std::set<bgp::Prefix>& subset) {
  Map out;
  for (const auto& prefix : subset) {
    auto it = map.find(prefix);
    if (it != map.end()) out.insert(*it);
  }
  return out;
}

}  // namespace

SessionResult run_session(proto::Fig5Deployment& deploy, bgp::AsNumber elector,
                          proto::Time commit_time, const SessionConfig& config, bool extended,
                          std::optional<bgp::Prefix> within) {
  SPIDER_OBS_SPAN(verification_span, "spider/verification");
  SPIDER_OBS_COUNT("spider/verifications", 1);
  util::WallTimer total_timer;
  SessionResult result;
  proto::VerificationReport& report = result.report;
  SessionStats& stats = result.stats;
  report.elector = elector;
  report.commit_time = commit_time;

  const std::vector<bgp::AsNumber> neighbors = deploy.neighbors_of(elector);

  // --- Phase 1: commitment cross-check among the neighbors (§4.5 step 1).
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

  // --- Phase 2: the elector reconstructs (checkpoint + replay + seed),
  // or reuses the rebuild an earlier session on this commitment paid for.
  proto::ProofGenerator& generator = deploy.proof_generator(elector);
  bool cache_hit = false;
  const std::shared_ptr<const proto::ProofGenerator::Reconstruction> recon_ptr =
      generator.reconstruction(commit_time, deploy.recorder(elector).config().commit_threads,
                               &cache_hit);
  const proto::ProofGenerator::Reconstruction& recon = *recon_ptr;
  report.root_matches = recon.root_matches;
  if (cache_hit) {
    ++stats.reconstruct_cache_hits;
  } else {
    stats.reconstruct_seconds = recon.reconstruct_seconds;
  }

  // Extended verification inputs are gathered up front: the elector must
  // request RE-ANNOUNCE sets from every producer regardless of which
  // routes it chose (§6.6 privacy requirement).
  std::vector<proto::ReAnnounceSet> re_sets;
  if (extended) {
    for (bgp::AsNumber neighbor : neighbors) {
      // Each set costs the elector one challenge round-trip to a producer.
      SPIDER_OBS_COUNT("spider/challenge_round_trips", 1);
      ++stats.challenge_round_trips;
      re_sets.push_back(proto::build_re_announce_set(deploy.recorder(neighbor), elector,
                                                     commit_time, within));
    }
  }

  util::WallTimer session_timer;

  // --- Phase 3a: the round schedule, in neighbor order then chunk order.
  std::vector<NeighborPlan> plans;
  plans.reserve(neighbors.size());
  std::vector<RoundTask> tasks;
  for (bgp::AsNumber neighbor : neighbors) {
    NeighborPlan plan;
    plan.neighbor = neighbor;
    auto commit_it = commit_of.find(neighbor);
    plan.have_commit = commit_it != commit_of.end();
    if (!plan.have_commit) {
      plans.push_back(std::move(plan));
      continue;
    }
    plan.commit = commit_it->second;
    proto::CheckerExpectation expected =
        proto::Checker::expectation(deploy.recorder(neighbor), elector, within);
    plan.window = std::move(expected.window);
    plan.imports = std::move(expected.imports);
    const auto& promises = deploy.recorder(elector).promises();
    auto promise_it = promises.find(neighbor);
    if (promise_it != promises.end()) plan.promise = &promise_it->second;

    const std::size_t plan_index = plans.size();
    auto schedule_role = [&](Role role, auto& prefix_map) {
      auto chunks = chunk_keys(prefix_map);
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        RoundTask task;
        task.plan_index = plan_index;
        task.neighbor = neighbor;
        task.role = role;
        task.chunk_index = c;
        task.subset = std::move(chunks[c]);
        tasks.push_back(std::move(task));
      }
    };
    schedule_role(Role::kProducer, plan.window);
    schedule_role(Role::kConsumer, plan.imports);
    plans.push_back(std::move(plan));
  }

  // --- Phase 3b: the pipeline.  Workers generate and sign round bundles;
  // the main thread consumes them in order, batch-checks signatures per
  // flush window, and runs the checkers through the memoizing verifier.
  const crypto::Signer& signer = deploy.recorder(elector).signer();
  // Generator-side twin of the proof-path cache: the session proves each
  // prefix once per neighbor role, so memoizing the class-independent
  // material (PRF randomness, bit labels, sibling path) across rounds
  // collapses the repeat digest work.  The mutex inside makes sharing it
  // across pool workers safe.
  core::MttProofMemo memo;
  auto run_round = [&](RoundTask& task) {
    if (task.role == Role::kProducer) {
      task.producer =
          generator.proofs_for_producer(recon, task.neighbor, within, &task.subset, &memo);
      task.payload = task.producer.encode();
    } else {
      task.consumer =
          generator.proofs_for_consumer(recon, task.neighbor, within, &task.subset, &memo);
      task.payload = task.consumer.encode();
    }
    task.bundle = round_bundle_bytes(elector, commit_time, task);
    task.signature = signer.sign(ByteSpan{task.bundle.data(), task.bundle.size()});
  };

  CachedProofVerifier verifier(CachedProofVerifier::kCacheCapacity);
  const proto::ProofVerifyFn verify_fn = [&verifier](const Digest20& root,
                                                     std::uint32_t num_classes,
                                                     const core::MttPrefixProof& proof) {
    return verifier.verify(root, num_classes, proof);
  };

  // Same-key RSA signature checks batch; the keyed-hash test scheme
  // verifies per bundle.
  std::optional<crypto::RsaPublicKey> batch_key;
  if (deploy.config().scheme == proto::DeploymentConfig::SignScheme::kRsa) {
    const Bytes encoded = signer.public_key();
    batch_key = crypto::RsaPublicKey::decode(ByteSpan{encoded.data(), encoded.size()});
  }

  std::vector<RoundTask*> pending;  // consumed, awaiting a signature flush
  auto flush_signatures = [&]() {
    if (pending.empty()) return;
    if (batch_key) {
      std::vector<crypto::RsaVerifyItem> items;
      items.reserve(pending.size());
      for (RoundTask* task : pending) {
        items.push_back({ByteSpan{task->bundle.data(), task->bundle.size()},
                         ByteSpan{task->signature.data(), task->signature.size()}});
      }
      const std::vector<bool> ok = crypto::rsa_verify_batch(*batch_key, items);
      for (std::size_t i = 0; i < pending.size(); ++i) pending[i]->signature_ok = ok[i];
      ++stats.signature_batches;
    } else {
      for (RoundTask* task : pending) {
        task->signature_ok =
            deploy.keys().verify(elector, ByteSpan{task->bundle.data(), task->bundle.size()},
                                 ByteSpan{task->signature.data(), task->signature.size()});
      }
    }
    stats.signatures_verified += pending.size();

    // Run the checkers for the flushed rounds, in round order.
    for (RoundTask* task : pending) {
      NeighborPlan& plan = plans[task->plan_index];
      const auto& rec = deploy.recorder(plan.neighbor);
      if (!task->signature_ok) {
        ++stats.bad_signatures;
        auto& slot =
            task->role == Role::kProducer ? plan.producer_detection : plan.consumer_detection;
        if (!slot) {
          slot = core::Detection{core::FaultKind::kBadSignature, elector,
                                 "proof bundle signature failed"};
        }
        continue;
      }
      if (task->role == Role::kProducer) {
        auto window = restrict_to(plan.window, task->subset);
        auto detection = proto::Checker::check_producer_proofs(
            plan.commit, elector, window, task->producer, rec.classifier(), verify_fn);
        if (detection && !plan.producer_detection) plan.producer_detection = detection;
      } else if (plan.promise != nullptr) {
        auto imports = restrict_to(plan.imports, task->subset);
        auto detection = proto::Checker::check_consumer_proofs(plan.commit, elector,
                                                               *plan.promise, imports,
                                                               task->consumer, plan.neighbor,
                                                               rec.classifier(), verify_fn);
        if (detection && !plan.consumer_detection) plan.consumer_detection = detection;
      }
    }
    pending.clear();
  };

  const unsigned jobs = std::max(1u, config.jobs);
  const std::size_t inflight_cap = jobs * kWindow;
  std::exception_ptr first_error;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  std::size_t next_submit = 0;
  util::ThreadPool pool(jobs);
  auto submit_ready = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    while (next_submit < tasks.size() && inflight < inflight_cap) {
      RoundTask* task = &tasks[next_submit];
      ++inflight;
      ++next_submit;
      lock.unlock();
      pool.submit([&, task] {
        try {
          run_round(*task);
        } catch (...) {
          task->error = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> guard(mu);
          task->done = true;
          --inflight;
        }
        cv.notify_all();
      });
      lock.lock();
    }
  };

  for (RoundTask& task : tasks) {
    submit_ready();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return task.done; });
    }
    submit_ready();  // the finished round freed a window slot
    if (task.error != nullptr) {
      if (first_error == nullptr) first_error = task.error;
      continue;
    }
    if (first_error != nullptr) continue;  // drain without checking
    stats.bytes_shipped += task.payload.size();
    ++stats.challenge_round_trips;
    pending.push_back(&task);
    if (pending.size() >= kWindow) flush_signatures();
  }
  flush_signatures();
  if (first_error != nullptr) std::rethrow_exception(first_error);

  // --- Phase 3c: verdict merge, in neighbor order (extended verification
  // runs here, on the checker's full import view).
  for (NeighborPlan& plan : plans) {
    proto::NeighborVerdict verdict;
    verdict.neighbor = plan.neighbor;
    if (!plan.have_commit) {
      verdict.as_consumer = core::Detection{core::FaultKind::kMissingMessage, elector,
                                            "no commitment received for this round"};
      report.verdicts.push_back(std::move(verdict));
      continue;
    }
    verdict.as_producer = plan.producer_detection;
    verdict.as_consumer = plan.consumer_detection;
    if (extended) {
      auto selected = generator.select_re_announcements(recon, plan.neighbor, re_sets, within);
      verdict.extended =
          proto::Checker::check_re_announcements(elector, plan.imports, selected);
    }
    report.verdicts.push_back(std::move(verdict));
  }

  verifier.drain_into(stats);
  stats.session_seconds = session_timer.seconds();
  stats.total_seconds = total_timer.seconds();
  report.proof_bytes = stats.bytes_shipped;
  report.proof_bytes_deduped = stats.bytes_deduped;
  report.elapsed_seconds = stats.total_seconds;

  SPIDER_OBS_COUNT("verify/rounds", tasks.size());
  SPIDER_OBS_COUNT("verify/digest_ops", stats.digest_ops);
  SPIDER_OBS_COUNT("verify/cache_hits", stats.cache_hits);
  SPIDER_OBS_COUNT("verify/cache_misses", stats.cache_misses);
  SPIDER_OBS_COUNT("verify/bytes_deduped", stats.bytes_deduped);
  SPIDER_OBS_COUNT("verify/signature_batches", stats.signature_batches);
#if !defined(SPIDER_OBS_DISABLED)
  SPIDER_OBS_COUNT("spider/proof_bytes", report.proof_bytes);
  for (const auto& verdict : report.verdicts) {
    std::size_t hits = (verdict.as_producer ? 1 : 0) + (verdict.as_consumer ? 1 : 0) +
                       (verdict.extended ? 1 : 0);
    SPIDER_OBS_COUNT("spider/detections", hits);
  }
  if (report.equivocation) SPIDER_OBS_COUNT("spider/detections", 1);
#endif
  return result;
}

}  // namespace spider::verify
