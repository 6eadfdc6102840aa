// The SPIDeR proof generator (paper §6.1, §6.4, §6.5, §6.6).
//
// When verification is triggered for a commitment at time T, the proof
// generator loads the most recent checkpoint before T, replays the logged
// message trace up to T, regenerates the MTT (randomness comes from the
// stored 32-byte seed), and produces per-neighbor bit proofs:
//   * producers get, for each route they were advertising at T, a proof
//     that the bit of that route's class is 1;
//   * consumers get, for each route they were offered at T, proofs that
//     every class their promise ranks above the offer's class is 0.
// Loose synchronization (§6.4) lets the elector justify its output with any
// input valid in [T-δ, T]; the generator picks, per producer, the first
// in-window input that would not have been preferred over the output.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/mtt.hpp"
#include "spider/recorder.hpp"

namespace spider::proto {

/// Proofs delivered to one producer neighbor.
struct ProducerProofs {
  Time commit_time = 0;
  struct Item {
    bgp::Prefix prefix;
    /// The input the elector chose to be judged against (loose sync may
    /// pick any value from [T-δ, T]; "Alice informs Bob of her choice").
    bgp::Route used_route;
    core::ClassId cls = 0;
    core::MttPrefixProof proof;
  };
  std::vector<Item> items;

  std::size_t total_bytes() const;

  /// Wire encoding: proof sets are shipped to neighbors during
  /// verification, so they serialize like every other protocol object.
  Bytes encode() const;
  static ProducerProofs decode(ByteSpan data);
};

/// Proofs delivered to one consumer neighbor.
struct ConsumerProofs {
  Time commit_time = 0;
  struct Item {
    bgp::Prefix prefix;
    /// The route that was exported to this consumer at T.
    bgp::Route offered_route;
    /// Batched proof opening every class better than the offer's class.
    core::MttPrefixProof proof;
  };
  std::vector<Item> items;

  std::size_t total_bytes() const;

  Bytes encode() const;
  static ConsumerProofs decode(ByteSpan data);
};

/// A producer's contribution to extended verification (§6.6): it must
/// re-announce every route it was exporting to the elector at T.
struct ReAnnounceSet {
  bgp::AsNumber from_as = 0;
  Time commit_time = 0;
  std::vector<SpiderAnnounce> announcements;  // re_announce = true
};

class ProofGenerator {
 public:
  struct Faults {
    /// Flip the revealed bit in proofs for these classes ("tampered bit
    /// proof", §7.4): the proof then fails to open the commitment.
    std::set<core::ClassId> tamper_classes;
    /// "Wrong-class bit": producer proofs cite the class after the true
    /// one, so the cited class disagrees with the cited route.
    bool misclassify_producer = false;
    /// "Withheld proof": the generator refuses to produce producer items
    /// at all (the checker treats a proof absent past the verification
    /// deadline as withheld).
    bool withhold_producer_proofs = false;
    /// "Stale proof": reconstruction() answers for every commitment with
    /// the tree of this earlier one.  The time is substituted before the
    /// cache key is derived, so a session on round t2 proves round t's
    /// tree, whose proofs no longer open t2's freshly seeded root (§6.5).
    std::optional<Time> answer_from;
    /// "Unpropagated withdrawal": select_re_announcements() drops these
    /// prefixes, so consumers never see the producer's RE-ANNOUNCE and a
    /// route they still hold goes uncovered (§6.6).
    std::set<bgp::Prefix> hide_re_announce;
  };

  explicit ProofGenerator(const Recorder& recorder) : recorder_(recorder) {}

  struct Reconstruction {
    Time commit_time = 0;
    MirrorState state;
    core::Mtt tree;
    crypto::Seed seed;
    /// True when the regenerated root equals the logged commitment root —
    /// the §6.5 replay-determinism property.
    bool root_matches = false;
    /// Candidate input values per (producer, prefix) inside [T-δ, T].
    std::map<std::pair<bgp::AsNumber, bgp::Prefix>, std::vector<std::optional<bgp::Route>>>
        window_candidates;
    double reconstruct_seconds = 0;
  };

  /// Rebuilds the state and MTT for the commitment at time T.  Throws
  /// std::invalid_argument when no commitment/checkpoint covers T.
  Reconstruction reconstruct(Time commit_time, unsigned threads = 1) const;

  /// reconstruct() through a bounded cache: every neighbor of the elector
  /// verifies the same commitment (§6.1), so one rebuild serves them all.
  /// Each call re-derives the cache key from the recorder's log — commit
  /// time, logged root, base checkpoint, last replayed entry, the log's
  /// generation (see MessageLog::generation), ignore_inputs and the
  /// promises version — and rebuilds on any difference, so pruning,
  /// restore_from or a changed fault knob never serves a stale tree.
  /// Throws exactly as reconstruct() does.  `cache_hit` (optional)
  /// reports whether the result was served without rebuilding.  Unlike
  /// the const proof methods it mutates the cache: one caller at a time.
  /// Faults::answer_from, when set, replaces `commit_time` first.
  std::shared_ptr<const Reconstruction> reconstruction(Time commit_time, unsigned threads = 1,
                                                       bool* cache_hit = nullptr);

  /// Reconstructions kept: the §6.5 two-round retention.
  static constexpr std::size_t kReconCacheCapacity = 2;

  /// `within` restricts the proofs to prefixes inside one covering prefix
  /// — the §7.3 suggestion for keeping proof sizes down ("its neighbors
  /// could trigger verification for smaller subtrees, e.g., all prefixes
  /// in 32.0.0/8").  nullopt = everything.
  ///
  /// `subset` (optional) emits proofs only for those prefixes — one
  /// challenge round's worth in a pipelined session; the union of the
  /// proofs over a partition of the prefix space equals the unrestricted
  /// proof set item-for-item.  `memo` (optional) caches the
  /// class-independent proof material across calls against the same
  /// reconstruction — a session proves each prefix once per neighbor role,
  /// so the memo collapses the repeat PRF/digest work.
  ProducerProofs proofs_for_producer(const Reconstruction& recon, bgp::AsNumber producer,
                                     std::optional<bgp::Prefix> within = std::nullopt,
                                     const std::set<bgp::Prefix>* subset = nullptr,
                                     core::MttProofMemo* memo = nullptr) const;
  ConsumerProofs proofs_for_consumer(const Reconstruction& recon, bgp::AsNumber consumer,
                                     std::optional<bgp::Prefix> within = std::nullopt,
                                     const std::set<bgp::Prefix>* subset = nullptr,
                                     core::MttProofMemo* memo = nullptr) const;

  /// Elector side of extended verification: from the producers'
  /// RE-ANNOUNCE sets, select those matching the routes that were exported
  /// to `consumer` at T.  The elector must collect *all* sets first —
  /// asking only for chosen routes would reveal its choices (§6.6).
  /// `within` limits the walk to one prefix subtree (§7.3).
  std::vector<SpiderAnnounce> select_re_announcements(
      const Reconstruction& recon, bgp::AsNumber consumer,
      const std::vector<ReAnnounceSet>& sets,
      std::optional<bgp::Prefix> within = std::nullopt) const;

  Faults& faults() { return faults_; }

 private:
  /// Every input reconstruct() reads that can change under a fixed
  /// recorder (its config and classifier are fixed at construction).
  struct ReconKey {
    Time commit_time = 0;
    Digest20 root{};
    std::uint64_t log_generation = 0;
    Time checkpoint_time = 0;
    std::optional<std::uint64_t> last_seq;  // nullopt: nothing to replay
    std::set<bgp::AsNumber> ignore_inputs;
    std::uint64_t promises_version = 0;
    bool operator==(const ReconKey&) const = default;
  };
  ReconKey recon_key(Time commit_time) const;

  const Recorder& recorder_;
  Faults faults_;
  /// Most recently used first; at most kReconCacheCapacity entries.
  std::vector<std::pair<ReconKey, std::shared_ptr<const Reconstruction>>> recon_cache_;
};

/// Builds the RE-ANNOUNCE set a producer submits for extended verification
/// of `elector`'s commitment at T, from the producer's own export mirror.
/// `within` limits the set to one prefix subtree (§7.3).
ReAnnounceSet build_re_announce_set(const Recorder& producer_recorder, bgp::AsNumber elector,
                                    Time commit_time,
                                    std::optional<bgp::Prefix> within = std::nullopt);

}  // namespace spider::proto
