// The modified ternary tree (MTT) of paper §5: a ternary Merkle tree that
// runs one VPref instance per prefix under a single commitment, without
// revealing which prefixes are present.
//
// Node types (paper Figure 4):
//   * inner nodes  — three children along edges 0, 1 and E ("end of
//     prefix"); a child slot with no real subtree holds a dummy node;
//   * prefix nodes — one per prefix in the tree, reached via the E edge of
//     the inner node at depth len(prefix); its children are k bit nodes;
//   * bit nodes    — the VPref input bits b_1..b_k for that prefix,
//     labeled H(b || x) with secret randomness x;
//   * dummy nodes  — labeled with random bitstrings indistinguishable from
//     hashes, which is what hides the presence/absence of subtrees.
//
// All randomness (x values and dummy labels) is derived from one
// per-commitment seed (crypto::CommitmentPrf), so storing the 32-byte seed
// suffices to regenerate the entire labeling during replay (§6.5).
//
// PRF indexing is *content-addressed*: the x value of a bit node is derived
// from (prefix, class) and a dummy node's label from its trie position
// (path bits, depth, child slot) — never from allocation order.  One
// SHA-512 PRF call yields three labels (crypto::CommitmentPrf::derive3):
// x(prefix, c) is window c % 3 of the bit triple at bit_prf_index(prefix,
// c / 3), and the dummy label at child slot s of an inner node is window s
// of the dummy triple at its dummy_prf_index(path, depth).  The root
// is therefore a pure function of (seed, contents): a tree whose structure
// was grown through any sequence of apply() calls labels identically to
// one built fresh from the same final table, which is what lets the proof
// generator reproduce commitment roots by checkpoint + replay regardless
// of how the live recorder's tree evolved (§6.5).  Every commitment has a
// fresh seed, so every commitment relabels the whole tree: compute_labels()
// is the one labeling entry point.
//
// Representation notes: nodes live in flat arena arrays with 32-bit
// indices (freed slots are recycled through free lists, so update churn
// never invalidates indices), bits in a packed bitmap, and only
// inner/prefix labels are materialized (bit-node and dummy labels are
// recomputed from the PRF on demand).  This keeps a full-table MTT (391k
// prefixes x 50 classes ≈ 22M nodes) around a hundred MB, in the same
// regime the paper reports (137.5 MB).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "bgp/prefix.hpp"
#include "core/commitment.hpp"
#include "core/promise.hpp"
#include "util/thread_pool.hpp"

namespace spider::core {

/// A batched bit proof for one prefix: opens the bits of `revealed` classes
/// and carries the sibling labels up to the root.  A verifier learns the
/// revealed bits and nothing else — every other value in the proof is
/// either a hash or (indistinguishably) a dummy node's random label.
struct MttPrefixProof {
  bgp::Prefix prefix;
  /// (class, bit, x) for each opened bit.
  struct Opened {
    ClassId cls = 0;
    bool bit = false;
    Digest20 x{};
    bool operator==(const Opened&) const = default;
  };
  std::vector<Opened> revealed;
  /// Labels of all k bit nodes under the prefix node (opened positions are
  /// recomputed by the verifier and compared).
  std::vector<Digest20> bit_labels;
  /// For each inner node on the path from the root (inclusive) down to the
  /// prefix node's parent: the labels of the two non-path children, in
  /// child-slot order (0, 1, E minus the path slot).
  std::vector<std::array<Digest20, 2>> siblings;

  std::size_t byte_size() const;
  util::Bytes encode() const;
  static MttPrefixProof decode(util::ByteSpan data);
};

// ------------------------------------------------------------------------
// Proof subpath iteration.
//
// The verifier-side fold over a MttPrefixProof, exposed one step at a
// time so session-layer verifiers (src/verify) can memoize interior
// subpaths: a (position, label) pair names one node of the trie and the
// label it must carry for the proof to reach a given root.  Mtt::verify
// folds through these same helpers, so a cached and an uncached
// verification can never disagree on any step.
//
// Levels are numbered like MttPrefixProof::siblings: fold level L (for L
// in [0, len]) combines the label of the path node *below* the inner node
// at depth L with the two carried sibling labels and yields the label of
// the inner node at depth L.  Position level L names the node whose label
// enters the fold at L: the inner node at depth L for L <= len, the
// prefix node itself for L == len + 1.  Position 0 is the root.

/// Inner-node label from its three child labels, in slot order (0, 1, E).
Digest20 mtt_combine_children(const Digest20& c0, const Digest20& c1, const Digest20& c2);

/// Prefix-node label over all k bit-node labels.
Digest20 mtt_prefix_label(const Digest20* bit_labels, std::size_t n);

/// The child slot a proof for `prefix` occupies at fold level `level`
/// (0..len): 0/1 along the trie bits, 2 (the E edge) at the prefix's own
/// depth.
int mtt_path_slot(const bgp::Prefix& prefix, std::size_t level);

/// Packed trie position (path bits | depth | node kind) of the node at
/// position level `level` in [0, len + 1] on the path to `prefix`.
/// Injective across the whole trie — equal positions always mean the same
/// node — which is what makes (position, label) pairs safe to share
/// across proofs without cross-subtree collisions.
std::uint64_t mtt_path_position(const bgp::Prefix& prefix, std::size_t level);

/// One verifier fold step at `level`: places `current` (the label at
/// position level `level` + 1) into the path slot and the two carried
/// sibling labels into the remaining slots, in slot order.
Digest20 mtt_fold_level(const bgp::Prefix& prefix, std::size_t level, const Digest20& current,
                        const std::array<Digest20, 2>& siblings);

/// Generator-side memo for prove(): the per-prefix proof material that
/// does not depend on the revealed class set — the bit randomness, the k
/// bit-node labels, and the sibling path (including the PRF-derived dummy
/// labels, which prove() otherwise re-derives on every call).  One
/// verification session proves the same prefix once per neighbor role;
/// with a memo only the first prove pays the PRF/digest work, the rest
/// assemble the proof from the stored material.
///
/// Valid only for one (tree structure, labeling, prf) combination: callers
/// discard the memo when the tree or seed changes (session engines keep
/// one per reconstruction).  Thread-safe — sessions generate proofs on a
/// worker pool.
class MttProofMemo {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;

 private:
  friend class Mtt;
  struct Entry {
    std::vector<Digest20> xs;
    std::vector<Digest20> bit_labels;
    std::vector<std::array<Digest20, 2>> siblings;
  };
  mutable std::mutex mutex_;
  std::map<bgp::Prefix, Entry> entries_;
  Stats stats_;
};

/// One element of a structural update batch (Mtt::apply): insert-or-replace the
/// prefix's bits, or (bits == nullopt) remove the prefix.  Removing an
/// absent prefix and re-writing unchanged bits are no-ops, so callers can
/// feed their dirty set without first diffing against the tree.
struct MttUpdate {
  bgp::Prefix prefix;
  std::optional<std::vector<bool>> bits;
};

class Mtt {
 public:
  /// An empty, unusable tree; assign a built tree before use.
  Mtt() = default;

  /// PRF indices are packed into 64 bits (32 prefix bits + 6 length bits
  /// leave 26 bits for the class group), so class counts are bounded.
  static constexpr std::uint32_t kMaxClasses = 1u << 26;

  /// PRF index of the bit triple behind classes 3*group .. 3*group + 2 of
  /// `prefix`: content-addressed, so the same bit node draws the same
  /// randomness in any tree built over the same table with the same seed.
  /// x(prefix, c) is window c % 3 of the triple at group c / 3.
  static std::uint64_t bit_prf_index(const bgp::Prefix& prefix, std::uint32_t group);
  /// PRF index of the dummy triple of the inner node identified by its trie
  /// position (path bits as in bgp::Prefix, depth); window s labels a
  /// dummy in child slot s.
  static std::uint64_t dummy_prf_index(std::uint32_t path_bits, std::uint8_t depth);

  /// Builds the minimal MTT over `entries` (prefix -> its k input bits).
  /// Entries are sorted internally; duplicate prefixes are rejected.
  static Mtt build(std::vector<std::pair<bgp::Prefix, std::vector<bool>>> entries,
                   std::uint32_t num_classes);

  std::uint32_t num_classes() const { return num_classes_; }

  struct Counts {
    std::size_t inner = 0;
    /// Inner nodes with at least one dummy child: each costs one dummy PRF
    /// triple per labeling.
    std::size_t inner_with_dummy = 0;
    std::size_t prefix = 0;
    std::size_t dummy = 0;
    std::size_t bit = 0;
    std::size_t total() const { return inner + prefix + dummy + bit; }
  };
  Counts counts() const;

  /// Bytes used by the structure arrays, bitmap and materialized labels.
  std::size_t memory_bytes() const;

  /// Labels every node bottom-up under `prf`; the one labeling entry
  /// point, run once per commitment (each has a fresh seed, §6.5).
  /// `threads` > 1 splits both the dominant prefix-label phase and the
  /// per-depth inner-label levels across a thread pool (paper §7.1: "we
  /// break the MTT into subtrees that are each labeled completely by one
  /// of the threads").  Every labeling hash runs through the multi-lane
  /// SHA-512 batcher (crypto/sha2_multi.hpp), several digests per
  /// compression call.  Any previously computed labels are invalidated on
  /// entry, so a failed run can never serve a stale root.
  void compute_labels(const crypto::CommitmentPrf& prf, unsigned threads = 1);

  /// Applies `updates` to the structure only: labels are invalidated and
  /// must be recomputed (compute_labels) before the next root_label() or
  /// prove().  The recorder's commit path: the structure survives between
  /// commitments, the labeling starts over under each new seed.
  void apply(const std::vector<MttUpdate>& updates);

  bool labels_computed() const { return labels_done_; }
  const Digest20& root_label() const;

  /// The stored bit for (prefix, class); nullopt when the prefix is absent.
  std::optional<bool> bit(const bgp::Prefix& prefix, ClassId cls) const;

  /// Batched proof opening `classes` of `prefix`.  Requires labels to have
  /// been computed with the same `prf`.  Throws when the prefix is absent.
  /// A non-null `memo` (which must have been used only with this tree,
  /// labeling and prf) memoizes the class-independent proof material, so
  /// repeat proves of one prefix skip the PRF and digest work; the
  /// returned proof is bit-identical with and without the memo.
  MttPrefixProof prove(const crypto::CommitmentPrf& prf, const bgp::Prefix& prefix,
                       const std::vector<ClassId>& classes, MttProofMemo* memo = nullptr) const;

  /// Verifies a proof against a root label.  Checks every revealed bit and
  /// the Merkle path; returns false on any mismatch.
  static bool verify(const Digest20& root, std::uint32_t num_classes,
                     const MttPrefixProof& proof);

  /// Total number of hash evaluations performed by the last
  /// compute_labels() (for the labeling benchmarks and perfbench's
  /// per-commit hash counter), one per digest call: ceil(k/3) PRF triples,
  /// k leaves and 1 label per prefix node; 1 combining hash per inner
  /// node, plus 1 PRF triple when any of its children is a dummy.
  std::uint64_t last_label_hashes() const { return label_hashes_; }

 private:
  enum class ChildKind : std::uint8_t { kNone = 0, kInner, kPrefix, kDummy };

  struct Inner {
    std::array<std::uint32_t, 3> child{};  // index into the kind's arena
    std::array<ChildKind, 3> kind{ChildKind::kNone, ChildKind::kNone, ChildKind::kNone};
  };

  /// Index of the prefix node for `prefix`, or nullopt.
  std::optional<std::uint32_t> find_prefix(const bgp::Prefix& prefix) const;

  std::uint32_t alloc_inner(std::uint8_t depth, std::uint32_t path_bits);
  void free_inner(std::uint32_t index);
  std::uint32_t alloc_prefix(const bgp::Prefix& prefix);
  void free_prefix(std::uint32_t index);
  void write_bits(std::uint32_t prefix_index, const std::vector<bool>& bits);
  bool bits_equal(std::uint32_t prefix_index, const std::vector<bool>& bits) const;

  /// Inserts/removes/overwrites one entry of the structure.
  void apply_structural(const MttUpdate& update);

  /// Materialized label of a real (inner or prefix) child; throws on a
  /// dummy or unassigned slot.
  const Digest20& child_label(std::uint32_t inner_index, std::size_t slot) const;
  /// Labels the inner nodes in ids[0, n), which must all sit at one trie
  /// depth whose deeper levels are already labeled, through the lane
  /// batcher; accumulates the hash count into `hashes`.
  void label_inner_ids(const std::uint32_t* ids, std::size_t n, const crypto::CommitmentPrf& prf,
                       std::uint64_t& hashes);
  /// Labels the prefix nodes in ids[0, n) through the lane batcher;
  /// accumulates the hash count into `hashes`.
  void label_prefix_ids(const std::uint32_t* ids, std::size_t n, const crypto::CommitmentPrf& prf,
                        std::uint64_t& hashes);
  bool stored_bit(std::uint64_t bit_index) const;

  std::uint32_t num_classes_ = 0;
  std::vector<Inner> inner_;                 // arena; inner_[0] is the root
  std::vector<std::uint8_t> inner_depth_;    // trie depth of each inner node
  std::vector<std::uint32_t> inner_path_;    // path bits (left-aligned)
  std::vector<std::uint8_t> inner_alive_;
  std::vector<std::uint32_t> inner_free_;
  std::vector<bgp::Prefix> prefix_nodes_;    // arena, by prefix-node index
  std::vector<std::uint8_t> prefix_alive_;
  std::vector<std::uint32_t> prefix_free_;
  std::vector<std::uint64_t> bitmap_;        // packed bits, prefix-major
  std::uint64_t dummy_count_ = 0;
  std::vector<Digest20> inner_labels_;
  std::vector<Digest20> prefix_labels_;
  bool labels_done_ = false;
  std::uint64_t label_hashes_ = 0;
};

}  // namespace spider::core
