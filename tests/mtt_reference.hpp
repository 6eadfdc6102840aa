// Test-only reference labeler for core::Mtt: recomputes the root of the
// minimal MTT over a table (paper §5) straight from the sorted entries,
// without the tree's arena, level batching, thread pool or SHA-512 lane
// batcher.  It calls only public scalar primitives — CommitmentPrf's
// bit_randomness/dummy_label, bit_leaf_hash, mtt_prefix_label,
// mtt_combine_children and Mtt's PRF index packing — so a test that
// compares Mtt::compute_labels against it checks the production labeler
// against an independent implementation of the same definition.
//
// The hash count follows Mtt::last_label_hashes(): two per bit node (its
// x derivation and its leaf hash), one per prefix node, and per inner
// node one combining hash plus one PRF derivation per dummy child.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/commitment.hpp"
#include "core/mtt.hpp"

namespace spider::test {

using MttEntry = std::pair<bgp::Prefix, std::vector<bool>>;

struct MttReferenceLabel {
  util::Digest20 root{};
  std::uint64_t hashes = 0;
};

namespace detail {

/// Label of the inner node at trie position (path, depth) over the entries
/// [first, last), which all lie below it: length >= depth and the top
/// `depth` bits equal `path`.
inline util::Digest20 reference_inner(const MttEntry* first, const MttEntry* last,
                                      std::uint32_t path, std::uint8_t depth,
                                      const crypto::CommitmentPrf& prf, std::uint64_t& hashes) {
  auto dummy = [&](int slot) {
    ++hashes;
    return prf.dummy_label(core::Mtt::dummy_prf_index(path, depth, slot));
  };
  std::array<util::Digest20, 3> child{};
  // Entries sort by (bits, length), so the prefix ending at this node (its
  // bits equal `path`, lower bits zero) comes first.
  if (first != last && first->first.length() == depth) {
    const bgp::Prefix& prefix = first->first;
    const std::vector<bool>& bits = first->second;
    std::vector<util::Digest20> leaves;
    for (core::ClassId c = 0; c < bits.size(); ++c) {
      leaves.push_back(
          core::bit_leaf_hash(bits[c], prf.bit_randomness(core::Mtt::bit_prf_index(prefix, c))));
    }
    hashes += 2 * bits.size() + 1;
    child[2] = core::mtt_prefix_label(leaves.data(), leaves.size());
    ++first;
  } else {
    child[2] = dummy(2);
  }
  // The rest are longer than `depth`, with every 0-bit at `depth` before
  // every 1-bit; an empty side is a dummy.
  const MttEntry* split =
      std::partition_point(first, last, [depth](const MttEntry& e) { return !e.first.bit(depth); });
  const auto next = static_cast<std::uint8_t>(depth + 1);
  child[0] = first == split ? dummy(0) : reference_inner(first, split, path, next, prf, hashes);
  child[1] = split == last ? dummy(1)
                           : reference_inner(split, last, path | (1u << (31 - depth)), next,
                                             prf, hashes);
  ++hashes;
  return core::mtt_combine_children(child[0], child[1], child[2]);
}

}  // namespace detail

/// Root label and hash count of the MTT over `entries` (distinct prefixes,
/// equal bit counts) under `prf`.
inline MttReferenceLabel mtt_reference_label(std::vector<MttEntry> entries,
                                             const crypto::CommitmentPrf& prf) {
  std::sort(entries.begin(), entries.end(),
            [](const MttEntry& a, const MttEntry& b) { return a.first < b.first; });
  MttReferenceLabel out;
  const MttEntry* first = entries.data();
  out.root = detail::reference_inner(first, first + entries.size(), 0, 0, prf, out.hashes);
  return out;
}

}  // namespace spider::test
