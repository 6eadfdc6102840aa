// Test-only reference labeler for core::Mtt: recomputes the root of the
// minimal MTT over a table (paper §5) straight from the sorted entries,
// without the tree's arena, level batching, thread pool or SHA-512 lane
// batcher.  It calls only public scalar primitives — the scalar
// Sha512::hash for its own copy of the PRF (reference_derive3, so the
// oracle never shares CommitmentPrf's lane path), bit_leaf_hash,
// mtt_prefix_label, mtt_combine_children and Mtt's PRF index packing — so
// a test that compares Mtt::compute_labels against it checks the
// production labeler against an independent implementation of the same
// definition.
//
// The hash count follows Mtt::last_label_hashes(), one per digest call:
// per prefix node ceil(k/3) PRF triples, k leaf hashes and its label; per
// inner node one combining hash, plus one PRF triple when any of its
// children is a dummy.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/commitment.hpp"
#include "core/mtt.hpp"
#include "crypto/sha2.hpp"

namespace spider::test {

/// The full PRF output SHA-512(seed || domain || be64(index)), hashed with
/// the scalar class.
inline crypto::Sha512::Digest reference_prf_digest(const crypto::Seed& seed,
                                                   crypto::CommitmentPrf::Domain domain,
                                                   std::uint64_t index) {
  std::vector<std::uint8_t> msg(seed.data.begin(), seed.data.end());
  msg.push_back(static_cast<std::uint8_t>(domain));
  for (int b = 0; b < 8; ++b) msg.push_back(static_cast<std::uint8_t>(index >> (56 - 8 * b)));
  return crypto::Sha512::hash(util::ByteSpan{msg.data(), msg.size()});
}

/// CommitmentPrf::derive3 by definition: the PRF output's windows [0,20),
/// [20,40) and [40,60).
inline crypto::PrfTriple reference_derive3(const crypto::Seed& seed,
                                           crypto::CommitmentPrf::Domain domain,
                                           std::uint64_t index) {
  const crypto::Sha512::Digest full = reference_prf_digest(seed, domain, index);
  crypto::PrfTriple out{};
  for (std::size_t w = 0; w < out.size(); ++w) {
    std::copy_n(full.begin() + static_cast<std::ptrdiff_t>(20 * w), 20, out[w].begin());
  }
  return out;
}

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
  // The node's dummy triple, derived (and counted) at most once.
  bool derived = false;
  crypto::PrfTriple dummies{};
  auto dummy = [&](int slot) {
    if (!derived) {
      dummies = reference_derive3(prf.seed(), crypto::CommitmentPrf::Domain::kDummy,
                                  core::Mtt::dummy_prf_index(path, depth));
      derived = true;
      ++hashes;
    }
    return dummies[static_cast<std::size_t>(slot)];
  };
  std::array<util::Digest20, 3> child{};
  // Entries sort by (bits, length), so the prefix ending at this node (its
  // bits equal `path`, lower bits zero) comes first.
  if (first != last && first->first.length() == depth) {
    const bgp::Prefix& prefix = first->first;
    const std::vector<bool>& bits = first->second;
    std::vector<util::Digest20> leaves;
    crypto::PrfTriple xs{};
    for (core::ClassId c = 0; c < bits.size(); ++c) {
      if (c % 3 == 0) {
        xs = reference_derive3(prf.seed(), crypto::CommitmentPrf::Domain::kBit,
                               core::Mtt::bit_prf_index(prefix, c / 3));
        ++hashes;
      }
      leaves.push_back(core::bit_leaf_hash(bits[c], xs[c % 3]));
    }
    hashes += bits.size() + 1;
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
