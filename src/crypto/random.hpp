// Cryptographic randomness for commitments.
//
// Each commitment draws all of its random bitstrings (the x_i values behind
// bit nodes, and the labels of dummy nodes) from a per-commitment secret
// seed (paper §6.5).  Storing only the seed — 32 bytes — lets the proof
// generator reproduce every bitstring during replay, which is why a
// commitment adds just a constant amount of data to the log.
//
// Two derivations are provided:
//  * Rc4Csprng        — the paper's construction, a sequential stream;
//  * CommitmentPrf    — a positional PRF with one derivation shape:
//                       derive3(domain, index) = SHA-512(seed || domain ||
//                       be64(index)) cut into three 20-byte windows
//                       [0,20), [20,40), [40,60) (the last 4 bytes are
//                       dropped), so one compression yields three labels.
//                       Functionally equivalent for privacy (each window is
//                       PRF output under the secret seed, indistinguishable
//                       from a hash value, and revealing one says nothing
//                       about its two group-mates) but random-access, which
//                       lets the MTT labeler run in parallel and generate
//                       bit proofs without materializing 20 bytes for every
//                       one of millions of bit nodes.  DESIGN.md documents
//                       this substitution.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/rc4.hpp"
#include "crypto/sha2.hpp"
#include "util/bytes.hpp"

namespace spider::crypto {

using util::Digest20;

/// A 32-byte commitment seed.  Marked secret for the taint pass: any
/// value of this type must stay inside the commitment boundary (hashes
/// of it are public; the bytes themselves are not).
struct Seed {  // spider-taint: secret
  std::array<std::uint8_t, 32> data{};

  ByteSpan span() const { return ByteSpan{data.data(), data.size()}; }
  bool operator==(const Seed&) const = default;
};

/// Derives a fresh, unpredictable seed from OS entropy.
Seed random_seed();

/// Deterministically derives a seed from a label (tests and replayable sims).
Seed seed_from_string(std::string_view label);

/// Three 20-byte PRF windows cut from one SHA-512 output.
using PrfTriple = std::array<Digest20, 3>;

/// Positional PRF over a commitment seed.  Callers map their labels onto
/// windows: the x value of bit node c is window c % 3 of group c / 3, and
/// the three dummy labels of an inner node are the three windows of its
/// own index (core/mtt.cpp, core/commitment.cpp).
class CommitmentPrf {
 public:
  /// Domain byte: keeps the x values of bit nodes disjoint from dummy-node
  /// labels.
  enum class Domain : std::uint8_t { kBit = 'x', kDummy = 'd' };

  explicit CommitmentPrf(const Seed& seed) : seed_(seed) {}

  /// SHA-512(seed || domain || be64(index)), windows [0,20), [20,40) and
  /// [40,60).  Bit-domain windows stay secret until the checker explicitly
  /// challenges that bit (paper §6.4).
  PrfTriple derive3(Domain domain, std::uint64_t index) const;  // spider-taint: secret

  /// Batch form: out[i] = derive3(domain, indices[i]) for i in [0, n), run
  /// through the fixed-length SHA-512 lane feed.  The labeler derives
  /// millions of triples per commitment, all 41-byte messages — ideal lane
  /// food.
  // spider-taint: secret
  void derive3_batch(Domain domain, const std::uint64_t* indices, std::size_t n,
                     PrfTriple* out) const;

  const Seed& seed() const { return seed_; }

 private:
  Seed seed_;
};

}  // namespace spider::crypto
