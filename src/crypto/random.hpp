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
//  * CommitmentPrf    — a positional PRF, x(index) = SHA-512(seed || index)
//                       truncated to 20 bytes.  Functionally equivalent for
//                       privacy (outputs are indistinguishable from hash
//                       values without the seed) but random-access, which
//                       lets the MTT labeler run in parallel and generate
//                       bit proofs without materializing 20 bytes for every
//                       one of millions of bit nodes.  DESIGN.md documents
//                       this substitution.
#pragma once

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

/// Positional PRF over a commitment seed.  Domain-separated streams keep the
/// x-values of bit nodes disjoint from dummy-node labels.
class CommitmentPrf {
 public:
  explicit CommitmentPrf(const Seed& seed) : seed_(seed) {}

  /// Random bitstring for the x value of bit node `index`.  Secret until
  /// the checker explicitly challenges that bit (paper §6.4).
  Digest20 bit_randomness(std::uint64_t index) const { return derive('x', index); }  // spider-taint: secret

  /// Batch form: out[i] = bit_randomness(indices[i]) for i in [0, n), run
  /// through the multi-lane SHA-512 batcher.  The labeler derives millions
  /// of x values per commitment, all 41-byte messages — ideal lane food.
  // spider-taint: secret
  void bit_randomness_batch(const std::uint64_t* indices, std::size_t n, Digest20* out) const;

  /// Random label for dummy node `index`.
  Digest20 dummy_label(std::uint64_t index) const { return derive('d', index); }

  /// Batch form: out[i] = dummy_label(indices[i]) for i in [0, n).  The
  /// MTT's batched inner pass derives every dummy child of a chunk of
  /// same-depth inner nodes with one call.
  void dummy_label_batch(const std::uint64_t* indices, std::size_t n, Digest20* out) const {
    derive_batch('d', indices, n, out);
  }

  const Seed& seed() const { return seed_; }

 private:
  // spider-taint: secret
  Digest20 derive(char domain, std::uint64_t index) const;
  /// out[i] = derive(domain, indices[i]) through the fixed-length lane feed.
  void derive_batch(char domain, const std::uint64_t* indices, std::size_t n, Digest20* out) const;

  Seed seed_;
};

}  // namespace spider::crypto
