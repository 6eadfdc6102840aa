// Flat bit commitments for single-prefix VPref (paper §4.4 step 4):
//   h := H( H(b_1||x_1) || ... || H(b_k||x_k) )
// and the matching bit proofs (§4.5): to prove bit i, reveal (b_i, x_i) and
// the leaf hashes H(b_j||x_j) for every j != i.  The multi-prefix version
// replaces the flat hash list with the MTT (core/mtt.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/random.hpp"
#include "crypto/sha2.hpp"
#include "util/serde.hpp"

namespace spider::core {

using crypto::CommitmentPrf;
using util::Bytes;
using util::ByteSpan;
using util::Digest20;

/// Leaf hash H(b || x) with b serialized as one byte.
Digest20 bit_leaf_hash(bool bit, const Digest20& x);

/// Batch form: out[i] = bit_leaf_hash(bits[i] != 0, xs[i]) for i in [0, n),
/// run through the multi-lane SHA-512 batcher.  Bits are uint8_t (0/1)
/// rather than bool so callers can hand over a plain contiguous array
/// (std::vector<bool> has no data()).
void bit_leaf_hash_batch(const std::uint8_t* bits, const Digest20* xs, std::size_t n,
                         Digest20* out);

/// A proof that bit `index` had value `bit` in a flat commitment.
struct FlatBitProof {
  std::uint32_t index = 0;
  bool bit = false;
  Digest20 x{};
  /// All k leaf hashes; position `index` is ignored by the verifier (it is
  /// recomputed from bit/x), but keeping the full vector keeps the encoding
  /// position-independent.
  std::vector<Digest20> leaves;

  Bytes encode() const;
  static FlatBitProof decode(ByteSpan data);
};

/// The elector-side commitment: knows every bit and every secret bitstring.
class FlatCommitment {
 public:
  /// Commits to `bits`; randomness is drawn from `prf`'s bit domain, x_i
  /// being window i % 3 of the triple at index i / 3, so the same seed
  /// reproduces the same commitment (paper §6.5: only the CSPRNG seed
  /// needs to be stored).
  FlatCommitment(const std::vector<bool>& bits, const CommitmentPrf& prf);

  const Digest20& root() const { return root_; }
  std::uint32_t num_bits() const { return static_cast<std::uint32_t>(bits_.size()); }
  bool bit(std::uint32_t index) const { return bits_.at(index); }

  /// Produces the bit proof for `index`.
  FlatBitProof prove(std::uint32_t index) const;

  /// Verifier side: checks that `proof` opens bit `proof.index` of the
  /// commitment with root `root` over `num_bits` bits.
  static bool verify(const Digest20& root, std::uint32_t num_bits, const FlatBitProof& proof);

 private:
  std::vector<bool> bits_;
  // spider-taint: secret
  std::vector<Digest20> xs_;
  std::vector<Digest20> leaves_;
  Digest20 root_{};
};

}  // namespace spider::core
