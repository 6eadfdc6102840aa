#include "core/commitment.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "crypto/sha2_multi.hpp"

namespace spider::core {

Digest20 bit_leaf_hash(bool bit, const Digest20& x) {
  std::uint8_t b = bit ? 1 : 0;
  return crypto::digest20_concat({ByteSpan{&b, 1}, ByteSpan{x.data(), x.size()}});
}

void bit_leaf_hash_batch(const std::uint8_t* bits, const Digest20* xs, std::size_t n,
                         Digest20* out) {
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kMsg = 1 + sizeof(Digest20);
  std::uint8_t buf[kChunk * kMsg];
  std::size_t i = 0;
  while (i < n) {
    const std::size_t g = std::min(kChunk, n - i);
    for (std::size_t k = 0; k < g; ++k) {
      std::uint8_t* m = buf + k * kMsg;
      m[0] = bits[i + k] ? 1 : 0;
      std::memcpy(m + 1, xs[i + k].data(), xs[i + k].size());
    }
    crypto::digest20_batch(buf, kMsg, g, out + i);
    i += g;
  }
}

namespace {
Digest20 root_of(const std::vector<Digest20>& leaves) {
  crypto::Sha512 h;
  for (const Digest20& leaf : leaves) h.update(ByteSpan{leaf.data(), leaf.size()});
  auto full = h.finish();
  Digest20 out{};
  std::copy(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(out.size()), out.begin());
  return out;
}
}  // namespace

FlatCommitment::FlatCommitment(const std::vector<bool>& bits, const CommitmentPrf& prf)
    : bits_(bits) {
  if (bits.empty()) throw std::invalid_argument("FlatCommitment: no bits");
  const std::size_t k = bits.size();
  // x_i is window i % 3 of the bit triple at group i / 3.
  const std::size_t groups = (k + 2) / 3;
  std::vector<std::uint64_t> indices(groups);
  for (std::size_t g = 0; g < groups; ++g) indices[g] = g;
  std::vector<crypto::PrfTriple> triples(groups);
  prf.derive3_batch(CommitmentPrf::Domain::kBit, indices.data(), groups, triples.data());
  std::vector<std::uint8_t> plain(k);
  for (std::size_t i = 0; i < k; ++i) plain[i] = bits[i] ? 1 : 0;
  xs_.resize(k);
  for (std::size_t i = 0; i < k; ++i) xs_[i] = triples[i / 3][i % 3];
  leaves_.resize(k);
  bit_leaf_hash_batch(plain.data(), xs_.data(), k, leaves_.data());
  root_ = root_of(leaves_);
}

FlatBitProof FlatCommitment::prove(std::uint32_t index) const {
  if (index >= bits_.size()) throw std::out_of_range("FlatCommitment::prove: bad index");
  FlatBitProof proof;
  proof.index = index;
  proof.bit = bits_[index];
  proof.x = xs_[index];
  proof.leaves = leaves_;
  // spider-taint: declassify(§4.5: a bit proof reveals (b_i, x_i) for the challenged bit by design; every other bit stays behind its leaf hash)
  return proof;
}

bool FlatCommitment::verify(const Digest20& root, std::uint32_t num_bits,
                            const FlatBitProof& proof) {
  if (proof.index >= num_bits) return false;
  if (proof.leaves.size() != num_bits) return false;
  std::vector<Digest20> leaves = proof.leaves;
  leaves[proof.index] = bit_leaf_hash(proof.bit, proof.x);
  return crypto::constant_time_equal(root_of(leaves), root);
}

Bytes FlatBitProof::encode() const {
  util::ByteWriter w;
  w.u32(index);
  w.u8(bit ? 1 : 0);
  w.digest(x);
  w.u32(static_cast<std::uint32_t>(leaves.size()));
  for (const Digest20& leaf : leaves) w.digest(leaf);
  return w.take();
}

FlatBitProof FlatBitProof::decode(ByteSpan data) {
  util::ByteReader r(data);
  FlatBitProof proof;
  proof.index = r.u32();
  std::uint8_t bit = r.u8();
  if (bit > 1) throw util::DecodeError("FlatBitProof: bad bit");
  proof.bit = bit == 1;
  proof.x = r.digest();
  std::uint32_t n = r.check_count(r.u32(), 20, "FlatBitProof leaves");
  proof.leaves.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) proof.leaves.push_back(r.digest());
  r.expect_end();
  return proof;
}

}  // namespace spider::core
