#include "crypto/random.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>

#include "crypto/sha2_multi.hpp"

namespace spider::crypto {

Seed random_seed() {
  // std::random_device is backed by OS entropy on Linux/glibc.
  std::random_device rd;
  Seed s;
  for (std::size_t i = 0; i < s.data.size(); i += 4) {
    std::uint32_t v = rd();
    std::memcpy(s.data.data() + i, &v, 4);
  }
  return s;
}

Seed seed_from_string(std::string_view label) {
  auto digest = Sha256::hash(ByteSpan{reinterpret_cast<const std::uint8_t*>(label.data()), label.size()});
  Seed s;
  std::memcpy(s.data.data(), digest.data(), s.data.size());
  return s;
}

namespace {

constexpr std::size_t kPrfMsg = sizeof(Seed::data) + 9;
static_assert(sizeof(PrfTriple) == 60, "PrfTriple must pack to three back-to-back labels");

/// Cuts the three 20-byte windows out of a full digest.
PrfTriple windows(const Sha512::Digest& full) {
  PrfTriple out;
  for (std::size_t w = 0; w < out.size(); ++w) {
    std::memcpy(out[w].data(), full.data() + w * sizeof(Digest20), sizeof(Digest20));
  }
  return out;
}

void store_index(std::uint8_t* p, std::uint64_t index) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(index >> (56 - 8 * b));
}

}  // namespace

PrfTriple CommitmentPrf::derive3(Domain domain, std::uint64_t index) const {
  std::uint8_t msg[kPrfMsg];
  std::memcpy(msg, seed_.data.data(), seed_.data.size());
  msg[32] = static_cast<std::uint8_t>(domain);
  store_index(msg + 33, index);
  return windows(Sha512::hash(ByteSpan{msg, sizeof(msg)}));
}

void CommitmentPrf::derive3_batch(Domain domain, const std::uint64_t* indices, std::size_t n,
                                  PrfTriple* out) const {
  // Same bytes as derive3(domain, index): seed || domain || big-endian
  // index.  The seed and domain bytes are laid down once; each message
  // then only rewrites its 8 index bytes.
  constexpr std::size_t kChunk = 64;
  std::uint8_t buf[kChunk * kPrfMsg];
  Sha512::Digest digests[kChunk];
  for (std::size_t k = 0; k < std::min(kChunk, n); ++k) {
    std::uint8_t* m = buf + k * kPrfMsg;
    std::memcpy(m, seed_.data.data(), seed_.data.size());
    m[32] = static_cast<std::uint8_t>(domain);
  }
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t g = std::min(kChunk, n - i);
    for (std::size_t k = 0; k < g; ++k) store_index(buf + k * kPrfMsg + 33, indices[i + k]);
    sha512_batch_fixed(buf, kPrfMsg, g, digests);
    for (std::size_t k = 0; k < g; ++k) out[i + k] = windows(digests[k]);
  }
}

}  // namespace spider::crypto
