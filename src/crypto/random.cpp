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

Digest20 CommitmentPrf::derive(char domain, std::uint64_t index) const {
  std::uint8_t suffix[9];
  suffix[0] = static_cast<std::uint8_t>(domain);
  for (int i = 0; i < 8; ++i) suffix[1 + i] = static_cast<std::uint8_t>(index >> (56 - 8 * i));
  return digest20_concat({seed_.span(), ByteSpan{suffix, sizeof(suffix)}});
}

void CommitmentPrf::bit_randomness_batch(const std::uint64_t* indices, std::size_t n,
                                         Digest20* out) const {
  derive_batch('x', indices, n, out);
}

void CommitmentPrf::derive_batch(char domain, const std::uint64_t* indices, std::size_t n,
                                 Digest20* out) const {
  // Same bytes as derive(domain, index): seed || domain || big-endian
  // index.  The seed and domain bytes are laid down once; each message
  // then only rewrites its 8 index bytes.
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kMsg = sizeof(seed_.data) + 9;
  std::uint8_t buf[kChunk * kMsg];
  for (std::size_t k = 0; k < std::min(kChunk, n); ++k) {
    std::uint8_t* m = buf + k * kMsg;
    std::memcpy(m, seed_.data.data(), seed_.data.size());
    m[32] = static_cast<std::uint8_t>(domain);
  }
  std::size_t i = 0;
  while (i < n) {
    const std::size_t g = std::min(kChunk, n - i);
    for (std::size_t k = 0; k < g; ++k) {
      std::uint8_t* m = buf + k * kMsg;
      const std::uint64_t index = indices[i + k];
      for (int b = 0; b < 8; ++b) m[33 + b] = static_cast<std::uint8_t>(index >> (56 - 8 * b));
    }
    digest20_batch(buf, kMsg, g, out + i);
    i += g;
  }
}

}  // namespace spider::crypto
