#include "crypto/sha2_multi.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "crypto/sha2_kernel.hpp"
#include "obs/metrics.hpp"

namespace spider::crypto {

namespace {

using detail::kMaxLanes;

constexpr std::size_t kBlock = 128;
static_assert(kSha512OneBlockMax + 17 == kBlock, "one-block bound must leave room for padding");

/// Blocks the padded message occupies: data, then 0x80 + zeros + 16-byte
/// length, rounded up.
std::size_t padded_blocks(std::size_t len) { return (len + 17 + kBlock - 1) / kBlock; }

struct Backend {
  std::size_t lanes;
  void (*compress)(std::uint64_t (*)[kMaxLanes], const std::uint8_t* const*);
};

/// The backend of exactly `lanes` lanes, or nullopt when this CPU or build
/// lacks it.
std::optional<Backend> backend_with(std::size_t lanes) {
  switch (lanes) {
    case 8:
      if (detail::sha512_x8_supported()) return Backend{8, &detail::sha512_x8_compress};
      break;
    case 4:
      if (detail::sha512_x4_supported()) return Backend{4, &detail::sha512_x4_compress};
      break;
    case 1: return Backend{1, nullptr};
    default: break;
  }
  return std::nullopt;
}

const Backend& backend() {
  static const Backend be = [] {
    if (auto x8 = backend_with(8)) return *x8;
    if (auto x4 = backend_with(4)) return *x4;
    return Backend{1, nullptr};
  }();
  return be;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  // Spelled out so the compiler merges it into one byte-swapped store.
  p[0] = static_cast<std::uint8_t>(v >> 56);
  p[1] = static_cast<std::uint8_t>(v >> 48);
  p[2] = static_cast<std::uint8_t>(v >> 40);
  p[3] = static_cast<std::uint8_t>(v >> 32);
  p[4] = static_cast<std::uint8_t>(v >> 24);
  p[5] = static_cast<std::uint8_t>(v >> 16);
  p[6] = static_cast<std::uint8_t>(v >> 8);
  p[7] = static_cast<std::uint8_t>(v);
}

void init_state(std::uint64_t state[8][kMaxLanes]) {
  for (std::size_t w = 0; w < 8; ++w) {
    for (std::size_t l = 0; l < kMaxLanes; ++l) state[w][l] = detail::kSha512Iv[w];
  }
}

/// Writes the leading big-endian digest bytes of `lane` that fit an Out
/// (a std::array of at most 64 bytes): whole words straight into `out`,
/// a partial last word through a staging buffer.
template <typename Out>
void store_digest(const std::uint64_t state[8][kMaxLanes], std::size_t lane, Out& out) {
  constexpr std::size_t kLen = std::tuple_size_v<Out>;
  static_assert(kLen <= 64, "a SHA-512 digest has 64 bytes");
  for (std::size_t w = 0; w < kLen / 8; ++w) store_be64(out.data() + 8 * w, state[w][lane]);
  if constexpr (kLen % 8 != 0) {
    std::uint8_t be[8];
    store_be64(be, state[kLen / 8][lane]);
    std::memcpy(out.data() + kLen / 8 * 8, be, kLen % 8);
  }
}

/// Lane-path totals for one public call.  The scalar class counts inside
/// finish(); the lane paths never reach it, so each call adds its whole
/// batch here once instead of once per lane group.
struct Tally {
  std::uint64_t digests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t groups = 0;

  void flush() const {
    if (groups == 0) return;
    SPIDER_OBS_COUNT("crypto/sha512_digests", digests);
    SPIDER_OBS_COUNT("crypto/sha512_bytes", bytes);
    SPIDER_OBS_COUNT("crypto/sha512_lane_groups", groups);
  }
};

/// Per-lane padding tail: the final one or two blocks holding the message
/// remainder, the 0x80 marker and the big-endian bit length.  Left
/// uninitialized on purpose: build_tail writes every byte of the
/// tail_blocks that run_group hands to the kernel, and nothing else.
struct Tail {
  std::uint8_t pad[2 * kBlock];
  std::size_t data_blocks;
  std::size_t tail_blocks;
};

void build_tail(ByteSpan msg, Tail& t) {
  const std::size_t rem = msg.size() % kBlock;
  t.data_blocks = msg.size() / kBlock;
  t.tail_blocks = padded_blocks(msg.size()) - t.data_blocks;
  const std::size_t end = t.tail_blocks * kBlock;
  if (rem != 0) std::memcpy(t.pad, msg.data() + t.data_blocks * kBlock, rem);
  t.pad[rem] = 0x80;
  std::memset(t.pad + rem + 1, 0, end - 8 - (rem + 1));
  // 128-bit big-endian length; the high 8 bytes stay zero for any message
  // under 2^61 bytes (same assumption as the scalar class).
  store_be64(t.pad + end - 8, static_cast<std::uint64_t>(msg.size()) * 8);
}

/// Hashes a group of g (2 <= g <= kMaxLanes) messages that all pad to the
/// same block count into outs[0, g), each keeping the leading digest bytes
/// that fit an Out; lanes past g re-hash the last message and are
/// discarded.
template <typename Out>
void run_group(const Backend& be, const ByteSpan* msgs, std::size_t g, Out* outs, Tally& tally) {
  std::uint64_t state[8][kMaxLanes];
  init_state(state);

  Tail tails[kMaxLanes];
  for (std::size_t l = 0; l < g; ++l) {
    build_tail(msgs[l], tails[l]);
    tally.bytes += msgs[l].size();
  }

  const std::size_t nb = padded_blocks(msgs[0].size());
  const std::uint8_t* blocks[kMaxLanes] = {};
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t l = 0; l < be.lanes; ++l) {
      const std::size_t src = l < g ? l : g - 1;
      const Tail& t = tails[src];
      blocks[l] = b < t.data_blocks ? msgs[src].data() + b * kBlock
                                    : t.pad + (b - t.data_blocks) * kBlock;
    }
    be.compress(state, blocks);
  }

  for (std::size_t l = 0; l < g; ++l) store_digest(state, l, outs[l]);
  tally.digests += g;
  tally.groups += 1;
}

/// The general batcher behind sha512_batch and the span form of
/// digest20_batch: outs[i] receives the leading digest bytes of msgs[i]
/// that fit an Out (a full Sha512::Digest or a Digest20).
template <typename Out>
void batch_spans(const ByteSpan* msgs, std::size_t n, Out* outs) {
  const Backend& be = backend();
  Tally tally;
  std::size_t i = 0;
  while (i < n) {
    // Greedily extend a run of messages with the same padded block count.
    const std::size_t nb = padded_blocks(msgs[i].size());
    std::size_t j = i + 1;
    while (j < n && j - i < be.lanes && padded_blocks(msgs[j].size()) == nb) ++j;
    const std::size_t g = j - i;
    if (g >= 2) {
      run_group(be, msgs + i, g, outs + i, tally);
    } else {
      const Sha512::Digest full = Sha512::hash(msgs[i]);
      std::memcpy(outs[i].data(), full.data(), outs[i].size());
    }
    i = j;
  }
  tally.flush();
}

/// The fixed-length lane feed behind both packed-message entry points:
/// outs[i] receives the leading digest bytes of message i that fit an Out.
template <typename Out>
void batch_fixed(const Backend& be, const std::uint8_t* msgs, std::size_t len, std::size_t n,
                 Out* outs) {
  if (len > kSha512OneBlockMax) {
    throw std::invalid_argument("sha512 lane feed: fixed-length messages must fit one block");
  }
  if (n == 0) return;
  if (be.lanes == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      const Sha512::Digest full = Sha512::hash(ByteSpan{msgs + i * len, len});
      std::memcpy(outs[i].data(), full.data(), outs[i].size());
    }
    return;
  }

  // Every message has the same length, so everything past its bytes — the
  // 0x80 marker, the zeros and the bit length — is the same in every
  // lane: pad one template block per lane once, then each group only
  // overwrites the first len bytes.  Lanes past a short final group keep
  // stale messages whose digests are discarded.
  std::uint8_t blocks[kMaxLanes][kBlock];
  const std::uint8_t* lane_blocks[kMaxLanes];
  for (std::size_t l = 0; l < kMaxLanes; ++l) {
    std::memset(blocks[l], 0, kBlock);
    blocks[l][len] = 0x80;
    store_be64(blocks[l] + kBlock - 8, static_cast<std::uint64_t>(len) * 8);
    lane_blocks[l] = blocks[l];
  }

  std::uint64_t state[8][kMaxLanes];
  Tally tally;
  for (std::size_t i = 0; i < n; i += be.lanes) {
    const std::size_t g = std::min(be.lanes, n - i);
    if (len != 0) {
      for (std::size_t l = 0; l < g; ++l) std::memcpy(blocks[l], msgs + (i + l) * len, len);
    }
    init_state(state);
    be.compress(state, lane_blocks);
    for (std::size_t l = 0; l < g; ++l) store_digest(state, l, outs[i + l]);
    tally.groups += 1;
  }
  tally.digests = n;
  tally.bytes = static_cast<std::uint64_t>(n) * len;
  tally.flush();
}

}  // namespace

std::size_t sha512_lanes() { return backend().lanes; }

void sha512_batch(const ByteSpan* msgs, std::size_t n, Sha512::Digest* outs) {
  batch_spans(msgs, n, outs);
}

void digest20_batch(const ByteSpan* msgs, std::size_t n, Digest20* outs) {
  batch_spans(msgs, n, outs);
}

void sha512_batch_fixed(const std::uint8_t* msgs, std::size_t len, std::size_t n,
                        Sha512::Digest* outs) {
  batch_fixed(backend(), msgs, len, n, outs);
}

void digest20_batch(const std::uint8_t* msgs, std::size_t len, std::size_t n, Digest20* outs) {
  batch_fixed(backend(), msgs, len, n, outs);
}

bool detail::sha512_batch_fixed_on(std::size_t lanes, const std::uint8_t* msgs, std::size_t len,
                                   std::size_t n, std::array<std::uint8_t, 64>* outs) {
  const std::optional<Backend> be = backend_with(lanes);
  if (be) batch_fixed(*be, msgs, len, n, outs);
  return be.has_value();
}

}  // namespace spider::crypto
