// Internal SHA-512 kernel interface shared by the scalar implementation
// (sha2.cpp) and the multi-lane backends (sha2_multi_*.cpp).  Not part of
// the public crypto API.
//
// Lane layout: state is word-major — state[w][l] is word w of lane l — so
// a backend loads one SIMD vector per state word with a single unaligned
// load.  Rows are fixed at kMaxLanes wide; a 4-lane backend simply uses
// the first four columns.  `blocks[l]` points at lane l's next 128-byte
// message block.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace spider::crypto::detail {

inline constexpr std::size_t kMaxLanes = 8;

extern const std::uint64_t kSha512K[80];
extern const std::uint64_t kSha512Iv[8];

/// True when the running CPU (and this build) can execute the 4-lane
/// AVX2 kernel.
bool sha512_x4_supported();
void sha512_x4_compress(std::uint64_t state[8][kMaxLanes],
                        const std::uint8_t* const blocks[kMaxLanes]);

/// True when the running CPU (and this build) can execute the 8-lane
/// AVX-512 kernel.
bool sha512_x8_supported();
void sha512_x8_compress(std::uint64_t state[8][kMaxLanes],
                        const std::uint8_t* const blocks[kMaxLanes]);

/// sha512_batch_fixed (sha2_multi.hpp) run on the backend of
/// exactly `lanes` lanes (1, 4 or 8) instead of the fastest one, so the
/// differential tests cover every width the host supports.  Returns false,
/// writing nothing, when this CPU or build lacks that width.
bool sha512_batch_fixed_on(std::size_t lanes, const std::uint8_t* msgs, std::size_t len,
                           std::size_t n, std::array<std::uint8_t, 64>* outs);

}  // namespace spider::crypto::detail
