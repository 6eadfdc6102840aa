// Multi-lane SHA-512: hashes batches of independent messages in parallel
// SIMD lanes (8-wide AVX-512, 4-wide AVX2, scalar otherwise).
//
// SPIDeR's labeling workload is millions of short, independent,
// equal-length messages (41-byte PRF inputs, 21-byte leaf inputs, 60-byte
// inner-node inputs, k*20-byte prefix-node inputs), which is exactly the
// shape a lane-parallel compression function wants.  Two entry points:
//
//  * the general batcher (sha512_batch, digest20_batch over spans) groups
//    consecutive messages with the same padded block count, runs one
//    transposed compression per block across the group, and falls back to
//    the scalar streaming class for leftovers;
//  * the fixed-length lane feed (sha512_batch_fixed / digest20_batch over
//    packed messages of one length that fits a single block) pads one template
//    block per lane once per call and then copies only the message bytes
//    per group — the labeler's PRF, leaf and inner-node hashes all take
//    this path.  The full-digest form feeds CommitmentPrf::derive3_batch,
//    which keeps 60 of the 64 output bytes (three labels per compression);
//    the truncated form feeds every other label.
//
// Results are bit-identical to Sha512::hash on every input — the
// differential battery (tests/test_crypto_diff.cpp) enforces this.  Both
// paths count crypto/sha512_digests and crypto/sha512_bytes once per call,
// with the same totals the scalar class would report.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha2.hpp"
#include "util/bytes.hpp"

namespace spider::crypto {

/// Longest message that pads into one 128-byte SHA-512 block (the 0x80
/// marker and the 16-byte length take the other 17 bytes).
inline constexpr std::size_t kSha512OneBlockMax = 111;

/// Lanes the fastest available backend processes per compression call:
/// 8 (AVX-512), 4 (AVX2) or 1 (scalar fallback).  Constant for the life of
/// the process.
std::size_t sha512_lanes();

/// outs[i] = SHA-512(msgs[i]) for i in [0, n).
void sha512_batch(const ByteSpan* msgs, std::size_t n, Sha512::Digest* outs);

/// outs[i] = digest20(msgs[i]): the truncated form every commitment label
/// uses (paper §7.1).
void digest20_batch(const ByteSpan* msgs, std::size_t n, Digest20* outs);

/// Fixed-length lane feed: outs[i] = SHA-512 of bytes [i*len, (i+1)*len) of
/// `msgs`, for n messages packed back to back that all have the same
/// length len <= kSha512OneBlockMax.  Throws std::invalid_argument on a
/// longer len.
void sha512_batch_fixed(const std::uint8_t* msgs, std::size_t len, std::size_t n,
                        Sha512::Digest* outs);

/// Fixed-length form of digest20_batch: the same lane feed as
/// sha512_batch_fixed, keeping the leading 20 bytes of each digest.
void digest20_batch(const std::uint8_t* msgs, std::size_t len, std::size_t n, Digest20* outs);

}  // namespace spider::crypto
