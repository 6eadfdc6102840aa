// SPIDeR recorder-to-recorder wire messages (paper §6.2).
//
// A route announcement has the form
//   σ_E(ANNOUNCE, t, C, p, σ_P(r'), σ_E(r))
// where t is a timestamp/nonce, C the recipient AS, p the prefix, r' the
// underlying route the elector imported (carried as the producer's signed
// announcement so the recipient can check the route is genuine), and r the
// exported route itself.  Withdrawals are σ_E(WITHDRAW, t, C, p); every
// message is acknowledged with σ_R(ACK, t, C, H(m)).
//
// To bound signing cost, recorders batch messages Nagle-style (§6.2): the
// batch is the envelope, individual messages (ACKs included) are its parts.
// One flush sends one batch to each neighbour with traffic, and all of them
// share a single signature: the recorder signs a salted Merkle root over
// its neighbour slots, and each envelope carries its WindowProof (slot,
// salt, sibling path, root signature) in place of a per-batch signature.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/route.hpp"
#include "core/vpref.hpp"
#include "netsim/sim.hpp"

namespace spider::proto {

using core::SignedEnvelope;
using netsim::Time;
using util::Bytes;
using util::ByteSpan;
using util::Digest20;

enum class SpiderMsgType : std::uint8_t {
  kAnnounce = 10,
  kWithdraw = 11,
  kAck = 12,
  kCommit = 13,
  kReAnnounce = 14,
};

/// One route announcement inside a batch.
///
/// The paper's ANNOUNCE carries σ_P(r') inline.  Because our transport
/// signatures are batched (one signature per flush window), quoting a single
/// upstream message means quoting its whole signed batch; inlining that in
/// every forwarded announcement would compound along the AS path.  We
/// therefore inline only a *reference* — the digest of the producer's
/// announce part — and furnish the full MessageQuote on demand during
/// verification.  Semantics are preserved: a consumer can still verify the
/// route was not fabricated before accepting any verification outcome, and
/// fabrication is still provable evidence (DESIGN.md, substitution table).
struct SpiderAnnounce {
  Time timestamp = 0;
  bgp::AsNumber from_as = 0;
  bgp::AsNumber to_as = 0;
  bgp::Route route;
  /// AS that supplied the underlying imported route r'; 0 when locally
  /// originated.
  bgp::AsNumber underlying_from = 0;
  /// Digest of the producer's announce part bytes for r'.
  std::optional<Digest20> underlying_digest;
  /// RE-ANNOUNCE marker for extended verification (§6.6): prevents replays
  /// of re-announcements in place of originals.
  bool re_announce = false;

  Bytes encode() const;
  static SpiderAnnounce decode(ByteSpan data);
};

/// A verifiable quotation of one message out of a signed batch.
struct MessageQuote {
  SignedEnvelope batch;    // the signed SpiderBatch envelope
  std::uint32_t part = 0;  // index of the quoted part

  /// Validates the batch (check_batch) and returns the quoted part's
  /// bytes; nullopt when the batch or index is invalid.
  std::optional<Bytes> extract(const core::KeyRegistry& keys) const;

  Bytes encode() const;
  static MessageQuote decode(ByteSpan data);
};

struct SpiderWithdraw {
  Time timestamp = 0;
  bgp::AsNumber from_as = 0;
  bgp::AsNumber to_as = 0;
  bgp::Prefix prefix;

  Bytes encode() const;
  static SpiderWithdraw decode(ByteSpan data);
};

struct SpiderAck {
  Time timestamp = 0;
  bgp::AsNumber from_as = 0;
  bgp::AsNumber to_as = 0;
  /// Digest of the acknowledged (batch) envelope.
  Digest20 message_digest{};

  Bytes encode() const;
  static SpiderAck decode(ByteSpan data);
};

struct SpiderCommit {
  Time timestamp = 0;
  bgp::AsNumber from_as = 0;
  std::uint32_t num_classes = 0;
  Digest20 root{};

  Bytes encode() const;
  static SpiderCommit decode(ByteSpan data);
};

/// The messages for one neighbour in one flush.  `parts` holds the encodings of
/// SpiderAnnounce / SpiderWithdraw / SpiderCommit / SpiderAck messages,
/// each tagged with its type.
struct SpiderBatch {
  struct Part {
    SpiderMsgType type;
    Bytes body;
  };
  std::vector<Part> parts;

  Bytes encode() const;
  static SpiderBatch decode(ByteSpan data);
};

// ------------------------------------------------------- flush windows

/// Bytes of per-leaf salt in a flush-window tree.
inline constexpr std::size_t kWindowSaltBytes = 16;
/// Slot and depth travel as u8: a window has at most 2^8 slots.
inline constexpr std::size_t kMaxWindowDepth = 8;
inline constexpr std::size_t kMaxWindowSlots = std::size_t{1} << kMaxWindowDepth;

using WindowSalt = std::array<std::uint8_t, kWindowSaltBytes>;

/// A batch's membership proof in its sender's flush window, carried in the
/// batch envelope's signature bytes:
///   u8 slot ‖ u8 depth ‖ salt ‖ depth × digest sibling ‖ root signature
/// (the root signature runs to the end of the field).  Leaves are
/// H(0x00 ‖ salt ‖ batch payload), inner nodes H(0x01 ‖ left ‖ right), and
/// the root signature covers "spider-window" ‖ u32 signer ‖ root.  The
/// salt keeps a neighbour from confirming a guessed batch for another
/// neighbour against the sibling hash it receives.
struct WindowProof {
  std::uint8_t slot = 0;
  // spider-taint: secret
  WindowSalt salt{};
  /// Sibling hashes from the leaf up; the depth is siblings.size().
  std::vector<Digest20> siblings;
  Bytes root_signature;

  Bytes encode() const;
  static WindowProof decode(ByteSpan data);
};

/// Leaf of a flush-window tree: H(0x00 ‖ salt ‖ payload).
Digest20 window_leaf(const WindowSalt& salt, ByteSpan payload);

/// One slot of a flush window.  A filled slot carries its batch payload;
/// an empty one contributes `dummy_leaf`, a PRF value, so the tree never
/// shows which neighbours got traffic.
struct WindowSlot {
  // spider-taint: secret
  WindowSalt salt{};
  std::optional<Bytes> payload;
  Digest20 dummy_leaf{};
};

/// Signs one flush window with a single signature over its root.
/// `slots.size()` must be a power of two no larger than kMaxWindowSlots.
/// Returns one envelope per filled slot, in slot order.
std::vector<SignedEnvelope> sign_window(bgp::AsNumber asn, const crypto::Signer& signer,
                                        std::vector<WindowSlot> slots);

/// Signs a lone batch: the width-1 window (no siblings, zero salt).
SignedEnvelope sign_batch(bgp::AsNumber asn, const crypto::Signer& signer,
                          const SpiderBatch& batch);

/// Checks a batch envelope: its WindowProof leads from the payload to a
/// root that `envelope.signer` signed.  Never throws; malformed proofs and
/// unknown signers check false.
bool check_batch(const SignedEnvelope& envelope, const core::KeyRegistry& keys);

}  // namespace spider::proto
