#include "spider/messages.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider::proto {

namespace {
void expect_type(util::ByteReader& r, SpiderMsgType type) {
  if (r.u8() != static_cast<std::uint8_t>(type)) throw util::DecodeError("wrong spider msg type");
}
}  // namespace

Bytes SpiderAnnounce::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SpiderMsgType::kAnnounce));
  w.i64(timestamp);
  w.u32(from_as);
  w.u32(to_as);
  route.encode(w);
  w.u32(underlying_from);
  w.u8(underlying_digest ? 1 : 0);
  if (underlying_digest) w.digest(*underlying_digest);
  w.u8(re_announce ? 1 : 0);
  return w.take();
}

SpiderAnnounce SpiderAnnounce::decode(ByteSpan data) {
  util::ByteReader r(data);
  expect_type(r, SpiderMsgType::kAnnounce);
  SpiderAnnounce m;
  m.timestamp = r.i64();
  m.from_as = r.u32();
  m.to_as = r.u32();
  m.route = bgp::Route::decode(r);
  m.underlying_from = r.u32();
  std::uint8_t flag = r.u8();
  if (flag > 1) throw util::DecodeError("SpiderAnnounce: bad flag");
  if (flag == 1) m.underlying_digest = r.digest();
  std::uint8_t rean = r.u8();
  if (rean > 1) throw util::DecodeError("SpiderAnnounce: bad re-announce flag");
  m.re_announce = rean == 1;
  r.expect_end();
  return m;
}

Bytes SpiderWithdraw::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SpiderMsgType::kWithdraw));
  w.i64(timestamp);
  w.u32(from_as);
  w.u32(to_as);
  prefix.encode(w);
  return w.take();
}

SpiderWithdraw SpiderWithdraw::decode(ByteSpan data) {
  util::ByteReader r(data);
  expect_type(r, SpiderMsgType::kWithdraw);
  SpiderWithdraw m;
  m.timestamp = r.i64();
  m.from_as = r.u32();
  m.to_as = r.u32();
  m.prefix = bgp::Prefix::decode(r);
  r.expect_end();
  return m;
}

Bytes SpiderAck::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SpiderMsgType::kAck));
  w.i64(timestamp);
  w.u32(from_as);
  w.u32(to_as);
  w.digest(message_digest);
  return w.take();
}

SpiderAck SpiderAck::decode(ByteSpan data) {
  util::ByteReader r(data);
  expect_type(r, SpiderMsgType::kAck);
  SpiderAck m;
  m.timestamp = r.i64();
  m.from_as = r.u32();
  m.to_as = r.u32();
  m.message_digest = r.digest();
  r.expect_end();
  return m;
}

Bytes SpiderCommit::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SpiderMsgType::kCommit));
  w.i64(timestamp);
  w.u32(from_as);
  w.u32(num_classes);
  w.digest(root);
  return w.take();
}

SpiderCommit SpiderCommit::decode(ByteSpan data) {
  util::ByteReader r(data);
  expect_type(r, SpiderMsgType::kCommit);
  SpiderCommit m;
  m.timestamp = r.i64();
  m.from_as = r.u32();
  m.num_classes = r.u32();
  m.root = r.digest();
  r.expect_end();
  return m;
}

Bytes SpiderBatch::encode() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(parts.size()));
  for (const Part& part : parts) {
    w.u8(static_cast<std::uint8_t>(part.type));
    w.bytes(part.body);
  }
  return w.take();
}

SpiderBatch SpiderBatch::decode(ByteSpan data) {
  util::ByteReader r(data);
  SpiderBatch batch;
  // Each part is at least a type byte plus a u32 body length; a count that
  // claims more parts than the remaining bytes could hold is malformed, and
  // sizing the vector from it would let a 4-byte header demand an
  // attacker-chosen allocation.
  std::uint32_t n = r.check_count(r.u32(), 5, "SpiderBatch parts");
  batch.parts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Part part;
    std::uint8_t type = r.u8();
    if (type < 10 || type > 14) throw util::DecodeError("SpiderBatch: bad part type");
    part.type = static_cast<SpiderMsgType>(type);
    part.body = r.bytes();
    batch.parts.push_back(std::move(part));
  }
  r.expect_end();
  return batch;
}

Bytes WindowProof::encode() const {
  util::ByteWriter w;
  w.u8(slot);
  w.u8(static_cast<std::uint8_t>(siblings.size()));
  // The recipient of this slot needs its salt to recompute the leaf; every
  // other neighbour sees only salted hashes.
  // spider-taint: declassify(a salt goes only to its own slot's recipient)
  w.raw(ByteSpan{salt.data(), salt.size()});
  for (const Digest20& sibling : siblings) w.digest(sibling);
  w.raw(root_signature);
  return w.take();
}

WindowProof WindowProof::decode(ByteSpan data) {
  util::ByteReader r(data);
  WindowProof proof;
  proof.slot = r.u8();
  const std::uint8_t depth = r.u8();
  if (depth > kMaxWindowDepth) throw util::DecodeError("WindowProof: depth too large");
  if ((std::size_t{proof.slot} >> depth) != 0) {
    throw util::DecodeError("WindowProof: slot outside window");
  }
  const Bytes salt = r.raw(kWindowSaltBytes);
  std::copy(salt.begin(), salt.end(), proof.salt.begin());
  for (std::uint8_t d = 0; d < depth; ++d) proof.siblings.push_back(r.digest());
  proof.root_signature = r.raw(r.remaining());
  return proof;
}

namespace {

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kInnerTag = 0x01;

Digest20 window_node(const Digest20& left, const Digest20& right) {
  return crypto::digest20_concat({ByteSpan{&kInnerTag, 1}, ByteSpan{left.data(), left.size()},
                                  ByteSpan{right.data(), right.size()}});
}

/// The signed message: "spider-window" ‖ u32 signer ‖ root.
Bytes window_root_message(std::uint32_t signer, const Digest20& root) {
  util::ByteWriter w;
  w.raw(util::str_bytes("spider-window"));
  w.u32(signer);
  w.digest(root);
  return w.take();
}

}  // namespace

Digest20 window_leaf(const WindowSalt& salt, ByteSpan payload) {
  return crypto::digest20_concat(
      {ByteSpan{&kLeafTag, 1}, ByteSpan{salt.data(), salt.size()}, payload});
}

std::vector<SignedEnvelope> sign_window(bgp::AsNumber asn, const crypto::Signer& signer,
                                        std::vector<WindowSlot> slots) {
  const std::size_t width = slots.size();
  if (width == 0 || width > kMaxWindowSlots || (width & (width - 1)) != 0) {
    throw std::invalid_argument("sign_window: width must be a power of two <= 256");
  }
  // levels[0] holds the leaves; levels[d + 1][i] joins levels[d][2i, 2i+1].
  std::vector<std::vector<Digest20>> levels(1);
  levels[0].reserve(width);
  for (const WindowSlot& slot : slots) {
    levels[0].push_back(slot.payload ? window_leaf(slot.salt, *slot.payload) : slot.dummy_leaf);
  }
  while (levels.back().size() > 1) {
    const std::vector<Digest20>& below = levels.back();
    std::vector<Digest20> above;
    above.reserve(below.size() / 2);
    for (std::size_t i = 0; i < below.size(); i += 2) {
      above.push_back(window_node(below[i], below[i + 1]));
    }
    levels.push_back(std::move(above));
  }
  const Bytes root_signature = signer.sign(window_root_message(asn, levels.back().front()));

  std::vector<SignedEnvelope> out;
  for (std::size_t index = 0; index < width; ++index) {
    if (!slots[index].payload) continue;
    WindowProof proof;
    proof.slot = static_cast<std::uint8_t>(index);
    proof.salt = slots[index].salt;
    for (std::size_t d = 0; d + 1 < levels.size(); ++d) {
      proof.siblings.push_back(levels[d][(index >> d) ^ 1]);
    }
    proof.root_signature = root_signature;
    SignedEnvelope envelope;
    envelope.signer = asn;
    envelope.payload = std::move(*slots[index].payload);
    envelope.signature = proof.encode();
    out.push_back(std::move(envelope));
  }
  return out;
}

SignedEnvelope sign_batch(bgp::AsNumber asn, const crypto::Signer& signer,
                          const SpiderBatch& batch) {
  std::vector<WindowSlot> slots(1);
  slots[0].payload = batch.encode();
  return std::move(sign_window(asn, signer, std::move(slots)).front());
}

bool check_batch(const SignedEnvelope& envelope, const core::KeyRegistry& keys) {
  WindowProof proof;
  try {
    proof = WindowProof::decode(envelope.signature);
  } catch (const util::DecodeError&) {
    return false;
  }
  Digest20 node = window_leaf(proof.salt, envelope.payload);
  for (std::size_t d = 0; d < proof.siblings.size(); ++d) {
    node = ((proof.slot >> d) & 1) != 0 ? window_node(proof.siblings[d], node)
                                        : window_node(node, proof.siblings[d]);
  }
  return keys.verify(envelope.signer, window_root_message(envelope.signer, node),
                     proof.root_signature);
}

std::optional<Bytes> MessageQuote::extract(const core::KeyRegistry& keys) const {
  if (!check_batch(batch, keys)) return std::nullopt;
  try {
    SpiderBatch decoded = SpiderBatch::decode(batch.payload);
    if (part >= decoded.parts.size()) return std::nullopt;
    return decoded.parts[part].body;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

Bytes MessageQuote::encode() const {
  util::ByteWriter w;
  w.bytes(batch.encode());
  w.u32(part);
  return w.take();
}

MessageQuote MessageQuote::decode(ByteSpan data) {
  util::ByteReader r(data);
  MessageQuote q;
  q.batch = SignedEnvelope::decode(r.bytes());
  q.part = r.u32();
  r.expect_end();
  return q;
}

}  // namespace spider::proto
