#include "spider/evidence.hpp"

#include "crypto/ct.hpp"

namespace spider::proto {

std::optional<SpiderAnnounce> QuotedMessage::as_announce(const core::KeyRegistry& keys) const {
  auto body = quote.extract(keys);
  if (!body) return std::nullopt;
  try {
    return SpiderAnnounce::decode(*body);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

std::optional<SpiderWithdraw> QuotedMessage::as_withdraw(const core::KeyRegistry& keys) const {
  auto body = quote.extract(keys);
  if (!body) return std::nullopt;
  try {
    return SpiderWithdraw::decode(*body);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

Bytes ImportEvidence::encode() const {
  util::ByteWriter w;
  w.bytes(announce.encode());
  w.bytes(ack.encode());
  return w.take();
}

ImportEvidence ImportEvidence::decode(util::ByteSpan data) {
  util::ByteReader r(data);
  ImportEvidence evidence;
  evidence.announce = QuotedMessage::decode(r.bytes());
  evidence.ack = core::SignedEnvelope::decode(r.bytes());
  r.expect_end();
  return evidence;
}

Bytes ExportEvidence::encode() const {
  util::ByteWriter w;
  w.bytes(announce.encode());
  return w.take();
}

ExportEvidence ExportEvidence::decode(util::ByteSpan data) {
  util::ByteReader r(data);
  ExportEvidence evidence;
  evidence.announce = QuotedMessage::decode(r.bytes());
  r.expect_end();
  return evidence;
}

Bytes EvidenceRefutation::encode() const {
  util::ByteWriter w;
  w.bytes(withdraw.encode());
  w.u8(ack ? 1 : 0);
  if (ack) w.bytes(ack->encode());
  return w.take();
}

EvidenceRefutation EvidenceRefutation::decode(util::ByteSpan data) {
  util::ByteReader r(data);
  EvidenceRefutation refutation;
  refutation.withdraw = QuotedMessage::decode(r.bytes());
  std::uint8_t flag = r.u8();
  if (flag > 1) throw util::DecodeError("EvidenceRefutation: bad flag");
  if (flag == 1) refutation.ack = core::SignedEnvelope::decode(r.bytes());
  r.expect_end();
  return refutation;
}

namespace {

/// Validates an ACK: a batch from `expected_signer` that checks and
/// carries an ACK part covering the digest of `batch_envelope` (ACKs ride
/// ordinary batches, beside announces and withdraws).
bool ack_matches(const core::SignedEnvelope& ack, std::uint32_t expected_signer,
                 const core::SignedEnvelope& batch_envelope, const core::KeyRegistry& keys) {
  if (ack.signer != expected_signer) return false;
  if (!check_batch(ack, keys)) return false;
  try {
    SpiderBatch batch = SpiderBatch::decode(ack.payload);
    for (const SpiderBatch::Part& part : batch.parts) {
      if (part.type != SpiderMsgType::kAck) continue;
      SpiderAck decoded = SpiderAck::decode(part.body);
      if (crypto::constant_time_equal(decoded.message_digest, batch_envelope.digest())) return true;
    }
  } catch (const util::DecodeError&) {
    return false;
  }
  return false;
}

/// Checks whether the refutation is a valid WITHDRAW for (from, to, prefix)
/// inside the window (after, until).
bool refutes(const EvidenceRefutation& refutation, std::uint32_t from, std::uint32_t to,
             const bgp::Prefix& prefix, Time after, Time until, bool need_ack,
             std::uint32_t acker, const core::KeyRegistry& keys) {
  if (refutation.withdraw.quote.batch.signer != from) return false;
  auto withdraw = refutation.withdraw.as_withdraw(keys);
  if (!withdraw) return false;
  if (withdraw->from_as != from || withdraw->to_as != to || !(withdraw->prefix == prefix)) {
    return false;
  }
  if (withdraw->timestamp <= after || withdraw->timestamp >= until) return false;
  if (need_ack) {
    if (!refutation.ack) return false;
    if (!ack_matches(*refutation.ack, acker, refutation.withdraw.quote.batch, keys)) return false;
  }
  return true;
}

}  // namespace

EvidenceVerdict check_evidence_of_import(const ImportEvidence& evidence, Time at,
                                         const std::optional<EvidenceRefutation>& refutation,
                                         const core::KeyRegistry& keys) {
  auto announce = evidence.announce.as_announce(keys);
  if (!announce) return EvidenceVerdict::kInvalid;
  if (announce->timestamp >= at) return EvidenceVerdict::kInvalid;
  // The ACK proves the elector (to_as) received it.
  if (!ack_matches(evidence.ack, announce->to_as, evidence.announce.quote.batch, keys)) {
    return EvidenceVerdict::kInvalid;
  }
  if (refutation &&
      refutes(*refutation, announce->from_as, announce->to_as, announce->route.prefix,
              announce->timestamp, at, /*need_ack=*/false, 0, keys)) {
    return EvidenceVerdict::kRefuted;
  }
  return EvidenceVerdict::kUpheld;
}

EvidenceVerdict check_evidence_of_export(const ExportEvidence& evidence, Time at,
                                         const std::optional<EvidenceRefutation>& refutation,
                                         const core::KeyRegistry& keys) {
  auto announce = evidence.announce.as_announce(keys);
  if (!announce) return EvidenceVerdict::kInvalid;
  if (announce->timestamp >= at) return EvidenceVerdict::kInvalid;
  // Refutation: the sender's own WITHDRAW, which must carry the
  // *recipient's* ACK (outgoing messages are effective when sent, but the
  // withdrawing elector must show the recipient saw it).
  if (refutation &&
      refutes(*refutation, announce->from_as, announce->to_as, announce->route.prefix,
              announce->timestamp, at, /*need_ack=*/true, announce->to_as, keys)) {
    return EvidenceVerdict::kRefuted;
  }
  return EvidenceVerdict::kUpheld;
}

}  // namespace spider::proto
