#include "spider/node_wire.hpp"

#include <cstdio>

#include "util/serde.hpp"

namespace spider::proto {

Bytes NodeFrame::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(body);
  return w.take();
}

NodeFrame NodeFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  NodeFrame frame;
  std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(NodeFrameType::kEnvelope) ||
      type > static_cast<std::uint8_t>(NodeFrameType::kShutdown)) {
    throw util::DecodeError("NodeFrame: bad type");
  }
  frame.type = static_cast<NodeFrameType>(type);
  frame.body = r.bytes();
  r.expect_end();
  return frame;
}

Bytes InjectFrame::encode() const {
  util::ByteWriter w;
  w.u64(seq);
  w.i64(sent_at);
  w.bytes(update.encode());
  return w.take();
}

InjectFrame InjectFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  InjectFrame frame;
  frame.seq = r.u64();
  frame.sent_at = r.i64();
  frame.update = bgp::Update::decode(r.bytes());
  r.expect_end();
  return frame;
}

Bytes StatsFrame::encode() const {
  util::ByteWriter w;
  w.u64(token);
  w.u64(updates_mirrored);
  w.u64(commitments_made);
  w.u64(alarms);
  w.u64(log_entries);
  return w.take();
}

StatsFrame StatsFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  StatsFrame frame;
  frame.token = r.u64();
  frame.updates_mirrored = r.u64();
  frame.commitments_made = r.u64();
  frame.alarms = r.u64();
  frame.log_entries = r.u64();
  r.expect_end();
  return frame;
}

Bytes LogSegmentFrame::encode() const {
  util::ByteWriter w;
  w.u8(kind);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const Bytes& record : records) w.bytes(record);
  return w.take();
}

LogSegmentFrame LogSegmentFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  LogSegmentFrame frame;
  frame.kind = r.u8();
  if (frame.kind > kCommitments) throw util::DecodeError("LogSegmentFrame: bad kind");
  std::uint32_t n = r.check_count(r.u32(), 4, "LogSegmentFrame records");
  frame.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) frame.records.push_back(r.bytes());
  r.expect_end();
  return frame;
}

std::uint32_t proof_round_of(const bgp::Prefix& prefix, std::uint32_t round_count) {
  if (round_count <= 1) return 0;
  // FNV-1a over the canonical (bits, length) encoding.  Any fixed hash
  // works as long as every party computes the same one; FNV keeps the
  // round assignment independent of trie order so chunks stay balanced.
  std::uint32_t h = 2166136261u;
  auto mix = [&](std::uint8_t byte) {
    h ^= byte;
    h *= 16777619u;
  };
  const std::uint32_t bits = prefix.bits();
  mix(static_cast<std::uint8_t>(bits >> 24));
  mix(static_cast<std::uint8_t>(bits >> 16));
  mix(static_cast<std::uint8_t>(bits >> 8));
  mix(static_cast<std::uint8_t>(bits));
  mix(prefix.length());
  return h % round_count;
}

namespace {

/// Shared validation for the (round, round_count) pair carried by proof
/// request/bundle frames: a single-round frame must say round 0, and a
/// multi-round frame must name a chunk inside the partition.
void check_round_fields(std::uint32_t round, std::uint32_t round_count, const char* what) {
  if (round_count <= 1 ? round != 0 : round >= round_count) {
    throw util::DecodeError(std::string(what) + ": bad round");
  }
}

}  // namespace

Bytes ProofRequestFrame::encode() const {
  util::ByteWriter w;
  w.u32(elector);
  w.i64(commit_time);
  w.u32(consumer);
  w.u32(round);
  w.u32(round_count);
  return w.take();
}

ProofRequestFrame ProofRequestFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  ProofRequestFrame frame;
  frame.elector = r.u32();
  frame.commit_time = r.i64();
  frame.consumer = r.u32();
  frame.round = r.u32();
  frame.round_count = r.u32();
  check_round_fields(frame.round, frame.round_count, "ProofRequestFrame");
  r.expect_end();
  return frame;
}

Bytes ProofBundleFrame::encode() const {
  util::ByteWriter w;
  w.u32(elector);
  w.i64(commit_time);
  w.u32(consumer);
  w.u32(round);
  w.u32(round_count);
  w.u8(root_matches);
  w.bytes(producer_proofs);
  w.bytes(consumer_proofs);
  return w.take();
}

ProofBundleFrame ProofBundleFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  ProofBundleFrame frame;
  frame.elector = r.u32();
  frame.commit_time = r.i64();
  frame.consumer = r.u32();
  frame.round = r.u32();
  frame.round_count = r.u32();
  check_round_fields(frame.round, frame.round_count, "ProofBundleFrame");
  frame.root_matches = r.u8();
  if (frame.root_matches > 1) throw util::DecodeError("ProofBundleFrame: bad root_matches");
  frame.producer_proofs = r.bytes();
  frame.consumer_proofs = r.bytes();
  r.expect_end();
  return frame;
}

Bytes CheckResultFrame::encode() const {
  util::ByteWriter w;
  w.u8(ok);
  w.u8(producer_ok);
  w.u8(consumer_ok);
  w.u8(root_matches);
  w.str(detail);
  return w.take();
}

CheckResultFrame CheckResultFrame::decode(ByteSpan data) {
  util::ByteReader r(data);
  CheckResultFrame frame;
  frame.ok = r.u8();
  frame.producer_ok = r.u8();
  frame.consumer_ok = r.u8();
  frame.root_matches = r.u8();
  for (std::uint8_t flag : {frame.ok, frame.producer_ok, frame.consumer_ok, frame.root_matches}) {
    if (flag > 1) throw util::DecodeError("CheckResultFrame: bad flag");
  }
  frame.detail = r.str();
  r.expect_end();
  return frame;
}

NodeEndpoint::NodeEndpoint(transport::Endpoint& inner) : inner_(inner) {
  inner_.set_frame_handler([this](transport::PeerId from, ByteSpan frame) {
    NodeFrame node_frame;
    try {
      node_frame = NodeFrame::decode(frame);
    } catch (const util::DecodeError& e) {
      std::fprintf(stderr, "dropping malformed node frame from peer %u: %s\n", from, e.what());
      return;
    }
    if (node_frame.type == NodeFrameType::kEnvelope) {
      if (handler_) handler_(from, node_frame.body);
    } else if (control_) {
      control_(from, node_frame);
    }
  });
}

bool NodeEndpoint::send(transport::PeerId to, ByteSpan frame) {
  NodeFrame node_frame{NodeFrameType::kEnvelope, Bytes(frame.begin(), frame.end())};
  return inner_.send(to, node_frame.encode());
}

bool NodeEndpoint::send_control(transport::PeerId to, NodeFrameType type, ByteSpan body) {
  NodeFrame node_frame{type, Bytes(body.begin(), body.end())};
  return inner_.send(to, node_frame.encode());
}

}  // namespace spider::proto
