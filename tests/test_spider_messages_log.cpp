// SPIDeR wire messages, signed batches/quotes, the tamper-evident log, and
// timestamped evidence of import/export (§6.2, §6.3, §6.5).
#include <gtest/gtest.h>

#include "spider/evidence.hpp"
#include "spider/log.hpp"
#include "spider/messages.hpp"
#include "spider/recorder.hpp"
#include "spider/state.hpp"

namespace sp = spider::proto;
namespace sc = spider::core;
namespace scr = spider::crypto;
namespace sb = spider::bgp;
namespace su = spider::util;

namespace {

su::Bytes key_of(std::uint32_t asn) {
  std::string s = "as-key-" + std::to_string(asn);
  return su::Bytes(s.begin(), s.end());
}

struct TwoParty {
  sc::KeyRegistry keys;
  scr::HashSigner alice{key_of(1)};
  scr::HashSigner bob{key_of(2)};
  TwoParty() {
    keys.add(1, std::make_unique<scr::HashVerifier>(key_of(1)));
    keys.add(2, std::make_unique<scr::HashVerifier>(key_of(2)));
  }
};

sb::Route sample_route(const char* prefix = "10.0.0.0/8") {
  sb::Route r;
  r.prefix = sb::Prefix::parse(prefix);
  r.as_path = {2, 77};
  r.learned_from = 2;
  return r;
}

sp::SpiderAnnounce sample_announce(sp::Time t = 1000) {
  sp::SpiderAnnounce a;
  a.timestamp = t;
  a.from_as = 1;
  a.to_as = 2;
  a.route = sample_route();
  a.underlying_from = 77;
  a.underlying_digest = scr::digest20(su::str_bytes("underlying"));
  return a;
}

}  // namespace

TEST(SpiderMessages, AnnounceRoundtrip) {
  auto a = sample_announce();
  auto decoded = sp::SpiderAnnounce::decode(a.encode());
  EXPECT_EQ(decoded.timestamp, a.timestamp);
  EXPECT_EQ(decoded.from_as, a.from_as);
  EXPECT_EQ(decoded.to_as, a.to_as);
  EXPECT_EQ(decoded.route, a.route);
  EXPECT_EQ(decoded.underlying_from, a.underlying_from);
  EXPECT_EQ(decoded.underlying_digest, a.underlying_digest);
  EXPECT_FALSE(decoded.re_announce);
}

TEST(SpiderMessages, ReAnnounceFlagSurvives) {
  auto a = sample_announce();
  a.re_announce = true;
  EXPECT_TRUE(sp::SpiderAnnounce::decode(a.encode()).re_announce);
}

TEST(SpiderMessages, WithdrawAckCommitRoundtrip) {
  sp::SpiderWithdraw w{500, 1, 2, sb::Prefix::parse("10.0.0.0/8")};
  auto wd = sp::SpiderWithdraw::decode(w.encode());
  EXPECT_EQ(wd.prefix, w.prefix);
  EXPECT_EQ(wd.timestamp, 500);

  sp::SpiderAck ack{600, 2, 1, scr::digest20(su::str_bytes("m"))};
  auto ad = sp::SpiderAck::decode(ack.encode());
  EXPECT_EQ(ad.message_digest, ack.message_digest);

  sp::SpiderCommit commit{700, 5, 50, scr::digest20(su::str_bytes("root"))};
  auto cd = sp::SpiderCommit::decode(commit.encode());
  EXPECT_EQ(cd.root, commit.root);
  EXPECT_EQ(cd.num_classes, 50u);
}

TEST(SpiderMessages, TypeConfusionRejected) {
  auto a = sample_announce();
  EXPECT_THROW(sp::SpiderWithdraw::decode(a.encode()), su::DecodeError);
}

TEST(SpiderMessages, BatchRoundtripAndSigning) {
  TwoParty net;
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, sample_announce().encode()});
  batch.parts.push_back(
      {sp::SpiderMsgType::kWithdraw,
       sp::SpiderWithdraw{2, 1, 2, sb::Prefix::parse("11.0.0.0/8")}.encode()});

  auto envelope = sp::sign_batch(1, net.alice, batch);
  EXPECT_TRUE(sp::check_batch(envelope, net.keys));
  auto decoded = sp::SpiderBatch::decode(envelope.payload);
  ASSERT_EQ(decoded.parts.size(), 2u);
  EXPECT_EQ(decoded.parts[0].type, sp::SpiderMsgType::kAnnounce);
  EXPECT_EQ(decoded.parts[1].type, sp::SpiderMsgType::kWithdraw);
}

namespace {

/// A four-slot window signed by Alice: slots 0, 1 and 3 carry batches,
/// slot 2 is empty.
std::vector<sc::SignedEnvelope> alice_window(const TwoParty& net) {
  std::vector<sp::WindowSlot> slots(4);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].salt.fill(static_cast<std::uint8_t>(0xa0 + i));
    if (i == 2) {
      slots[i].dummy_leaf = scr::digest20(su::str_bytes("dummy"));
      continue;
    }
    sp::SpiderBatch batch;
    batch.parts.push_back(
        {sp::SpiderMsgType::kAnnounce, sample_announce(1000 + static_cast<sp::Time>(i)).encode()});
    slots[i].payload = batch.encode();
  }
  return sp::sign_window(1, net.alice, std::move(slots));
}

}  // namespace

TEST(SpiderMessages, WindowProofRoundtripsAndBindsEveryByte) {
  TwoParty net;
  const auto window = alice_window(net);
  ASSERT_EQ(window.size(), 3u);
  for (const sc::SignedEnvelope& envelope : window) {
    ASSERT_TRUE(sp::check_batch(envelope, net.keys));
    const sp::WindowProof proof = sp::WindowProof::decode(envelope.signature);
    EXPECT_EQ(proof.encode(), envelope.signature);
    EXPECT_EQ(proof.siblings.size(), 2u);
    EXPECT_EQ(proof.root_signature, sp::WindowProof::decode(window[0].signature).root_signature);
    // Slot, depth, salt, every sibling and the root signature: each byte
    // of the proof is bound.
    for (std::size_t i = 0; i < envelope.signature.size(); ++i) {
      sc::SignedEnvelope tampered = envelope;
      tampered.signature[i] ^= 0x01;
      EXPECT_FALSE(sp::check_batch(tampered, net.keys)) << "proof byte " << i;
    }
    for (std::size_t i = 0; i < envelope.payload.size(); ++i) {
      sc::SignedEnvelope tampered = envelope;
      tampered.payload[i] ^= 0x80;
      EXPECT_FALSE(sp::check_batch(tampered, net.keys)) << "payload byte " << i;
    }
    // The proof moved to every other slot of the window.
    for (std::uint8_t slot = 0; slot < 4; ++slot) {
      if (slot == proof.slot) continue;
      sp::WindowProof moved = proof;
      moved.slot = slot;
      sc::SignedEnvelope tampered = envelope;
      tampered.signature = moved.encode();
      EXPECT_FALSE(sp::check_batch(tampered, net.keys)) << "moved to slot " << int{slot};
    }
    // Right proof, wrong signer.
    sc::SignedEnvelope forged = envelope;
    forged.signer = 2;
    EXPECT_FALSE(sp::check_batch(forged, net.keys));
  }
  // One batch's proof under another batch's payload.
  sc::SignedEnvelope swapped = window[0];
  swapped.signature = window[1].signature;
  EXPECT_FALSE(sp::check_batch(swapped, net.keys));
}

TEST(SpiderMessages, WindowProofDecodeRejectsImpossibleShapes) {
  sp::WindowProof proof;
  proof.slot = 3;
  proof.siblings.resize(2);
  proof.root_signature = su::str_bytes("sig");
  EXPECT_NO_THROW(sp::WindowProof::decode(proof.encode()));
  proof.slot = 4;  // outside a depth-2 window
  EXPECT_THROW(sp::WindowProof::decode(proof.encode()), su::DecodeError);
  proof.slot = 0;
  proof.siblings.resize(sp::kMaxWindowDepth + 1);
  EXPECT_THROW(sp::WindowProof::decode(proof.encode()), su::DecodeError);
  EXPECT_THROW(sp::WindowProof::decode(su::Bytes{0, 0, 1, 2}), su::DecodeError);  // short salt
}

TEST(SpiderMessages, LoneBatchIsTheWidthOneWindow) {
  TwoParty net;
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, sample_announce().encode()});
  const auto envelope = sp::sign_batch(1, net.alice, batch);
  const sp::WindowProof proof = sp::WindowProof::decode(envelope.signature);
  EXPECT_EQ(proof.slot, 0u);
  EXPECT_TRUE(proof.siblings.empty());
  EXPECT_TRUE(sp::check_batch(envelope, net.keys));
  // A width-1 window has no slot 1.
  sc::SignedEnvelope moved = envelope;
  moved.signature[0] = 1;
  EXPECT_FALSE(sp::check_batch(moved, net.keys));
  // Not a window proof at all.
  sc::SignedEnvelope plain = sc::sign_envelope(1, net.alice, envelope.payload);
  EXPECT_FALSE(sp::check_batch(plain, net.keys));
}

TEST(SpiderMessages, QuoteExtractsPart) {
  TwoParty net;
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, sample_announce().encode()});
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, sample_announce(2000).encode()});
  auto envelope = sp::sign_batch(1, net.alice, batch);

  sp::MessageQuote quote{envelope, 1};
  auto body = quote.extract(net.keys);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(sp::SpiderAnnounce::decode(*body).timestamp, 2000);

  // Out-of-range part index.
  sp::MessageQuote bad{envelope, 7};
  EXPECT_FALSE(bad.extract(net.keys).has_value());

  // Tampered batch.
  sp::MessageQuote forged{envelope, 0};
  forged.batch.payload.back() ^= 1;
  EXPECT_FALSE(forged.extract(net.keys).has_value());
}

TEST(SpiderMessages, QuoteRoundtrip) {
  TwoParty net;
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, sample_announce().encode()});
  sp::MessageQuote quote{sp::sign_batch(1, net.alice, batch), 0};
  auto decoded = sp::MessageQuote::decode(quote.encode());
  EXPECT_EQ(decoded.part, 0u);
  EXPECT_TRUE(decoded.extract(net.keys).has_value());
}

// -------------------------------------------------------------------- log

TEST(MessageLog, ChainVerifies) {
  sp::MessageLog log;
  for (int i = 0; i < 10; ++i) {
    log.append(i * 100, sp::LogDirection::kSent, 2, su::str_bytes("msg" + std::to_string(i)), 4);
  }
  EXPECT_TRUE(log.verify_chain());
  EXPECT_EQ(log.entries().size(), 10u);
}

TEST(MessageLog, TamperBreaksChain) {
  sp::MessageLog log;
  log.append(100, sp::LogDirection::kSent, 2, su::str_bytes("aaa"), 0);
  log.append(200, sp::LogDirection::kReceived, 3, su::str_bytes("bbb"), 0);
  EXPECT_TRUE(log.verify_chain());
  // A direct mutation of history must be detectable.
  auto& entries = const_cast<std::vector<sp::LogEntry>&>(log.entries());
  entries[0].message[0] ^= 1;
  EXPECT_FALSE(log.verify_chain());
}

TEST(MessageLog, ByteAccounting) {
  sp::MessageLog log;
  log.append(1, sp::LogDirection::kSent, 2, su::Bytes(100, 7), 30);
  log.append(2, sp::LogDirection::kSent, 2, su::Bytes(50, 7), 20);
  EXPECT_EQ(log.message_bytes(), 150u);
  EXPECT_EQ(log.signature_bytes(), 50u);
}

TEST(MessageLog, CheckpointLookup) {
  sp::MessageLog log;
  log.add_checkpoint(0, {su::str_bytes("cp0")});
  log.add_checkpoint(1000, {su::str_bytes("cp1")});
  log.add_checkpoint(5000, {su::str_bytes("cp2")});
  EXPECT_EQ(log.checkpoint_before(999)->timestamp, 0);
  EXPECT_EQ(log.checkpoint_before(1000)->timestamp, 1000);
  EXPECT_EQ(log.checkpoint_before(99999)->timestamp, 5000);
  EXPECT_EQ(log.checkpoint_bytes(), 9u);
}

TEST(MessageLog, CommitmentRecords) {
  sp::MessageLog log;
  sp::CommitmentRecord record;
  record.timestamp = 60;
  record.seed = scr::seed_from_string("s");
  record.num_classes = 50;
  log.record_commitment(record);
  ASSERT_NE(log.commitment_at(60), nullptr);
  EXPECT_EQ(log.commitment_at(60)->seed, record.seed);
  EXPECT_EQ(log.commitment_at(61), nullptr);
  // §7.7: a commitment costs just the 32-byte seed.
  EXPECT_EQ(log.commitment_bytes(), 32u);
}

TEST(MessageLog, EntriesBetweenBounds) {
  sp::MessageLog log;
  for (int i = 1; i <= 5; ++i) {
    log.append(i * 100, sp::LogDirection::kSent, 2, su::str_bytes("m"), 0);
  }
  auto window = log.entries_between(100, 400);
  ASSERT_EQ(window.size(), 3u);  // 200, 300, 400 (exclusive lower, inclusive upper)
  EXPECT_EQ(window.front()->timestamp, 200);
  EXPECT_EQ(window.back()->timestamp, 400);
}

TEST(MessageLog, PruneRetainsBaseCheckpointAndChain) {
  sp::MessageLog log;
  log.add_checkpoint(0, {su::str_bytes("cp0")});
  for (int i = 1; i <= 10; ++i) {
    // Appended, not `"m" + std::to_string(i)`: GCC 12 -Wrestrict false positive at -O3.
    const std::string text = std::string("m").append(std::to_string(i));
    log.append(i * 100, sp::LogDirection::kSent, 2, su::str_bytes(text), 2);
  }
  log.add_checkpoint(500, {su::str_bytes("cp5")});
  sp::CommitmentRecord old_commit;
  old_commit.timestamp = 300;
  log.record_commitment(old_commit);
  sp::CommitmentRecord new_commit;
  new_commit.timestamp = 900;
  log.record_commitment(new_commit);

  log.prune_before(600);
  EXPECT_TRUE(log.verify_chain());
  EXPECT_EQ(log.entries().front().timestamp, 600);
  EXPECT_EQ(log.commitment_at(300), nullptr);
  EXPECT_NE(log.commitment_at(900), nullptr);
  // The newest checkpoint before the cutoff survives as the replay base.
  ASSERT_NE(log.checkpoint_before(600), nullptr);
  EXPECT_EQ(log.checkpoint_before(600)->timestamp, 500);
}

// -------------------------------------------------------------- evidence

namespace {

struct EvidenceWorld {
  TwoParty net;
  sc::SignedEnvelope announce_batch;
  sc::SignedEnvelope ack_batch;
  sc::SignedEnvelope withdraw_batch;
  sc::SignedEnvelope withdraw_ack_batch;

  EvidenceWorld() {
    // Alice (AS1) announces to Bob (AS2) at t=1000.
    sp::SpiderBatch announce;
    announce.parts.push_back({sp::SpiderMsgType::kAnnounce, sample_announce(1000).encode()});
    announce_batch = sp::sign_batch(1, net.alice, announce);

    // Bob acks.
    sp::SpiderAck ack{1010, 2, 1, announce_batch.digest()};
    sp::SpiderBatch ack_wrapper;
    ack_wrapper.parts.push_back({sp::SpiderMsgType::kAck, ack.encode()});
    ack_batch = sp::sign_batch(2, net.bob, ack_wrapper);

    // Alice withdraws at t=2000.
    sp::SpiderWithdraw withdraw{2000, 1, 2, sb::Prefix::parse("10.0.0.0/8")};
    sp::SpiderBatch withdraw_wrapper;
    withdraw_wrapper.parts.push_back({sp::SpiderMsgType::kWithdraw, withdraw.encode()});
    withdraw_batch = sp::sign_batch(1, net.alice, withdraw_wrapper);

    // Bob acks the withdrawal.
    sp::SpiderAck wack{2010, 2, 1, withdraw_batch.digest()};
    sp::SpiderBatch wack_wrapper;
    wack_wrapper.parts.push_back({sp::SpiderMsgType::kAck, wack.encode()});
    withdraw_ack_batch = sp::sign_batch(2, net.bob, wack_wrapper);
  }

  sp::ImportEvidence import_evidence() const {
    return sp::ImportEvidence{{sp::MessageQuote{announce_batch, 0}}, ack_batch};
  }
  sp::ExportEvidence export_evidence() const {
    return sp::ExportEvidence{{sp::MessageQuote{announce_batch, 0}}};
  }
  sp::EvidenceRefutation refutation(bool with_ack) const {
    sp::EvidenceRefutation r{{sp::MessageQuote{withdraw_batch, 0}}, std::nullopt};
    if (with_ack) r.ack = withdraw_ack_batch;
    return r;
  }
};

}  // namespace

TEST(Evidence, ImportUpheldWithoutRefutation) {
  EvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kUpheld);
}

TEST(Evidence, ImportRefutedByLaterWithdraw) {
  EvidenceWorld world;
  // Verification at t=3000: the withdraw at t=2000 lies in (1000, 3000).
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), 3000,
                                         world.refutation(false), world.net.keys),
            sp::EvidenceVerdict::kRefuted);
}

TEST(Evidence, ImportNotRefutedByWithdrawAfterT) {
  EvidenceWorld world;
  // Verification at t=1500: the withdraw at t=2000 is AFTER t — no refutation.
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), 1500,
                                         world.refutation(false), world.net.keys),
            sp::EvidenceVerdict::kUpheld);
}

TEST(Evidence, ImportInvalidWhenAnnounceAfterT) {
  EvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), 500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
}

TEST(Evidence, ImportInvalidWithWrongAck) {
  EvidenceWorld world;
  sp::ImportEvidence evidence = world.import_evidence();
  evidence.ack = world.withdraw_ack_batch;  // acks a different message
  EXPECT_EQ(sp::check_evidence_of_import(evidence, 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
}

TEST(Evidence, ExportUpheldAndRefutedWithAck) {
  EvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kUpheld);
  // Refuting an export claim needs the recipient's ACK on the withdraw.
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 3000,
                                         world.refutation(true), world.net.keys),
            sp::EvidenceVerdict::kRefuted);
  // Without the ACK the refutation fails and the evidence stands.
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 3000,
                                         world.refutation(false), world.net.keys),
            sp::EvidenceVerdict::kUpheld);
}

TEST(Evidence, TamperedQuoteInvalid) {
  EvidenceWorld world;
  auto evidence = world.import_evidence();
  evidence.announce.quote.batch.signature.back() ^= 1;
  EXPECT_EQ(sp::check_evidence_of_import(evidence, 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
}

// Verdict paths under message loss, refutation timeouts, and skewed
// clocks: what each party can (and cannot) prove when the network
// misbehaved around the evidence exchange.

namespace {

/// Builders for off-nominal refutation material.
struct LossyEvidenceWorld : EvidenceWorld {
  sc::SignedEnvelope make_withdraw_batch(sp::Time t, bool signed_by_alice = true) {
    sp::SpiderWithdraw withdraw{t, 1, 2, sb::Prefix::parse("10.0.0.0/8")};
    sp::SpiderBatch wrapper;
    wrapper.parts.push_back({sp::SpiderMsgType::kWithdraw, withdraw.encode()});
    return signed_by_alice ? sp::sign_batch(1, net.alice, wrapper)
                           : sp::sign_batch(2, net.bob, wrapper);
  }
  sc::SignedEnvelope make_ack_for(const sc::SignedEnvelope& target, bool signed_by_bob = true) {
    sp::SpiderAck ack{3000, signed_by_bob ? 2u : 1u, signed_by_bob ? 1u : 2u, target.digest()};
    sp::SpiderBatch wrapper;
    wrapper.parts.push_back({sp::SpiderMsgType::kAck, ack.encode()});
    return signed_by_bob ? sp::sign_batch(2, net.bob, wrapper) : sp::sign_batch(1, net.alice, wrapper);
  }
  sp::EvidenceRefutation refutation_at(sp::Time t, bool with_ack, bool withdraw_by_alice = true,
                                       bool ack_by_bob = true) {
    auto batch = make_withdraw_batch(t, withdraw_by_alice);
    sp::EvidenceRefutation r{{sp::MessageQuote{batch, 0}}, std::nullopt};
    if (with_ack) r.ack = make_ack_for(batch, ack_by_bob);
    return r;
  }
};

}  // namespace

TEST(Evidence, ImportUnprovableWhenAckWasDropped) {
  // Bob's ACK never arrived: Alice cannot substitute anything else.  An
  // unrelated envelope, her own announce, or an empty envelope all fail.
  LossyEvidenceWorld world;
  sp::ImportEvidence evidence = world.import_evidence();
  evidence.ack = world.announce_batch;  // not an ACK at all
  EXPECT_EQ(sp::check_evidence_of_import(evidence, 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
  evidence.ack = sc::SignedEnvelope{};  // lost entirely
  EXPECT_EQ(sp::check_evidence_of_import(evidence, 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
}

TEST(Evidence, ImportAckFromWrongPartyInvalid) {
  // An "ACK" Alice signed herself (Bob's real one was dropped) proves
  // nothing: the checker requires the elector's signature.
  LossyEvidenceWorld world;
  sp::ImportEvidence evidence = world.import_evidence();
  evidence.ack = world.make_ack_for(world.announce_batch, /*signed_by_bob=*/false);
  EXPECT_EQ(sp::check_evidence_of_import(evidence, 1500, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
}

TEST(Evidence, RefutationTimeoutBoundaries) {
  // The refutation window is strictly (t', T): a withdraw stamped exactly
  // at the announce time or exactly at verification time is too late or
  // too early — the evidence stands either way.
  LossyEvidenceWorld world;
  const sp::Time at = 3000;
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), at,
                                         world.refutation_at(1000, false), world.net.keys),
            sp::EvidenceVerdict::kUpheld);  // t'' == t'
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), at,
                                         world.refutation_at(at, false), world.net.keys),
            sp::EvidenceVerdict::kUpheld);  // t'' == T
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), at,
                                         world.refutation_at(at - 1, false), world.net.keys),
            sp::EvidenceVerdict::kRefuted);  // just inside the window
}

TEST(Evidence, SkewedWithdrawTimestampCannotRefuteEarly) {
  // A fast clock cannot manufacture a refutation: a withdraw whose skewed
  // timestamp lands before the announce is outside (t', T).
  LossyEvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), 3000,
                                         world.refutation_at(500, false), world.net.keys),
            sp::EvidenceVerdict::kUpheld);
}

TEST(Evidence, RefutationSignedByWrongPartyIgnored) {
  // Bob forging Alice's withdraw (he cannot sign as her) does not refute.
  LossyEvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_import(world.import_evidence(), 3000,
                                         world.refutation_at(2000, false, /*withdraw_by_alice=*/false),
                                         world.net.keys),
            sp::EvidenceVerdict::kUpheld);
}

TEST(Evidence, ExportRefutationNeedsCounterpartyAck) {
  // Export refutation with the withdraw's ACK dropped, or with an ACK
  // Alice signed herself, fails — Bob's claim stands (§6.3: the refuter
  // must show the counterparty acknowledged the withdraw).
  LossyEvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 3000,
                                         world.refutation_at(2000, false), world.net.keys),
            sp::EvidenceVerdict::kUpheld);
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 3000,
                                         world.refutation_at(2000, true, true, /*ack_by_bob=*/false),
                                         world.net.keys),
            sp::EvidenceVerdict::kUpheld);
}

TEST(Evidence, ExportClaimBeforeAnnounceExistedInvalid) {
  // The fabricated-evidence catalog entry's core: claiming a time at or
  // before the quoted announce's own timestamp is self-refuting.
  LossyEvidenceWorld world;
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 1000, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
  EXPECT_EQ(sp::check_evidence_of_export(world.export_evidence(), 999, std::nullopt, world.net.keys),
            sp::EvidenceVerdict::kInvalid);
}

// ------------------------------------------- mirror-state robustness

TEST(MirrorState, StaleAnnounceCannotRegressNewerInput) {
  // Reordered delivery (retransmission after newer traffic): the mirror
  // orders inputs by sender timestamp, so the late-arriving older
  // announce must be ignored.
  sp::MirrorState state;
  auto newer = sample_announce(2000);
  auto older = sample_announce(1000);
  older.route.as_path = {2, 99};
  state.apply_announce_in(newer, scr::digest20(su::str_bytes("n")));
  state.apply_announce_in(older, scr::digest20(su::str_bytes("o")));
  const sp::InputRecord* input = state.input(1, newer.route.prefix);
  ASSERT_NE(input, nullptr);
  EXPECT_EQ(input->route.as_path, newer.route.as_path);
}

TEST(MirrorState, StaleAnnounceCannotResurrectWithdrawnRoute) {
  // announce(t=1000) … withdraw(t=2000) … duplicate announce(t=1000): the
  // high-water mark survives the withdrawal, so the route stays gone.
  sp::MirrorState state;
  auto announce = sample_announce(1000);
  state.apply_announce_in(announce, scr::digest20(su::str_bytes("a")));
  sp::SpiderWithdraw withdraw{2000, 1, 2, announce.route.prefix};
  state.apply_withdraw_in(withdraw);
  state.apply_announce_in(announce, scr::digest20(su::str_bytes("a")));
  EXPECT_EQ(state.input(1, announce.route.prefix), nullptr);
}

TEST(MirrorState, HighWaterMarksSurviveSerialization) {
  // The guard is part of checkpoints: replay from a checkpoint must make
  // the same accept/ignore decisions live processing made.
  sp::MirrorState state;
  auto announce = sample_announce(2000);
  state.apply_announce_in(announce, scr::digest20(su::str_bytes("a")));
  sp::MirrorState restored = sp::MirrorState::deserialize(state.serialize());
  EXPECT_EQ(restored, state);
  auto stale = sample_announce(1500);
  stale.route.as_path = {2, 99};
  restored.apply_announce_in(stale, scr::digest20(su::str_bytes("s")));
  const sp::InputRecord* input = restored.input(1, announce.route.prefix);
  ASSERT_NE(input, nullptr);
  EXPECT_EQ(input->route.as_path, announce.route.as_path);
}

TEST(MirrorState, ChunkedRoundTripAcrossChunkSizes) {
  // Streamed checkpoints (no contiguous state buffer) must restore the
  // exact same state as the legacy single-buffer encoding, for every
  // chunk target down to the degenerate 1-byte one (one record per
  // section, one section per chunk).
  sp::MirrorState state;
  for (std::uint32_t neighbor = 1; neighbor <= 3; ++neighbor) {
    for (int i = 0; i < 40; ++i) {
      auto a = sample_announce(1000 + i);
      a.from_as = neighbor;
      a.route.prefix = sb::Prefix::parse((std::to_string(10 + neighbor) + "." +
                                          std::to_string(i) + ".0.0/16")
                                             .c_str());
      const std::string tag = std::string("d").append(std::to_string(i));
      state.apply_announce_in(a, scr::digest20(su::str_bytes(tag)));
      auto out = a;
      out.to_as = neighbor;
      out.route.as_path.insert(out.route.as_path.begin(), 2);
      state.apply_announce_out(out);
    }
  }
  for (std::size_t chunk_bytes : {std::size_t{1}, std::size_t{64}, std::size_t{777},
                                  std::size_t{1} << 20}) {
    auto chunks = state.serialize_chunked(chunk_bytes);
    sp::MirrorState restored = sp::MirrorState::deserialize_chunked(chunks);
    EXPECT_EQ(restored, state) << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(restored.serialize(), state.serialize()) << "chunk_bytes=" << chunk_bytes;
    if (chunk_bytes < 1000) {
      EXPECT_GT(chunks.size(), 1u) << "chunk_bytes=" << chunk_bytes;
    }
  }
}

TEST(MirrorState, ChunkedRoundTripPreservesEmptyNeighborGroups) {
  // A neighbor whose last route was withdrawn still appears in the maps
  // (with its high-water marks); count-0 sections keep that through the
  // streamed round trip, exactly as the legacy format does.
  sp::MirrorState state;
  auto announce = sample_announce(1000);
  state.apply_announce_in(announce, scr::digest20(su::str_bytes("a")));
  sp::SpiderWithdraw withdraw{2000, 1, 2, announce.route.prefix};
  state.apply_withdraw_in(withdraw);
  ASSERT_EQ(state.inputs().count(1), 1u);
  ASSERT_TRUE(state.inputs().at(1).empty());
  sp::MirrorState restored = sp::MirrorState::deserialize_chunked(state.serialize_chunked(8));
  EXPECT_EQ(restored, state);
  // The restored high-water mark still rejects the stale resurrection.
  restored.apply_announce_in(announce, scr::digest20(su::str_bytes("a")));
  EXPECT_EQ(restored.input(1, announce.route.prefix), nullptr);
}

TEST(MirrorState, ChunkedDecodeRejectsBadSectionTag) {
  su::ByteWriter w;
  w.u8(7);  // no such section tag
  w.u32(1);
  w.u32(0);
  EXPECT_THROW(sp::MirrorState::deserialize_chunked({w.take()}), su::DecodeError);
}

TEST(LogCheckpoint, EncodeDecodeRoundTripMultiChunk) {
  sp::MirrorState state;
  state.apply_announce_in(sample_announce(1000), scr::digest20(su::str_bytes("a")));
  sp::LogCheckpoint cp;
  cp.timestamp = 4242;
  cp.chunks = state.serialize_chunked(16);
  ASSERT_GT(cp.chunks.size(), 1u);
  sp::LogCheckpoint decoded = sp::LogCheckpoint::decode(cp.encode());
  EXPECT_EQ(decoded.timestamp, cp.timestamp);
  EXPECT_EQ(decoded.chunks, cp.chunks);
  EXPECT_EQ(decoded.state_bytes(), cp.state_bytes());
  EXPECT_EQ(sp::MirrorState::deserialize_chunked(decoded.chunks), state);
}

// ------------------------------------------- §6.4 acceptance window

TEST(RecorderTimeliness, AnnounceAcceptanceWindowIsAsymmetric) {
  sp::RecorderConfig config;  // skew 5 s, ack deadline 2 s, 3 retransmits
  const sp::Time second = 1'000'000;
  const sp::Time now = 100 * second;
  // Future side: bounded by clock skew alone.
  EXPECT_TRUE(sp::announce_timely(now + 5 * second, now, config));
  EXPECT_FALSE(sp::announce_timely(now + 5 * second + 1, now, config));
  // Past side: skew plus the full retransmit budget (5 + 2 * 4 = 13 s) —
  // a batch that needed every retransmission is late by design.
  EXPECT_TRUE(sp::announce_timely(now - 13 * second, now, config));
  EXPECT_FALSE(sp::announce_timely(now - 13 * second - 1, now, config));
}
