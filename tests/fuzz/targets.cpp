// Registers every wire decoder in the codebase with the fuzz harness.
//
// Corpora are built by the same code paths that produce real protocol
// messages, so the mutators start from byte strings whose length fields,
// flags and nesting are initially consistent — that is what lets a bit
// flip or a length inflation land *inside* a structure instead of being
// rejected at byte 0.
#include "harness.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bgp/prefix.hpp"
#include "bgp/route.hpp"
#include "core/commitment.hpp"
#include "core/mtt.hpp"
#include "core/promise.hpp"
#include "core/vpref.hpp"
#include "crypto/bignum_ref.hpp"
#include "crypto/mont.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha2.hpp"
#include "spider/evidence.hpp"
#include "spider/log.hpp"
#include "spider/messages.hpp"
#include "spider/node_wire.hpp"
#include "spider/proof_generator.hpp"
#include "spider/state.hpp"
#include "transport/framing.hpp"
#include "transport/netsim_transport.hpp"
#include "util/serde.hpp"
#include "verify/node_client.hpp"
#include "verify/node_host.hpp"

namespace spider::fuzz {

namespace {

namespace sb = spider::bgp;
namespace sc = spider::core;
namespace sp = spider::proto;
namespace scr = spider::crypto;
namespace su = spider::util;

/// Target for a type with `static T decode(ByteSpan)` and `Bytes encode()`.
template <typename T>
Target simple_target(std::string name, std::vector<Bytes> corpus) {
  Target target;
  target.name = std::move(name);
  target.corpus = std::move(corpus);
  target.decode = [](ByteSpan data) { (void)T::decode(data); };
  target.reencode = [](ByteSpan data) { return T::decode(data).encode(); };
  return target;
}

/// Target for a reader-based decoder (Prefix, Route) wrapped so a whole
/// buffer must be consumed.
template <typename T>
Target reader_target(std::string name, std::vector<Bytes> corpus) {
  Target target;
  target.name = std::move(name);
  target.corpus = std::move(corpus);
  target.decode = [](ByteSpan data) {
    su::ByteReader r(data);
    (void)T::decode(r);
    r.expect_end();
  };
  target.reencode = [](ByteSpan data) {
    su::ByteReader r(data);
    T value = T::decode(r);
    r.expect_end();
    su::ByteWriter w;
    value.encode(w);
    return w.take();
  };
  return target;
}

sb::Route make_route(const char* prefix, std::vector<sb::AsNumber> path) {
  sb::Route route;
  route.prefix = sb::Prefix::parse(prefix);
  route.as_path = std::move(path);
  route.learned_from = route.as_path.empty() ? 0 : route.as_path.front();
  route.origin = sb::Origin::kIgp;
  route.med = 42;
  route.local_pref = 120;
  route.communities = {sb::make_community(2, 100), sb::make_community(7, 30)};
  return route;
}

Bytes encode_route(const sb::Route& route) {
  su::ByteWriter w;
  route.encode(w);
  return w.take();
}

Bytes encode_prefix(const sb::Prefix& prefix) {
  su::ByteWriter w;
  prefix.encode(w);
  return w.take();
}

sc::SignedEnvelope make_envelope(std::uint32_t signer, Bytes payload) {
  sc::SignedEnvelope env;
  env.signer = signer;
  env.payload = std::move(payload);
  env.signature = su::str_bytes("20-byte-ish signature");
  return env;
}

sp::SpiderAnnounce make_spider_announce() {
  sp::SpiderAnnounce announce;
  announce.timestamp = 1'000'000;
  announce.from_as = 3;
  announce.to_as = 5;
  announce.route = make_route("10.20.0.0/16", {3, 9, 14});
  announce.underlying_from = 9;
  announce.underlying_digest = scr::digest20(su::str_bytes("underlying"));
  return announce;
}

sp::SpiderWithdraw make_spider_withdraw() {
  sp::SpiderWithdraw withdraw;
  withdraw.timestamp = 1'200'000;
  withdraw.from_as = 3;
  withdraw.to_as = 5;
  withdraw.prefix = sb::Prefix::parse("10.20.0.0/16");
  return withdraw;
}

sp::SpiderBatch make_batch() {
  sp::SpiderBatch batch;
  batch.parts.push_back({sp::SpiderMsgType::kAnnounce, make_spider_announce().encode()});
  batch.parts.push_back({sp::SpiderMsgType::kWithdraw, make_spider_withdraw().encode()});
  return batch;
}

/// A small MTT plus a proof over it, shared by a few corpora.
struct MttFixture {
  sc::Mtt tree;
  scr::CommitmentPrf prf;
  sc::MttPrefixProof proof;

  MttFixture()
      : tree(sc::Mtt::build({{sb::Prefix::parse("10.0.0.0/8"), {true, false, true, false}},
                             {sb::Prefix::parse("10.1.0.0/16"), {false, true, false, true}}},
                            4)),
        prf(scr::seed_from_string("fuzz-mtt")) {
    tree.compute_labels(prf);
    proof = tree.prove(prf, sb::Prefix::parse("10.0.0.0/8"), {0, 2});
  }
};

const MttFixture& mtt_fixture() {
  static MttFixture fixture;
  return fixture;
}

sc::FlatBitProof make_flat_bit_proof() {
  scr::CommitmentPrf prf(scr::seed_from_string("fuzz-flat"));
  sc::FlatCommitment commitment({true, false, true, true}, prf);
  return commitment.prove(1);
}

sp::MessageQuote make_quote() {
  sp::SpiderBatch batch = make_batch();
  sp::MessageQuote quote;
  quote.batch = make_envelope(3, batch.encode());
  quote.part = 0;
  return quote;
}

/// One signed flush window over four neighbour slots (slot 2 empty) plus
/// a lone width-1 batch, under a keyed-hash signer: the genuine envelopes
/// every check_batch mutation starts from.
struct WindowFixture {
  sc::KeyRegistry keys;
  std::vector<sc::SignedEnvelope> window;
  sc::SignedEnvelope lone;

  WindowFixture() {
    const Bytes key = su::str_bytes("fuzz-window-key");
    scr::HashSigner signer(key);
    keys.add(3, std::make_unique<scr::HashVerifier>(key));
    std::vector<sp::WindowSlot> slots(4);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].salt.fill(static_cast<std::uint8_t>(0x40 + i));
      if (i == 2) {
        slots[i].dummy_leaf = scr::digest20(su::str_bytes("dummy"));
      } else {
        slots[i].payload = make_batch().encode();
      }
    }
    window = sp::sign_window(3, signer, std::move(slots));
    lone = sp::sign_batch(3, signer, make_batch());
  }

  std::vector<Bytes> genuine() const {
    std::vector<Bytes> out;
    for (const sc::SignedEnvelope& envelope : window) out.push_back(envelope.encode());
    out.push_back(lone.encode());
    return out;
  }
};

const WindowFixture& window_fixture() {
  static WindowFixture fixture;
  return fixture;
}

/// Mutation arm over the batch checker: any envelope other than a genuine
/// one must check false, and check_batch must never throw.
void check_batch_arm(ByteSpan data) {
  const sc::SignedEnvelope envelope = sc::SignedEnvelope::decode(data);
  const WindowFixture& fixture = window_fixture();
  bool ok = false;
  try {
    ok = sp::check_batch(envelope, fixture.keys);
  } catch (...) {
    throw std::logic_error("check_batch: threw instead of returning false");
  }
  const std::vector<Bytes> genuine = fixture.genuine();
  const bool is_genuine =
      std::any_of(genuine.begin(), genuine.end(), [&](const Bytes& g) {
        return std::equal(g.begin(), g.end(), data.begin(), data.end());
      });
  if (ok != is_genuine) {
    throw std::logic_error(is_genuine ? "check_batch: rejected a genuine window envelope"
                                      : "check_batch: accepted a corrupted envelope");
  }
}

void register_bgp_targets() {
  registry().push_back(reader_target<sb::Prefix>(
      "prefix", {encode_prefix(sb::Prefix::parse("10.0.0.0/8")),
                 encode_prefix(sb::Prefix::parse("192.168.4.0/22")),
                 encode_prefix(sb::Prefix::parse("0.0.0.0/0")),
                 encode_prefix(sb::Prefix::parse("255.255.255.255/32"))}));

  registry().push_back(reader_target<sb::Route>(
      "route", {encode_route(make_route("10.20.0.0/16", {2, 3, 7})),
                encode_route(make_route("11.0.0.0/8", {})),
                encode_route(make_route("172.16.0.0/12", {1, 2, 3, 4, 5, 6, 7, 8}))}));

  sb::Update update;
  update.announced.push_back(make_route("10.20.0.0/16", {2, 3, 7}));
  update.announced.push_back(make_route("11.0.0.0/8", {4}));
  update.withdrawn.push_back(sb::Prefix::parse("12.0.0.0/8"));
  sb::Update empty_update;
  registry().push_back(
      simple_target<sb::Update>("update", {update.encode(), empty_update.encode()}));
}

void register_core_targets() {
  sc::Promise order = sc::Promise::total_order(5);
  sc::Promise sparse(6);
  sparse.add_preference(0, 3);
  sparse.add_preference(3, 5);
  registry().push_back(simple_target<sc::Promise>(
      "promise", {order.encode(), sparse.encode(), sc::Promise::prefer_customer().encode(),
                  sc::Promise(1).encode()}));

  registry().push_back(
      simple_target<sc::FlatBitProof>("flat_bit_proof", {make_flat_bit_proof().encode()}));

  const MttFixture& mtt = mtt_fixture();
  auto wide = mtt.tree.prove(mtt.prf, sb::Prefix::parse("10.1.0.0/16"), {0, 1, 2, 3});
  registry().push_back(simple_target<sc::MttPrefixProof>(
      "mtt_prefix_proof", {mtt.proof.encode(), wide.encode()}));

  registry().push_back(simple_target<sc::SignedEnvelope>(
      "signed_envelope", {make_envelope(7, su::str_bytes("payload")).encode(),
                          make_envelope(0, {}).encode()}));

  sc::AnnouncePayload announce;
  announce.producer = 1;
  announce.elector = 2;
  announce.round = 3;
  announce.route = make_route("10.20.0.0/16", {2, 3, 7});
  sc::AnnouncePayload null_announce;
  null_announce.producer = 1;
  null_announce.elector = 2;
  null_announce.round = 4;
  registry().push_back(simple_target<sc::AnnouncePayload>(
      "announce_payload", {announce.encode(), null_announce.encode()}));

  sc::AckPayload ack;
  ack.elector = 2;
  ack.round = 3;
  ack.announce_digest = scr::digest20(su::str_bytes("announce"));
  registry().push_back(simple_target<sc::AckPayload>("ack_payload", {ack.encode()}));

  sc::CommitPayload commit;
  commit.elector = 2;
  commit.round = 3;
  commit.num_bits = 4;
  commit.root = scr::digest20(su::str_bytes("root"));
  registry().push_back(simple_target<sc::CommitPayload>("commit_payload", {commit.encode()}));

  sc::OfferPayload offer;
  offer.elector = 2;
  offer.consumer = 9;
  offer.round = 3;
  offer.route = make_route("10.20.0.0/16", {2, 3, 7});
  offer.producer_announce = make_envelope(1, announce.encode());
  sc::OfferPayload null_offer;
  null_offer.elector = 2;
  null_offer.consumer = 9;
  null_offer.round = 4;
  registry().push_back(simple_target<sc::OfferPayload>(
      "offer_payload", {offer.encode(), null_offer.encode()}));

  sc::BitProofPayload bit_proof;
  bit_proof.elector = 2;
  bit_proof.round = 3;
  bit_proof.proof = make_flat_bit_proof();
  registry().push_back(
      simple_target<sc::BitProofPayload>("bit_proof_payload", {bit_proof.encode()}));

  sc::PromisePayload promise_payload;
  promise_payload.elector = 2;
  promise_payload.consumer = 9;
  promise_payload.promise = sc::Promise::total_order(4);
  registry().push_back(
      simple_target<sc::PromisePayload>("promise_payload", {promise_payload.encode()}));

  sc::ProducerChallenge producer_challenge;
  producer_challenge.announce = make_envelope(1, announce.encode());
  producer_challenge.ack = make_envelope(2, ack.encode());
  producer_challenge.received_proof = make_envelope(2, bit_proof.encode());
  sc::ProducerChallenge bare_challenge;
  bare_challenge.announce = make_envelope(1, su::str_bytes("a"));
  bare_challenge.ack = make_envelope(2, su::str_bytes("b"));
  registry().push_back(simple_target<sc::ProducerChallenge>(
      "producer_challenge", {producer_challenge.encode(), bare_challenge.encode()}));

  sc::ConsumerChallenge consumer_challenge;
  consumer_challenge.offer = make_envelope(2, offer.encode());
  consumer_challenge.signed_promise = make_envelope(2, promise_payload.encode());
  consumer_challenge.received_proofs.push_back(make_envelope(2, bit_proof.encode()));
  registry().push_back(simple_target<sc::ConsumerChallenge>(
      "consumer_challenge", {consumer_challenge.encode()}));
}

void register_spider_targets() {
  registry().push_back(
      simple_target<sp::SpiderAnnounce>("spider_announce", {make_spider_announce().encode()}));
  registry().push_back(
      simple_target<sp::SpiderWithdraw>("spider_withdraw", {make_spider_withdraw().encode()}));

  sp::SpiderAck ack;
  ack.timestamp = 1'300'000;
  ack.from_as = 5;
  ack.to_as = 3;
  ack.message_digest = scr::digest20(su::str_bytes("batch"));
  registry().push_back(simple_target<sp::SpiderAck>("spider_ack", {ack.encode()}));

  sp::SpiderCommit commit;
  commit.timestamp = 1'400'000;
  commit.from_as = 5;
  commit.num_classes = 4;
  commit.root = scr::digest20(su::str_bytes("commit-root"));
  registry().push_back(simple_target<sp::SpiderCommit>("spider_commit", {commit.encode()}));

  sp::SpiderBatch empty_batch;
  registry().push_back(simple_target<sp::SpiderBatch>(
      "spider_batch", {make_batch().encode(), empty_batch.encode()}));

  registry().push_back(simple_target<sp::MessageQuote>("message_quote", {make_quote().encode()}));

  const WindowFixture& window = window_fixture();
  registry().push_back(simple_target<sp::WindowProof>(
      "window_proof", {window.window.front().signature, window.lone.signature}));

  Target check;
  check.name = "check_batch";
  check.corpus = window.genuine();
  check.decode = check_batch_arm;
  check.reencode = nullptr;
  check.canonical = false;
  registry().push_back(std::move(check));

  const MttFixture& mtt = mtt_fixture();
  sp::ProducerProofs producer_proofs;
  producer_proofs.commit_time = 2'000'000;
  {
    sp::ProducerProofs::Item item;
    item.prefix = sb::Prefix::parse("10.0.0.0/8");
    item.used_route = make_route("10.0.0.0/8", {3, 9});
    item.cls = 2;
    item.proof = mtt.proof;
    producer_proofs.items.push_back(std::move(item));
  }
  registry().push_back(
      simple_target<sp::ProducerProofs>("producer_proofs", {producer_proofs.encode()}));

  sp::ConsumerProofs consumer_proofs;
  consumer_proofs.commit_time = 2'000'000;
  {
    sp::ConsumerProofs::Item item;
    item.prefix = sb::Prefix::parse("10.0.0.0/8");
    item.offered_route = make_route("10.0.0.0/8", {5, 3, 9});
    item.proof = mtt.proof;
    consumer_proofs.items.push_back(std::move(item));
  }
  registry().push_back(
      simple_target<sp::ConsumerProofs>("consumer_proofs", {consumer_proofs.encode()}));

  // Checkpoint state: serialized via std::map, so accepted inputs may
  // legitimately re-serialize in normalized (sorted, deduplicated) order.
  sp::MirrorState state;
  state.apply_announce_in(make_spider_announce(), scr::digest20(su::str_bytes("part")));
  sp::SpiderAnnounce out = make_spider_announce();
  out.to_as = 8;
  state.apply_announce_out(out);
  Target mirror;
  mirror.name = "mirror_state";
  mirror.corpus = {state.serialize(), sp::MirrorState{}.serialize()};
  mirror.decode = [](ByteSpan data) { (void)sp::MirrorState::deserialize(data); };
  mirror.reencode = [](ByteSpan data) { return sp::MirrorState::deserialize(data).serialize(); };
  mirror.canonical = false;
  registry().push_back(std::move(mirror));

  sp::LogEntry entry;
  entry.seq = 12;
  entry.timestamp = 1'500'000;
  entry.direction = sp::LogDirection::kReceived;
  entry.peer_as = 3;
  entry.message = make_envelope(3, make_batch().encode()).encode();
  entry.signature_bytes = 20;
  entry.authenticator = scr::digest20(su::str_bytes("auth"));
  registry().push_back(simple_target<sp::LogEntry>("log_entry", {entry.encode()}));

  sp::LogCheckpoint checkpoint;
  checkpoint.timestamp = 1'600'000;
  // Small chunk target so the corpus seed exercises the multi-chunk path.
  checkpoint.chunks = state.serialize_chunked(64);
  registry().push_back(
      simple_target<sp::LogCheckpoint>("log_checkpoint", {checkpoint.encode()}));

  sp::CommitmentRecord record;
  record.timestamp = 1'700'000;
  record.seed = scr::seed_from_string("commit-seed");
  record.root = scr::digest20(su::str_bytes("record-root"));
  record.num_classes = 4;
  registry().push_back(
      simple_target<sp::CommitmentRecord>("commitment_record", {record.encode()}));

  sp::ImportEvidence import_evidence;
  import_evidence.announce = sp::QuotedMessage{make_quote()};
  import_evidence.ack = make_envelope(5, make_batch().encode());
  registry().push_back(
      simple_target<sp::ImportEvidence>("import_evidence", {import_evidence.encode()}));

  sp::ExportEvidence export_evidence;
  export_evidence.announce = sp::QuotedMessage{make_quote()};
  registry().push_back(
      simple_target<sp::ExportEvidence>("export_evidence", {export_evidence.encode()}));

  sp::EvidenceRefutation refutation;
  refutation.withdraw = sp::QuotedMessage{make_quote()};
  refutation.ack = make_envelope(5, make_batch().encode());
  sp::EvidenceRefutation bare_refutation;
  bare_refutation.withdraw = sp::QuotedMessage{make_quote()};
  registry().push_back(simple_target<sp::EvidenceRefutation>(
      "evidence_refutation", {refutation.encode(), bare_refutation.encode()}));
}

void register_node_wire_targets() {
  sp::NodeFrame envelope{sp::NodeFrameType::kEnvelope,
                         make_envelope(5, make_batch().encode()).encode()};
  sp::NodeFrame shutdown{sp::NodeFrameType::kShutdown, {}};
  registry().push_back(
      simple_target<sp::NodeFrame>("node_frame", {envelope.encode(), shutdown.encode()}));

  sp::InjectFrame inject;
  inject.seq = 77;
  inject.sent_at = 1'800'000;
  inject.update.announced.push_back(make_route("10.20.0.0/16", {1000, 64496}));
  registry().push_back(simple_target<sp::InjectFrame>("inject_frame", {inject.encode()}));

  sp::StatsFrame stats;
  stats.token = 42;
  stats.updates_mirrored = 100'000;
  stats.commitments_made = 12;
  stats.alarms = 1;
  stats.log_entries = 3'456;
  registry().push_back(simple_target<sp::StatsFrame>("stats_frame", {stats.encode()}));

  sp::LogSegmentFrame entries_segment;
  entries_segment.kind = sp::LogSegmentFrame::kEntries;
  sp::LogEntry entry;
  entry.timestamp = 1'500'000;
  entry.peer_as = 3;
  entry.message = make_envelope(3, make_batch().encode()).encode();
  entries_segment.records = {entry.encode(), entry.encode()};
  sp::LogSegmentFrame empty_commitments;
  empty_commitments.kind = sp::LogSegmentFrame::kCommitments;
  registry().push_back(simple_target<sp::LogSegmentFrame>(
      "log_segment_frame", {entries_segment.encode(), empty_commitments.encode()}));

  sp::ProofRequestFrame proof_request;
  proof_request.elector = 5;
  proof_request.commit_time = 2'000'000;
  proof_request.consumer = 2;
  sp::ProofRequestFrame round_request = proof_request;
  round_request.round = 3;
  round_request.round_count = 8;
  registry().push_back(simple_target<sp::ProofRequestFrame>(
      "proof_request_frame", {proof_request.encode(), round_request.encode()}));

  sp::ProofBundleFrame bundle;
  bundle.elector = 5;
  bundle.commit_time = 2'000'000;
  bundle.consumer = 2;
  bundle.root_matches = 1;
  bundle.producer_proofs = sp::ProducerProofs{}.encode();
  bundle.consumer_proofs = sp::ConsumerProofs{}.encode();
  sp::ProofBundleFrame round_bundle = bundle;
  round_bundle.round = 3;
  round_bundle.round_count = 8;
  registry().push_back(simple_target<sp::ProofBundleFrame>(
      "proof_bundle_frame", {bundle.encode(), round_bundle.encode()}));

  sp::CheckResultFrame check_result;
  check_result.ok = 1;
  check_result.producer_ok = 1;
  check_result.consumer_ok = 1;
  check_result.root_matches = 1;
  check_result.detail = "clean: 4096 imports checked";
  registry().push_back(
      simple_target<sp::CheckResultFrame>("check_result_frame", {check_result.encode()}));
}

/// The three node roles (recorder AS 5, checker AS 2, proof generator
/// 905 for AS 5) on one simulator, wired like a node deployment: the
/// recorder peers with the checker and serves its log to the proof
/// generator.  Fuzzed frames reach each role through its NodeEndpoint.
struct NodeFixture {
  static constexpr std::uint32_t kChecker = 2, kRecorder = 5, kProofgen = 905, kClient = 1000;
  netsim::Simulator sim;
  spider::transport::NetsimTransport checker_net{sim}, recorder_net{sim}, proofgen_net{sim},
      client_net{sim};  // the client drops every reply
  netsim::NodeId checker_node, recorder_node, proofgen_node, client_node;
  std::unique_ptr<spider::verify::NodeHost> checker, recorder, proofgen;

  NodeFixture() {
    namespace sv = spider::verify;
    checker_node = sim.add_node(checker_net, "checker");
    recorder_node = sim.add_node(recorder_net, "recorder");
    proofgen_node = sim.add_node(proofgen_net, "proofgen");
    client_node = sim.add_node(client_net, "client");
    sim.connect(checker_node, recorder_node, 1'000);
    sim.connect(proofgen_node, recorder_node, 1'000);
    checker_net.register_peer(kRecorder, recorder_node);
    recorder_net.register_peer(kChecker, checker_node);
    recorder_net.register_peer(kProofgen, proofgen_node);
    proofgen_net.register_peer(kRecorder, recorder_node);
    for (auto [net, node] : {std::pair{&checker_net, checker_node}, {&recorder_net, recorder_node},
                             {&proofgen_net, proofgen_node}}) {
      sim.connect(client_node, node, 1'000);
      net->register_peer(kClient, client_node);
    }

    auto config = [](sv::NodeRole role, std::uint32_t id, std::uint32_t neighbor) {
      sv::NodeConfig c;
      c.role = role;
      c.id = id;
      c.neighbors = {neighbor};
      c.num_classes = 8;
      c.commit_interval = 20'000;
      c.batch_window = 2'000;
      return c;
    };
    checker = std::make_unique<sv::NodeHost>(checker_net,
                                             config(sv::NodeRole::kChecker, kChecker, kRecorder));
    sv::NodeConfig rc = config(sv::NodeRole::kRecorder, kRecorder, kChecker);
    rc.trusted_log_peers = {kProofgen};
    recorder = std::make_unique<sv::NodeHost>(recorder_net, rc);
    sv::NodeConfig pc = config(sv::NodeRole::kProofgen, kProofgen, kChecker);
    pc.elector = kRecorder;
    proofgen = std::make_unique<sv::NodeHost>(proofgen_net, pc);
  }
};

/// Input: one frame-type byte (taken modulo the type range) and the frame
/// body, so every mutation reaches a node.  The NodeFrame goes to every
/// role through its NodeEndpoint, then the deployment runs for a few
/// milliseconds (commitments, log transfers, checks).  A node must never
/// throw.  Log frames reach the proof generator from the recorder's node.
void node_control_check(ByteSpan data) {
  if (data.empty()) throw su::DecodeError("node_control: empty input");
  constexpr auto kTypes = static_cast<std::uint8_t>(sp::NodeFrameType::kShutdown);
  sp::NodeFrame frame;
  frame.type = static_cast<sp::NodeFrameType>(1 + data[0] % kTypes);
  frame.body.assign(data.begin() + 1, data.end());
  const Bytes wire = frame.encode();
  static NodeFixture fixture;
  const bool log_frame = frame.type == sp::NodeFrameType::kLogSegment ||
                         frame.type == sp::NodeFrameType::kLogEnd;
  try {
    fixture.checker_net.handle_message(fixture.client_node, wire);
    fixture.recorder_net.handle_message(fixture.client_node, wire);
    fixture.proofgen_net.handle_message(log_frame ? fixture.recorder_node : fixture.client_node,
                                        wire);
    fixture.sim.run_until(fixture.sim.now() + 5'000);
  } catch (const std::exception& e) {
    throw std::logic_error(std::string("node_control: a node threw: ") + e.what());
  }
}

void register_node_control_target() {
  sp::ProofBundleFrame bundle;
  bundle.elector = NodeFixture::kRecorder;
  bundle.commit_time = 20'000;
  bundle.consumer = NodeFixture::kChecker;
  bundle.round_count = 2;
  bundle.root_matches = 1;
  sp::ConsumerProofs consumer;
  consumer.items.push_back({sb::Prefix::parse("10.0.0.0/8"), make_route("10.0.0.0/8", {5, 1000}),
                            mtt_fixture().proof});
  bundle.producer_proofs = sp::ProducerProofs{}.encode();
  bundle.consumer_proofs = consumer.encode();

  sp::InjectFrame inject;
  inject.update.announced.push_back(make_route("10.20.0.0/16", {1000, 64496}));
  inject.update.withdrawn.push_back(sb::Prefix::parse("10.30.0.0/16"));
  su::ByteWriter token;
  token.u64(9);
  sp::ProofRequestFrame request;
  request.elector = NodeFixture::kRecorder;
  request.commit_time = 20'000;
  request.consumer = NodeFixture::kChecker;
  sp::LogSegmentFrame segment;
  sp::LogEntry entry;
  entry.timestamp = 15'000;
  entry.peer_as = 1000;
  entry.message = make_envelope(5, make_batch().encode()).encode();
  segment.records = {entry.encode()};

  const std::vector<sp::NodeFrame> frames = {
      {sp::NodeFrameType::kCheckRequest, bundle.encode()},
      {sp::NodeFrameType::kInject, inject.encode()},
      {sp::NodeFrameType::kStatsRequest, token.take()},
      {sp::NodeFrameType::kSubscribeCommits, {}},
      {sp::NodeFrameType::kLogRequest, {}},
      {sp::NodeFrameType::kProofRequest, request.encode()},
      {sp::NodeFrameType::kLogSegment, segment.encode()},
      {sp::NodeFrameType::kLogEnd, {}},
      {sp::NodeFrameType::kEnvelope, make_envelope(2, make_batch().encode()).encode()},
      {sp::NodeFrameType::kShutdown, {}},
  };
  Target target;
  target.name = "node_control";
  for (const sp::NodeFrame& frame : frames) {
    Bytes input{static_cast<std::uint8_t>(static_cast<std::uint8_t>(frame.type) - 1)};
    input.insert(input.end(), frame.body.begin(), frame.body.end());
    target.corpus.push_back(std::move(input));
  }
  target.decode = node_control_check;
  target.reencode = nullptr;
  target.canonical = false;
  registry().push_back(std::move(target));
}

/// A NodeClient and the node its replies come from, on one simulator.
struct ClientFixture {
  netsim::Simulator sim;
  spider::transport::NetsimTransport client_net{sim}, node_net{sim};
  spider::verify::NodeClient client{client_net, [] {}};  // never waits here
  netsim::NodeId node = 0;

  ClientFixture() {
    const netsim::NodeId client_node = sim.add_node(client_net, "client");
    node = sim.add_node(node_net, "node");
    sim.connect(client_node, node, 1'000);
    client_net.register_peer(NodeFixture::kRecorder, node);
  }
};

/// The reply types a client receives, plus one (kInject) no request
/// produces.
constexpr sp::NodeFrameType kClientReplies[] = {
    sp::NodeFrameType::kStats, sp::NodeFrameType::kCommitNotify, sp::NodeFrameType::kProofBundle,
    sp::NodeFrameType::kCheckResult, sp::NodeFrameType::kInject};

/// Input: one byte choosing a reply type, then the body.  The client must
/// never throw, and must count the frame as dropped exactly when its body
/// does not decode as that reply or the type is unexpected.
void node_client_check(ByteSpan data) {
  if (data.empty()) throw su::DecodeError("node_client: empty input");
  sp::NodeFrame frame;
  frame.type = kClientReplies[data[0] % std::size(kClientReplies)];
  frame.body.assign(data.begin() + 1, data.end());
  bool accepted = true;
  try {
    switch (frame.type) {
      case sp::NodeFrameType::kStats:
        (void)sp::StatsFrame::decode(frame.body);
        break;
      case sp::NodeFrameType::kCommitNotify:
        (void)sp::SpiderCommit::decode(frame.body);
        break;
      case sp::NodeFrameType::kProofBundle:
        (void)sp::ProofBundleFrame::decode(frame.body);
        break;
      case sp::NodeFrameType::kCheckResult:
        (void)sp::CheckResultFrame::decode(frame.body);
        break;
      default:
        accepted = false;
    }
  } catch (const su::DecodeError&) {
    accepted = false;
  }
  static ClientFixture fixture;
  const std::uint64_t dropped_before = fixture.client.frames_dropped();
  try {
    fixture.client_net.handle_message(fixture.node, frame.encode());
  } catch (const std::exception& e) {
    throw std::logic_error(std::string("node_client: the client threw: ") + e.what());
  }
  if (fixture.client.frames_dropped() - dropped_before != (accepted ? 0u : 1u)) {
    throw std::logic_error(accepted ? "node_client: a valid reply was dropped"
                                    : "node_client: a bad reply was not counted as dropped");
  }
}

void register_node_client_target() {
  sp::StatsFrame stats;
  stats.token = 3;
  stats.updates_mirrored = 256;
  sp::SpiderCommit commit;
  commit.timestamp = 20'000;
  commit.from_as = NodeFixture::kRecorder;
  commit.num_classes = 8;
  sp::ProofBundleFrame bundle;
  bundle.elector = NodeFixture::kRecorder;
  bundle.commit_time = 20'000;
  bundle.consumer = NodeFixture::kChecker;
  bundle.round = 1;
  bundle.round_count = 4;
  bundle.root_matches = 1;
  bundle.producer_proofs = sp::ProducerProofs{}.encode();
  bundle.consumer_proofs = sp::ConsumerProofs{}.encode();
  sp::CheckResultFrame result;
  result.ok = result.producer_ok = result.consumer_ok = result.root_matches = 1;
  result.detail = "clean: 64 imports checked";
  sp::InjectFrame inject;
  inject.update.announced.push_back(make_route("10.20.0.0/16", {1000, 64496}));

  const Bytes bodies[] = {stats.encode(), commit.encode(), bundle.encode(), result.encode(),
                          inject.encode()};
  Target target;
  target.name = "node_client";
  for (std::uint8_t type = 0; type < std::size(bodies); ++type) {
    Bytes input{type};
    input.insert(input.end(), bodies[type].begin(), bodies[type].end());
    target.corpus.push_back(std::move(input));
  }
  target.decode = node_client_check;
  target.reencode = nullptr;
  target.canonical = false;
  registry().push_back(std::move(target));
}

/// Segmentation-independence oracle over the stream-frame reassembler: the
/// input chooses a segmentation of a byte stream, which is replayed both
/// in those segments and byte-at-a-time.  Frames are drained after every
/// feed.  Error timing is allowed to differ — feed() faults a bad header
/// (or a buffered-bytes overflow, which large segments can hit and 1-byte
/// segments cannot) as soon as it sees it, truncating the delivered
/// sequence earlier in coarse runs — so the invariant is prefix agreement:
/// every frame both runs deliver must match byte-for-byte and in order,
/// and two clean runs must deliver identical sequences.
void frame_reassembly_check(ByteSpan data) {
  namespace st = spider::transport;
  su::ByteReader r(data);
  const std::size_t nsegs = r.u8() % std::size_t{32};
  std::vector<std::size_t> seg_lens;
  for (std::size_t i = 0; i < nsegs && r.remaining() > 0; ++i) seg_lens.push_back(r.u8());
  const Bytes stream(data.begin() + static_cast<std::ptrdiff_t>(data.size() - r.remaining()),
                     data.end());

  const st::FrameLimits limits{.max_frame_bytes = 4096, .max_buffered_bytes = 8192};
  auto run = [&](const std::vector<std::size_t>& segments) {
    std::pair<bool, std::vector<Bytes>> out{true, {}};
    st::FrameDecoder decoder(limits);
    std::size_t pos = 0;
    try {
      auto feed = [&](std::size_t count) {
        count = std::min(count, stream.size() - pos);
        decoder.feed(ByteSpan(stream.data() + pos, count));
        pos += count;
        while (auto frame = decoder.next()) out.second.push_back(std::move(*frame));
      };
      for (std::size_t len : segments) feed(len);
      feed(stream.size() - pos);  // whatever the segment list didn't cover
    } catch (const su::DecodeError&) {
      out.first = false;
    }
    return out;
  };

  const auto chosen = run(seg_lens);
  const auto bytewise = run(std::vector<std::size_t>(stream.size(), 1));
  const auto& a = chosen.second;
  const auto& b = bytewise.second;
  const std::size_t common = std::min(a.size(), b.size());
  if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(common), b.begin())) {
    throw std::logic_error("frame_reassembly: delivered frames depend on segmentation");
  }
  if (chosen.first && bytewise.first && a.size() != b.size()) {
    throw std::logic_error("frame_reassembly: clean runs delivered different frame counts");
  }
}

void register_transport_targets() {
  register_node_wire_targets();
  register_node_control_target();
  register_node_client_target();

  // Corpus: three framed payloads, split as 2 listed segments + remainder.
  Bytes stream;
  for (const char* text : {"alpha", "beta-beta", ""}) {
    const Bytes payload = su::str_bytes(text);
    std::uint8_t header[spider::transport::kFrameHeaderBytes];
    spider::transport::write_frame_header(header, payload.size(), {});
    stream.insert(stream.end(), header, header + sizeof(header));
    stream.insert(stream.end(), payload.begin(), payload.end());
  }
  Bytes input{2, 5, 9};  // 2 listed segments, then the remainder in one go
  input.insert(input.end(), stream.begin(), stream.end());

  Target reassembly;
  reassembly.name = "frame_reassembly";
  reassembly.corpus = {input};
  reassembly.decode = frame_reassembly_check;
  reassembly.reencode = nullptr;
  reassembly.canonical = false;
  registry().push_back(std::move(reassembly));
}

/// Differential oracle over the fast bignum/Montgomery/CRT kernels: the
/// input bytes pick an operation and supply raw operands, and the fast
/// path must agree with the retained reference engines on every input the
/// mutators can construct.  Short inputs reject via DecodeError (the
/// harness's clean-rejection path); a fast-vs-reference disagreement
/// throws std::logic_error, which the harness reports as a failure with
/// the offending bytes for `--repro`.
void crypto_diff_check(ByteSpan data) {
  su::ByteReader r(data);
  switch (r.u8() % 4) {
    case 0: {  // Knuth-D divmod vs the 16-bit-digit schoolbook reference
      const std::size_t un = r.u8() % std::size_t{24} + 1;  // dividend 64-bit limbs
      const std::size_t vn = r.u8() % un + 1;               // divisor never wider
      const scr::BigInt u = scr::BigInt::from_bytes_be(r.raw(un * 8));
      scr::BigInt v = scr::BigInt::from_bytes_be(r.raw(vn * 8));
      if (v.is_zero()) v = scr::BigInt{1};
      const auto fast = u.divmod(v);
      const auto slow = scr::ref::divmod_simple(u, v);
      if (fast.quotient != slow.quotient || fast.remainder != slow.remainder) {
        throw std::logic_error("crypto_diff: divmod disagrees with reference");
      }
      if (fast.quotient * v + fast.remainder != u || fast.remainder >= v) {
        throw std::logic_error("crypto_diff: divmod violates the Euclidean identity");
      }
      break;
    }
    case 1: {  // windowed Montgomery exponentiation vs the seed 32-bit ladder
      const std::size_t nn = r.u8() % std::size_t{8} + 1;  // modulus 64-bit limbs
      scr::BigInt n = scr::BigInt::from_bytes_be(r.raw(nn * 8));
      if ((n % scr::BigInt{2}).is_zero()) n = n + scr::BigInt{1};  // MontCtx needs odd
      if (n <= scr::BigInt{1}) n = scr::BigInt{3};
      const scr::BigInt base = scr::BigInt::from_bytes_be(r.raw(nn * 8));
      const std::size_t en = r.u8() % std::size_t{2} + 1;
      const scr::BigInt e = scr::BigInt::from_bytes_be(r.raw(en * 8));
      const scr::MontCtx ctx(n);
      if (ctx.exp(base, e) != scr::ref::mod_exp32(base, e, n)) {
        throw std::logic_error("crypto_diff: Montgomery exp disagrees with mod_exp32");
      }
      break;
    }
    case 2: {  // RSA-CRT signing vs the verbatim seed signer, cross-verified
      static const scr::RsaPrivateKey key = [] {
        su::SplitMix64 rng(424242);  // 768-bit: smallest PKCS#1/SHA-512 modulus
        return scr::rsa_generate(768, rng);
      }();
      const Bytes msg = r.raw(std::min<std::size_t>(r.remaining(), 64));
      const Bytes sig = scr::rsa_sign(key, msg);
      if (sig != scr::ref::rsa_sign_seed(key, msg)) {
        throw std::logic_error("crypto_diff: CRT signature disagrees with seed signer");
      }
      if (!scr::rsa_verify(key.public_key(), msg, sig) ||
          !scr::ref::rsa_verify_seed(key.public_key(), msg, sig)) {
        throw std::logic_error("crypto_diff: signature rejected by a verifier");
      }
      break;
    }
    default: {  // constant-time ladder on the 512-bit (width-8) kernel vs the seed ladder
      // Top bit and low bit forced: exactly 8 limbs, odd.  The RSA arm's
      // 768-bit key has 6-limb CRT halves, so only this arm reaches width 8.
      Bytes modulus = r.raw(8 * 8);
      modulus.front() |= 0x80;
      modulus.back() |= 0x01;
      const scr::BigInt n = scr::BigInt::from_bytes_be(modulus);
      const scr::BigInt base = scr::BigInt::from_bytes_be(r.raw(8 * 8));
      const std::size_t en = r.u8() % std::size_t{8} + 1;
      const scr::BigInt e = scr::BigInt::from_bytes_be(r.raw(en * 8));
      const scr::MontCtx ctx(n);
      if (ctx.exp_ct(base, e) != scr::ref::mod_exp32(base, e, n)) {
        throw std::logic_error("crypto_diff: 512-bit exp_ct disagrees with mod_exp32");
      }
      break;
    }
  }
}

void register_crypto_targets() {
  scr::RsaPublicKey key;
  key.n = scr::BigInt::from_bytes_be(su::str_bytes("\x9a\x3f\x52\xee\x01\x77\xc2\x19"));
  key.e = scr::BigInt{65537};
  scr::RsaPublicKey small;
  small.n = scr::BigInt{3233};
  small.e = scr::BigInt{17};
  registry().push_back(
      simple_target<scr::RsaPublicKey>("rsa_public_key", {key.encode(), small.encode()}));

  // One corpus entry per operation so the mutators start inside each arm's
  // operand structure.  Not a wire format: nothing to re-encode.
  util::SplitMix64 rng(0x5eedc0de);
  const auto rand_bytes = [&rng](std::size_t count) {
    Bytes out(count);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
    return out;
  };
  const auto cat = [](Bytes head, const Bytes& tail) {
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
  };
  Target diff;
  diff.name = "crypto_diff";
  diff.corpus = {
      cat(Bytes{0, 10, 4}, rand_bytes(11 * 8 + 5 * 8)),  // divmod: 11-limb / 5-limb
      // mont exp: 4-limb modulus, 4-limb base, 2-limb exponent
      cat(cat(Bytes{1, 3}, rand_bytes(4 * 8 + 4 * 8)), cat(Bytes{1}, rand_bytes(2 * 8))),
      cat(Bytes{2}, rand_bytes(41)),  // CRT sign over a PRF-message-sized payload
      // exp_ct at 8 limbs: modulus, base, 8-limb exponent
      cat(cat(Bytes{3}, rand_bytes(8 * 8 + 8 * 8)), cat(Bytes{7}, rand_bytes(8 * 8))),
  };
  diff.decode = crypto_diff_check;
  diff.reencode = nullptr;
  diff.canonical = false;
  registry().push_back(std::move(diff));
}

}  // namespace

void register_all_targets() {
  if (!registry().empty()) return;
  register_bgp_targets();
  register_core_targets();
  register_spider_targets();
  register_transport_targets();
  register_crypto_targets();
}

}  // namespace spider::fuzz
