// RSA sign/verify, RC4 known-answer vectors, CSPRNG and PRF properties.
#include <gtest/gtest.h>

#include <string>

#include "crypto/hmac.hpp"
#include "crypto/random.hpp"
#include "crypto/rc4.hpp"
#include "crypto/rsa.hpp"
#include "util/rng.hpp"

namespace sc = spider::crypto;
namespace su = spider::util;

namespace {
su::Bytes msg(const std::string& s) { return su::Bytes(s.begin(), s.end()); }

// One shared 1024-bit key for the whole file: keygen is the slow part.
const sc::RsaPrivateKey& test_key() {
  static const sc::RsaPrivateKey key = [] {
    su::SplitMix64 rng(20120813);  // SIGCOMM'12 conference date
    return sc::rsa_generate(1024, rng);
  }();
  return key;
}
}  // namespace

TEST(Rc4, Rfc6229Vector40BitKey) {
  // RFC 6229 test vector, key = 0x0102030405.
  su::Bytes key = {0x01, 0x02, 0x03, 0x04, 0x05};
  sc::Rc4 rc4(key);
  std::uint8_t out[16];
  rc4.keystream(out, 16);
  EXPECT_EQ(su::to_hex(su::ByteSpan{out, 16}), "b2396305f03dc027ccc3524a0a1118a8");
}

TEST(Rc4, Rfc6229Vector128BitKey) {
  su::Bytes key = su::from_hex("0102030405060708090a0b0c0d0e0f10");
  sc::Rc4 rc4(key);
  std::uint8_t out[16];
  rc4.keystream(out, 16);
  EXPECT_EQ(su::to_hex(su::ByteSpan{out, 16}), "9ac7cc9a609d1ef7b2932899cde41b97");
}

TEST(Rc4, ClassicPlaintextVector) {
  // Key "Key", plaintext "Plaintext" -> BBF316E8D940AF0AD3 (classic RC4 KAT).
  su::Bytes key = msg("Key");
  su::Bytes plain = msg("Plaintext");
  sc::Rc4 rc4(key);
  su::Bytes cipher;
  for (std::uint8_t p : plain) cipher.push_back(p ^ rc4.next_byte());
  EXPECT_EQ(su::to_hex(cipher), "bbf316e8d940af0ad3");
}

TEST(Rc4, RejectsEmptyAndOversizeKeys) {
  EXPECT_THROW(sc::Rc4(su::Bytes{}), std::invalid_argument);
  EXPECT_THROW(sc::Rc4(su::Bytes(257, 1)), std::invalid_argument);
}

TEST(Rc4Csprng, DeterministicForSameSeed) {
  auto seed = sc::seed_from_string("seed-a");
  sc::Rc4Csprng a(seed.span()), b(seed.span());
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(Rc4Csprng, DifferentSeedsDiverge) {
  sc::Rc4Csprng a(sc::seed_from_string("seed-a").span());
  sc::Rc4Csprng b(sc::seed_from_string("seed-b").span());
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

TEST(Rc4Csprng, DropsExactly3072Bytes) {
  auto seed = sc::seed_from_string("drop-check");
  sc::Rc4 raw(seed.span());
  std::uint8_t sink[3072];
  raw.keystream(sink, sizeof(sink));
  std::uint8_t expected[16];
  raw.keystream(expected, sizeof(expected));

  sc::Rc4Csprng csprng(seed.span());
  auto got = csprng.bytes(16);
  EXPECT_EQ(su::Bytes(expected, expected + 16), got);
}

TEST(CommitmentPrf, DeterministicAndDomainSeparated) {
  auto seed = sc::seed_from_string("commit-1");
  sc::CommitmentPrf prf(seed);
  constexpr auto kBit = sc::CommitmentPrf::Domain::kBit;
  constexpr auto kDummy = sc::CommitmentPrf::Domain::kDummy;
  EXPECT_EQ(prf.derive3(kBit, 7), prf.derive3(kBit, 7));
  EXPECT_NE(prf.derive3(kBit, 7), prf.derive3(kBit, 8));
  EXPECT_NE(prf.derive3(kBit, 7), prf.derive3(kDummy, 7));
  // The three windows of one output are distinct labels.
  const auto triple = prf.derive3(kBit, 7);
  EXPECT_NE(triple[0], triple[1]);
  EXPECT_NE(triple[1], triple[2]);
  EXPECT_NE(triple[0], triple[2]);
}

TEST(CommitmentPrf, FreshSeedFreshValues) {
  sc::CommitmentPrf a(sc::seed_from_string("commit-1"));
  sc::CommitmentPrf b(sc::seed_from_string("commit-2"));
  for (auto domain : {sc::CommitmentPrf::Domain::kBit, sc::CommitmentPrf::Domain::kDummy}) {
    EXPECT_NE(a.derive3(domain, 0), b.derive3(domain, 0));
  }
}

TEST(Seed, RandomSeedsDiffer) {
  auto a = sc::random_seed();
  auto b = sc::random_seed();
  EXPECT_NE(a.data, b.data);
}

TEST(Rsa, SignVerifyRoundtrip) {
  const auto& key = test_key();
  auto signature = sc::rsa_sign(key, msg("hello bgp"));
  EXPECT_EQ(signature.size(), 128u);  // 1024-bit modulus
  EXPECT_TRUE(sc::rsa_verify(key.public_key(), msg("hello bgp"), signature));
}

TEST(Rsa, VerifyRejectsWrongMessage) {
  const auto& key = test_key();
  auto signature = sc::rsa_sign(key, msg("route A"));
  EXPECT_FALSE(sc::rsa_verify(key.public_key(), msg("route B"), signature));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  const auto& key = test_key();
  auto signature = sc::rsa_sign(key, msg("route A"));
  for (std::size_t pos : {std::size_t{0}, signature.size() / 2, signature.size() - 1}) {
    auto bad = signature;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(sc::rsa_verify(key.public_key(), msg("route A"), bad));
  }
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  const auto& key = test_key();
  auto signature = sc::rsa_sign(key, msg("x"));
  signature.pop_back();
  EXPECT_FALSE(sc::rsa_verify(key.public_key(), msg("x"), signature));
}

TEST(Rsa, VerifyRejectsSignatureGEModulus) {
  const auto& key = test_key();
  auto n_bytes = key.n.to_bytes_be(128);
  EXPECT_FALSE(sc::rsa_verify(key.public_key(), msg("x"), n_bytes));
}

TEST(Rsa, WrongKeyRejects) {
  const auto& key = test_key();
  su::SplitMix64 rng(999);
  auto other = sc::rsa_generate(1024, rng);
  auto signature = sc::rsa_sign(other, msg("hello"));
  EXPECT_FALSE(sc::rsa_verify(key.public_key(), msg("hello"), signature));
}

TEST(Rsa, CrtConsistentWithPlainExponentiation) {
  const auto& key = test_key();
  auto signature = sc::rsa_sign(key, msg("crt-check"));
  // s^e mod n must re-encode the PKCS#1 block; verify() already checks this,
  // but additionally check CRT result equals m^d mod n for the raw value.
  sc::BigInt s = sc::BigInt::from_bytes_be(signature);
  sc::BigInt m = s.mod_exp(key.e, key.n);
  EXPECT_EQ(m.mod_exp(key.d, key.n), s);
}

TEST(Rsa, PublicKeyEncodeDecodeRoundtrip) {
  const auto& key = test_key();
  auto enc = key.public_key().encode();
  auto dec = sc::RsaPublicKey::decode(enc);
  EXPECT_EQ(dec, key.public_key());
}

TEST(Rsa, DeterministicKeygen) {
  su::SplitMix64 a(7), b(7);
  auto ka = sc::rsa_generate(256, a);
  auto kb = sc::rsa_generate(256, b);
  EXPECT_EQ(ka.n, kb.n);
  EXPECT_EQ(ka.d, kb.d);
}

TEST(Rsa, GeneratedModulusHasRequestedBits) {
  su::SplitMix64 rng(11);
  for (std::size_t bits : {256u, 512u}) {
    auto key = sc::rsa_generate(bits, rng);
    EXPECT_EQ(key.n.bit_length(), bits);
    EXPECT_EQ(key.p * key.q, key.n);
  }
}

TEST(RsaScheme, SignerVerifierInterfaces) {
  const auto& key = test_key();
  sc::RsaSigner signer(key);
  sc::RsaVerifier verifier(key.public_key());
  auto signature = signer.sign(msg("interface"));
  EXPECT_EQ(signature.size(), signer.signature_size());
  EXPECT_TRUE(verifier.verify(msg("interface"), signature));
  EXPECT_FALSE(verifier.verify(msg("other"), signature));
}

TEST(HashScheme, SignVerifyRoundtrip) {
  sc::HashSigner signer(msg("shared-key"));
  sc::HashVerifier verifier(msg("shared-key"));
  auto signature = signer.sign(msg("data"));
  EXPECT_EQ(signature.size(), 20u);
  EXPECT_TRUE(verifier.verify(msg("data"), signature));
  EXPECT_FALSE(verifier.verify(msg("tampered"), signature));
  sc::HashVerifier wrong(msg("other-key"));
  EXPECT_FALSE(wrong.verify(msg("data"), signature));
}

// RFC 4231 test vectors for HMAC-SHA-512.
TEST(Hmac, Rfc4231Case1) {
  su::Bytes key(20, 0x0b);
  auto mac = sc::HmacSha512::mac(key, msg("Hi There"));
  EXPECT_EQ(su::to_hex(su::ByteSpan{mac.data(), mac.size()}),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = sc::HmacSha512::mac(msg("Jefe"), msg("what do ya want for nothing?"));
  EXPECT_EQ(su::to_hex(su::ByteSpan{mac.data(), mac.size()}),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554"
            "9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737");
}

TEST(Hmac, Rfc4231Case3) {
  su::Bytes key(20, 0xaa);
  su::Bytes data(50, 0xdd);
  auto mac = sc::HmacSha512::mac(key, data);
  EXPECT_EQ(su::to_hex(su::ByteSpan{mac.data(), mac.size()}),
            "fa73b0089d56a284efb0f0756c890be9b1b5dbdd8ee81a3655f83e33b2279d39"
            "bf3e848279a722c806b485a47e67c807b946a337bee8942674278859e13292fb");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  su::Bytes key(131, 0xaa);  // key longer than the block: hashed first
  auto mac = sc::HmacSha512::mac(key, msg("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(su::to_hex(su::ByteSpan{mac.data(), mac.size()}),
            "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f352"
            "6b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598");
}

TEST(Hmac, StreamingMatchesOneShot) {
  su::Bytes key = msg("streaming-key");
  su::Bytes data = msg("part one and part two");
  sc::HmacSha512 hmac(key);
  hmac.update(su::ByteSpan{data.data(), 8});
  hmac.update(su::ByteSpan{data.data() + 8, data.size() - 8});
  EXPECT_EQ(hmac.finish(), sc::HmacSha512::mac(key, data));
}

TEST(Hmac, Mac20IsPrefix) {
  auto full = sc::HmacSha512::mac(msg("k"), msg("m"));
  auto trunc = sc::HmacSha512::mac20(msg("k"), msg("m"));
  EXPECT_TRUE(std::equal(trunc.begin(), trunc.end(), full.begin()));
}

// --------------------------------------------------------------------------
// Pinned regressions: byte-exact values captured from the original 32-bit
// engine BEFORE the limb-array/Montgomery/CRT rework.  Deterministic keygen
// plus PKCS#1 v1.5's deterministic padding make signatures reproducible, so
// any change to keygen's rng consumption, the padding, or the modular
// exponentiation chain shows up here as a byte diff.
TEST(RsaPinned, KeygenModulusUnchangedAcrossEngineRework) {
  EXPECT_EQ(test_key().n.to_hex(),
            "976872c8f3927bfada5fb5e98d43b6bd17621887c78c768f31e2ead1dd66107a"
            "ccfcb80ddec218a34e5bf8fe6dc3e2d780edf783dee4ce658eb5e0cf8405c65d"
            "40cb9506cd8f9b7d79b26c8225734c953b4222507ba47d62da590d6c5aa9c18e"
            "350c56e9827481d89e430fd36edb76030f898943a883177e32077432e9a25d2b");
  EXPECT_EQ(test_key().e, sc::BigInt{65537});
}

TEST(RsaPinned, ZeroLengthMessageSignature) {
  const auto& key = test_key();
  su::Bytes empty;
  su::Bytes sig = sc::rsa_sign(key, empty);
  EXPECT_EQ(sc::BigInt::from_bytes_be(sig).to_hex(),
            "3d7af69a307427b91af4408158a943688795108a497edd6cf02b75a369406acd"
            "b290d0bc99b06798bc6788dabd6d48ca3415f35e0d4976ebac1f463bae9d98a1"
            "7c7e07d4285727d97450e989939269661e32bff5efa7ed255747b657f44bc679"
            "c3928b3e69cbdf4519387a2764bee8f5f46c5799c31b5e7fda782a657121124e");
  EXPECT_TRUE(sc::rsa_verify(key.public_key(), empty, sig));
}

TEST(RsaPinned, AllZeroMessageSignature) {
  const auto& key = test_key();
  su::Bytes zeros(64, 0x00);
  su::Bytes sig = sc::rsa_sign(key, zeros);
  EXPECT_EQ(sc::BigInt::from_bytes_be(sig).to_hex(),
            "6f301310db3e93160738d6514b28b64c2a5ff0d52e2101730b5e45502464efe2"
            "766b3e7c11bc335b1f88fe565b8a8e46fdfb9cb0828f746d9a29a5e49b447c2c"
            "abc8799e377271e5bb28e0a3153f88d18db67e44cfc7f39b1d7cf49749d71884"
            "31fc00ca3f137418d6d59b3288d59eb9bebdf863b1c12abadc4f48400e101208");
  EXPECT_TRUE(sc::rsa_verify(key.public_key(), zeros, sig));
}

TEST(RsaPinned, ZeroAndEmptyMessagesSignDifferently) {
  // The hash input differs (empty vs 64 zero bytes), so the signatures
  // must too — guards against accidental length-blind hashing.
  const auto& key = test_key();
  EXPECT_NE(sc::rsa_sign(key, su::Bytes{}), sc::rsa_sign(key, su::Bytes(64, 0x00)));
}
