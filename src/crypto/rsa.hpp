// RSA signatures (PKCS#1 v1.5 over SHA-512), from scratch on crypto/bignum.
//
// The paper uses RSA-1024 (§7.1).  Signing uses the CRT speedup; key
// generation uses Miller–Rabin.  Key generation is deterministic given an
// rng, which the test suite uses to share one key set across many tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/bignum.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace spider::crypto {

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  Bytes encode() const;
  static RsaPublicKey decode(ByteSpan data);
  bool operator==(const RsaPublicKey&) const = default;
};

// All CRT components are signing secrets; the taint pass treats every
// value of this type as secret data.
struct RsaPrivateKey {  // spider-taint: secret
  BigInt n, e, d;
  BigInt p, q;        // prime factors
  BigInt dp, dq, qinv;  // CRT exponents and coefficient

  RsaPublicKey public_key() const { return {n, e}; }
};

/// Generates an RSA key pair with a `bits`-bit modulus (e = 65537).
RsaPrivateKey rsa_generate(std::size_t bits, util::SplitMix64& rng);

/// EMSA-PKCS1-v1_5 encoding of SHA-512(message) into `em_len` bytes.
/// Shared by sign/verify here and by the reference signer of the test-only
/// spider_crypto_ref library (crypto/bignum_ref.hpp), so the differential
/// battery compares raw exponentiation engines rather than two copies of
/// the padding code.
Bytes pkcs1_sha512_encode(ByteSpan message, std::size_t em_len);

/// PKCS#1 v1.5 signature over SHA-512(message).
Bytes rsa_sign(const RsaPrivateKey& key, ByteSpan message);

/// Verifies a PKCS#1 v1.5 / SHA-512 signature.
bool rsa_verify(const RsaPublicKey& key, ByteSpan message, ByteSpan signature);

/// One (message, signature) claim in a batch verification.
struct RsaVerifyItem {
  ByteSpan message;
  ByteSpan signature;
};

/// Verifies many PKCS#1 v1.5 / SHA-512 signatures under one public key,
/// amortizing the Montgomery context setup (the divmod-based R^2
/// precomputation) across the batch.  Results are strictly per-item — one
/// bad signature never taints its neighbors — and agree with rsa_verify
/// on every item.  Public-exponent exponentiation is variable-time by
/// design (all inputs are public).
std::vector<bool> rsa_verify_batch(const RsaPublicKey& key,
                                   const std::vector<RsaVerifyItem>& items);

// ---------------------------------------------------------------------------
// Scheme abstraction.  VPref and SPIDeR only need "sign" and "verify"; the
// abstraction lets tests swap in a cheap scheme while benches and examples
// run real RSA-1024 (the paper's configuration).

class Signer {
 public:
  virtual ~Signer() = default;
  virtual Bytes sign(ByteSpan message) const = 0;
  /// Serialized public key, embedded in identities and evidence.
  virtual Bytes public_key() const = 0;
  virtual std::size_t signature_size() const = 0;
};

class Verifier {
 public:
  virtual ~Verifier() = default;
  virtual bool verify(ByteSpan message, ByteSpan signature) const = 0;
};

class RsaSigner final : public Signer {
 public:
  explicit RsaSigner(RsaPrivateKey key) : key_(std::move(key)) {}
  Bytes sign(ByteSpan message) const override { return rsa_sign(key_, message); }
  // spider-taint: declassify(the RSA public half (n, e) is published by design)
  Bytes public_key() const override { return key_.public_key().encode(); }
  std::size_t signature_size() const override { return key_.public_key().modulus_bytes(); }

 private:
  RsaPrivateKey key_;
};

class RsaVerifier final : public Verifier {
 public:
  explicit RsaVerifier(RsaPublicKey key) : key_(std::move(key)) {}
  bool verify(ByteSpan message, ByteSpan signature) const override {
    return rsa_verify(key_, message, signature);
  }

 private:
  RsaPublicKey key_;
};

/// Keyed-hash scheme for tests: sign = HMAC-SHA-512(key, msg) truncated.  Not
/// publicly verifiable crypto — only the matching HashVerifier (sharing the
/// key) accepts it — but it preserves every protocol property the tests
/// exercise while running ~10^4x faster than RSA keygen.
class HashSigner final : public Signer {
 public:
  explicit HashSigner(Bytes key) : key_(std::move(key)) {}
  Bytes sign(ByteSpan message) const override;
  // spider-taint: declassify(test-only scheme: the verifier deliberately shares the MAC key)
  Bytes public_key() const override { return key_; }
  std::size_t signature_size() const override { return 20; }

 private:
  // spider-taint: secret
  Bytes key_;
};

class HashVerifier final : public Verifier {
 public:
  explicit HashVerifier(Bytes key) : key_(std::move(key)) {}
  bool verify(ByteSpan message, ByteSpan signature) const override;

 private:
  Bytes key_;
};

}  // namespace spider::crypto
