#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/sha1.hpp"
#include "util/bytes.hpp"
#include "util/serial.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;
using util::to_bytes;

// Key generation dominates test time; share one deterministic key.
const RsaKeyPair& test_key() {
  static const RsaKeyPair kp = [] {
    auto rng = HmacDrbg::from_seed(4242);
    return rsa_generate(1024, rng);
  }();
  return kp;
}

TEST(RsaTest, KeyInternalConsistency) {
  const auto& kp = test_key();
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.priv.n);
  EXPECT_EQ(kp.priv.n.bit_length(), 1024u);
  BigInt phi = (kp.priv.p - BigInt(1)) * (kp.priv.q - BigInt(1));
  EXPECT_EQ((kp.priv.d * kp.priv.e) % phi, BigInt(1));
  EXPECT_EQ((kp.priv.qinv * kp.priv.q) % kp.priv.p, BigInt(1));
  EXPECT_EQ(kp.pub.n, kp.priv.n);
}

TEST(RsaTest, SignVerifySha1RoundTrip) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("GlobeDoc integrity certificate body");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  EXPECT_EQ(sig.size(), kp.pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, sig));
}

TEST(RsaTest, SignVerifySha256RoundTrip) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("identity certificate body");
  Bytes sig = rsa_sign_sha256(kp.priv, msg);
  EXPECT_TRUE(rsa_verify_sha256(kp.pub, msg, sig));
  // Cross-algorithm confusion must fail.
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, sig));
}

TEST(RsaTest, TamperedMessageRejected) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("original content");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  Bytes tampered = to_bytes("original Content");
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, tampered, sig));
}

TEST(RsaTest, TamperedSignatureRejected) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("some message");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  for (std::size_t pos : {std::size_t{0}, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, bad)) << "pos=" << pos;
  }
}

TEST(RsaTest, WrongKeyRejected) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(999);
  RsaKeyPair other = rsa_generate(1024, rng);
  Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  EXPECT_FALSE(rsa_verify_sha1(other.pub, msg, sig));
}

TEST(RsaTest, WrongSizeSignatureRejected) {
  const auto& kp = test_key();
  Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_sha1(kp.priv, msg);
  Bytes truncated(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, truncated));
  Bytes extended = sig;
  extended.push_back(0);
  EXPECT_FALSE(rsa_verify_sha1(kp.pub, msg, extended));
}

TEST(RsaTest, EncryptDecryptRoundTrip) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(7);
  Bytes msg = to_bytes("pre-master secret 0123456789abcdef");
  auto ct = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(ct.is_ok());
  EXPECT_EQ(ct->size(), kp.pub.modulus_bytes());
  auto pt = rsa_decrypt(kp.priv, *ct);
  ASSERT_TRUE(pt.is_ok());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaTest, EncryptionIsRandomized) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(8);
  Bytes msg = to_bytes("same message");
  auto a = rsa_encrypt(kp.pub, msg, rng);
  auto b = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(*a, *b);
}

TEST(RsaTest, OversizedPlaintextRejected) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(9);
  Bytes too_big(kp.pub.modulus_bytes() - 10, 0x41);
  auto r = rsa_encrypt(kp.pub, too_big, rng);
  EXPECT_EQ(r.code(), util::ErrorCode::kInvalidArgument);
}

TEST(RsaTest, CorruptCiphertextRejectedGracefully) {
  const auto& kp = test_key();
  auto rng = HmacDrbg::from_seed(10);
  auto ct = rsa_encrypt(kp.pub, to_bytes("secret"), rng);
  ASSERT_TRUE(ct.is_ok());
  Bytes bad = *ct;
  bad[5] ^= 0xff;
  auto pt = rsa_decrypt(kp.priv, bad);
  if (pt.is_ok()) {
    // Padding survived by chance (possible but wildly unlikely); payload
    // must still differ.
    EXPECT_NE(*pt, to_bytes("secret"));
  } else {
    EXPECT_EQ(pt.code(), util::ErrorCode::kProtocol);
  }
}

TEST(RsaTest, DecryptRejectsWrongLength) {
  const auto& kp = test_key();
  Bytes short_ct(kp.pub.modulus_bytes() - 1, 1);
  EXPECT_EQ(rsa_decrypt(kp.priv, short_ct).code(), util::ErrorCode::kInvalidArgument);
}

TEST(RsaTest, PublicKeySerializationRoundTrip) {
  const auto& kp = test_key();
  Bytes wire = kp.pub.serialize();
  auto parsed = RsaPublicKey::parse(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, kp.pub);
}

TEST(RsaTest, PublicKeyParseRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::parse(to_bytes("not a key")).is_ok());
  EXPECT_FALSE(RsaPublicKey::parse(Bytes{}).is_ok());
  // Trailing garbage after a valid key.
  Bytes wire = test_key().pub.serialize();
  wire.push_back(0);
  EXPECT_FALSE(RsaPublicKey::parse(wire).is_ok());
}

TEST(RsaTest, PrivateKeySerializationRoundTrip) {
  const auto& kp = test_key();
  Bytes wire = kp.priv.serialize();
  auto parsed = RsaPrivateKey::parse(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->n, kp.priv.n);
  EXPECT_EQ(parsed->d, kp.priv.d);
  // The parsed key must still sign correctly.
  Bytes msg = to_bytes("check");
  EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, rsa_sign_sha1(*parsed, msg)));
}

TEST(RsaTest, DeterministicKeygenFromSeed) {
  auto r1 = HmacDrbg::from_seed(31337);
  auto r2 = HmacDrbg::from_seed(31337);
  RsaKeyPair a = rsa_generate(512, r1);
  RsaKeyPair b = rsa_generate(512, r2);
  EXPECT_EQ(a.pub, b.pub);
}

// Known-answer pins.  Keys drawn from a seeded DRBG feed OIDs, the
// deterministic sim series and e2ebench's fixed per-slot keys, so a change
// in the arithmetic layer must not move a generated key or a signature by
// one bit.
TEST(RsaKnownAnswerTest, Keygen1024FromSeed4242) {
  EXPECT_EQ(util::hex_encode(Sha1::digest_bytes(test_key().pub.serialize())),
            "7929d1230406db46290a2d55e149b8bed45df684");
}

TEST(RsaKnownAnswerTest, Keygen512FromSeed31337) {
  auto rng = HmacDrbg::from_seed(31337);
  RsaKeyPair kp = rsa_generate(512, rng);
  EXPECT_EQ(util::hex_encode(Sha1::digest_bytes(kp.pub.serialize())),
            "2234fc4ea3c45851c657ed1eb83d4bcd61c675ed");
}

TEST(RsaKnownAnswerTest, Sha1SignatureBytes) {
  Bytes sig = rsa_sign_sha1(test_key().priv, to_bytes("GlobeDoc known-answer message"));
  EXPECT_EQ(util::hex_encode(sig),
            "45e1938a1c7c532deaf6a64b85b17b05aa698c97272a7d908e6fc89b625d63ee"
            "2d057036c2d6192caa1ba5c6c646f42ea9b5d5d330cffb4b13760b2d0a84ab7d"
            "53a83ce678746bd056c7cb1987e100f8884a165889f4d903bf4be00fd0ca73ff"
            "aa92a05e6ed5830dbeb910d2665fc8c5de500a10119345b31df2e3be53154b5f");
}

TEST(RsaTest, SmallKeySignVerify) {
  auto rng = HmacDrbg::from_seed(606);
  RsaKeyPair kp = rsa_generate(512, rng);
  Bytes msg = to_bytes("small key message");
  EXPECT_TRUE(rsa_verify_sha1(kp.pub, msg, rsa_sign_sha1(kp.priv, msg)));
  EXPECT_TRUE(rsa_verify_sha256(kp.pub, msg, rsa_sign_sha256(kp.priv, msg)));
}

TEST(RsaTest, RejectsTooSmallModulusRequest) {
  auto rng = HmacDrbg::from_seed(1);
  EXPECT_THROW(rsa_generate(128, rng), std::invalid_argument);
}


TEST(RsaParseTest, RejectsOversizedModulus) {
  // A wire key claiming a modulus beyond kMaxRsaModulusBytes (8192 bits)
  // is a protocol error before BigInt::from_bytes materializes it; every
  // downstream modulus_bytes()-sized buffer stays capped by construction.
  util::Writer w;
  w.bytes(Bytes(kMaxRsaModulusBytes + 1, 0xFF));  // n
  w.bytes(Bytes{0x01, 0x00, 0x01});               // e
  auto key = RsaPublicKey::parse(w.take());
  EXPECT_FALSE(key.is_ok());
  EXPECT_EQ(key.code(), util::ErrorCode::kProtocol);
}

TEST(RsaParseTest, RejectsOversizedPublicExponent) {
  // The key a verifier exponentiates with comes off the wire.  A long public
  // exponent makes one verify cost as much as a private-key operation (an
  // 8192-bit e against an 8192-bit n takes most of a second), so parse()
  // takes only odd exponents from 3 up to 32 bits, which covers every key
  // that rsa_generate() makes (e = 65537).
  const Bytes n = test_key().pub.n.to_bytes();
  auto parse_with_e = [&](const Bytes& e) {
    util::Writer w;
    w.bytes(n);
    w.bytes(e);
    return RsaPublicKey::parse(w.take());
  };
  for (const Bytes& bad : {Bytes(kMaxRsaModulusBytes, 0xFF),  // 8192-bit e
                           Bytes{0x01, 0x00, 0x00, 0x00, 0x01},  // 33 bits
                           Bytes{0x01, 0x00, 0x00},              // even
                           Bytes{0x01}}) {                       // below 3
    auto key = parse_with_e(bad);
    EXPECT_FALSE(key.is_ok()) << util::hex_encode(bad);
    EXPECT_EQ(key.code(), util::ErrorCode::kProtocol) << util::hex_encode(bad);
  }
  for (const Bytes& good : {Bytes{0x03}, Bytes{0x01, 0x00, 0x01},
                            Bytes{0xFF, 0xFF, 0xFF, 0xFF},
                            Bytes{0x00, 0x00, 0x01, 0x00, 0x01}}) {  // leading zeros
    EXPECT_TRUE(parse_with_e(good).is_ok()) << util::hex_encode(good);
  }
}
}  // namespace
}  // namespace globe::crypto
