#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "globedoc/identity.hpp"
#include "globedoc/object.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {
namespace {

using util::Bytes;
using util::ErrorCode;
using util::to_bytes;

crypto::RsaKeyPair make_key(std::uint64_t seed) {
  auto rng = crypto::HmacDrbg::from_seed(seed);
  return crypto::rsa_generate(512, rng);
}

struct IdentityFixture : ::testing::Test {
  IdentityFixture()
      : ca("VeriTrust Root CA", make_key(21)),
        other_ca("Shady CA", make_key(22)),
        object_key(make_key(23)),
        oid(Oid::from_public_key(object_key.pub)) {
    trust.trust(ca.name(), ca.public_key());
  }

  CertificateAuthority ca;
  CertificateAuthority other_ca;
  crypto::RsaKeyPair object_key;
  Oid oid;
  TrustStore trust;
};

TEST_F(IdentityFixture, IssueAndVerify) {
  auto cert = ca.issue("Vrije Universiteit Amsterdam", oid, util::seconds(100));
  EXPECT_TRUE(trust.verify(cert, oid, util::seconds(50)).is_ok());
}

TEST_F(IdentityFixture, UntrustedIssuerRejected) {
  auto cert = other_ca.issue("Evil Corp", oid, util::seconds(100));
  EXPECT_EQ(trust.verify(cert, oid, 0).code(), ErrorCode::kUntrustedIssuer);
}

TEST_F(IdentityFixture, ForgedSignatureRejected) {
  auto cert = ca.issue("Vrije Universiteit", oid, util::seconds(100));
  cert.signature[5] ^= 1;
  EXPECT_EQ(trust.verify(cert, oid, 0).code(), ErrorCode::kBadSignature);
}

TEST_F(IdentityFixture, SubjectTamperRejected) {
  auto cert = ca.issue("Vrije Universiteit", oid, util::seconds(100));
  cert.subject = "Evil Universiteit";
  EXPECT_EQ(trust.verify(cert, oid, 0).code(), ErrorCode::kBadSignature);
}

TEST_F(IdentityFixture, WrongObjectRejected) {
  Oid other_oid = Oid::from_public_key(make_key(24).pub);
  auto cert = ca.issue("Vrije Universiteit", other_oid, util::seconds(100));
  EXPECT_EQ(trust.verify(cert, oid, 0).code(), ErrorCode::kWrongElement);
}

TEST_F(IdentityFixture, ExpiredRejected) {
  auto cert = ca.issue("Vrije Universiteit", oid, util::seconds(100));
  EXPECT_EQ(trust.verify(cert, oid, util::seconds(100)).code(), ErrorCode::kExpired);
}

TEST_F(IdentityFixture, SerializationRoundTrip) {
  auto cert = ca.issue("Vrije Universiteit", oid, util::seconds(100));
  auto parsed = IdentityCertificate::parse(cert.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->subject, cert.subject);
  EXPECT_EQ(parsed->issuer, cert.issuer);
  EXPECT_TRUE(trust.verify(*parsed, oid, 0).is_ok());
  EXPECT_FALSE(IdentityCertificate::parse(to_bytes("junk")).is_ok());
}

TEST_F(IdentityFixture, FirstTrustedSubjectScansList) {
  std::vector<IdentityCertificate> certs;
  certs.push_back(other_ca.issue("Evil Corp", oid, util::seconds(100)));
  certs.push_back(ca.issue("Vrije Universiteit", oid, util::seconds(100)));
  certs.push_back(ca.issue("Second Identity", oid, util::seconds(100)));
  auto subject = trust.first_trusted_subject(certs, oid, 0);
  ASSERT_TRUE(subject.has_value());
  EXPECT_EQ(*subject, "Vrije Universiteit");  // first match wins (paper §3.1.2)
  EXPECT_FALSE(trust.first_trusted_subject({certs[0]}, oid, 0).has_value());
  EXPECT_FALSE(trust.first_trusted_subject({}, oid, 0).has_value());
}

TEST_F(IdentityFixture, IdentityListReaderIsLenient) {
  auto cert = ca.issue("Vrije Universiteit", oid, util::seconds(100));
  Bytes list = serialize_identity_list({cert, cert});
  ASSERT_EQ(parse_identity_list(list).size(), 2u);

  // A certificate that does not parse is skipped, the rest survive.
  util::Writer with_junk;
  with_junk.u32(2);
  with_junk.bytes(to_bytes("junk"));
  with_junk.bytes(cert.serialize());
  auto kept = parse_identity_list(with_junk.buffer());
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].subject, cert.subject);

  // A truncated list, or one claiming more than the protocol ceiling,
  // reads as empty.
  EXPECT_TRUE(parse_identity_list(Bytes(list.begin(), list.end() - 1)).empty());
  util::Writer oversized;
  oversized.u32(static_cast<std::uint32_t>(kMaxIdentityCerts + 1));
  for (std::size_t i = 0; i <= kMaxIdentityCerts; ++i) oversized.bytes(cert.serialize());
  EXPECT_TRUE(parse_identity_list(oversized.buffer()).empty());
}

TEST_F(IdentityFixture, TrustStoreManagement) {
  TrustStore ts;
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_FALSE(ts.trusts("VeriTrust Root CA"));
  ts.trust("VeriTrust Root CA", ca.public_key());
  EXPECT_TRUE(ts.trusts("VeriTrust Root CA"));
  EXPECT_EQ(ts.size(), 1u);
}

// --- GlobeDocObject ----------------------------------------------------

TEST(ObjectTest, CreateDerivesOidFromFreshKey) {
  auto rng = crypto::HmacDrbg::from_seed(30);
  auto object = GlobeDocObject::create(rng, 512);
  EXPECT_EQ(object.oid(), Oid::from_public_key(object.public_key()));
  EXPECT_TRUE(object.dirty());
  EXPECT_EQ(object.version(), 0u);
}

TEST(ObjectTest, ElementLifecycle) {
  GlobeDocObject object(make_key(31));
  object.put_element({"a.html", "text/html", to_bytes("A")});
  object.put_element({"b.gif", "image/gif", to_bytes("B")});
  EXPECT_EQ(object.element_count(), 2u);
  ASSERT_NE(object.element("a.html"), nullptr);
  EXPECT_EQ(object.element("a.html")->content, to_bytes("A"));
  EXPECT_EQ(object.element("ghost"), nullptr);

  object.put_element({"a.html", "text/html", to_bytes("A2")});  // replace
  EXPECT_EQ(object.element_count(), 2u);
  EXPECT_EQ(object.element("a.html")->content, to_bytes("A2"));

  object.remove_element("b.gif");
  EXPECT_EQ(object.element_count(), 1u);
  EXPECT_THROW(object.put_element({"", "x", {}}), std::invalid_argument);
}

TEST(ObjectTest, SignStateClearsDirtyAndBumpsVersion) {
  GlobeDocObject object(make_key(32));
  object.put_element({"x", "text/plain", to_bytes("x")});
  EXPECT_TRUE(object.dirty());
  object.sign_state(0, util::seconds(60));
  EXPECT_FALSE(object.dirty());
  EXPECT_EQ(object.version(), 1u);

  object.put_element({"y", "text/plain", to_bytes("y")});
  EXPECT_TRUE(object.dirty());
  object.sign_state(0, util::seconds(60));
  EXPECT_EQ(object.version(), 2u);
}

TEST(ObjectTest, SnapshotRequiresSignedState) {
  GlobeDocObject object(make_key(33));
  object.put_element({"x", "text/plain", to_bytes("x")});
  EXPECT_THROW(object.snapshot(), std::logic_error);
  object.sign_state(util::seconds(5), util::seconds(60));
  ReplicaState state = object.snapshot();
  EXPECT_EQ(state.elements.size(), 1u);
  EXPECT_EQ(state.certificate.version(), 1u);
  // The snapshot's certificate must verify under the snapshot's key.
  auto key = crypto::RsaPublicKey::parse(state.public_key);
  ASSERT_TRUE(key.is_ok());
  EXPECT_TRUE(state.certificate.verify_signature(*key));
  EXPECT_TRUE(state.certificate
                  .check_element("x", state.elements[0], util::seconds(6))
                  .is_ok());
}

TEST(ObjectTest, ReplicaStateSerializationRoundTrip) {
  GlobeDocObject object(make_key(34));
  object.put_element({"index.html", "text/html", to_bytes("<html/>")});
  object.put_element({"logo.gif", "image/gif", Bytes(50, 9)});
  CertificateAuthority ca("CA", make_key(35));
  object.add_identity_certificate(ca.issue("ACME", object.oid(), util::seconds(99)));
  object.sign_state(0, util::seconds(60));

  ReplicaState state = object.snapshot();
  auto parsed = ReplicaState::parse(state.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->elements.size(), 2u);
  EXPECT_EQ(parsed->identity_certs.size(), 1u);
  EXPECT_EQ(parsed->public_key, state.public_key);
  EXPECT_EQ(parsed->certificate.version(), state.certificate.version());
  EXPECT_EQ(parsed->content_bytes(), state.content_bytes());
  ASSERT_NE(parsed->find("logo.gif"), nullptr);
  EXPECT_EQ(parsed->find("ghost"), nullptr);
  EXPECT_FALSE(ReplicaState::parse(to_bytes("junk")).is_ok());
}

}  // namespace
}  // namespace globe::globedoc
