// CA-mediated identity certificates (paper §3.1.2).
//
// Self-certifying OIDs bind an object to its key; identity certificates
// bind the OID to a real-world entity ("Vrije Universiteit Amsterdam").
// Users configure the CAs they trust in a TrustStore; the proxy fetches the
// object's identity certificates and displays the naming information of the
// first one issued by a trusted CA ("Certified as:" in Figure 3).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "globedoc/oid.hpp"
#include "util/clock.hpp"
#include "util/taint_annotations.hpp"

namespace globe::globedoc {

/// Protocol ceiling on identity certificates per object.  ReplicaState::parse
/// rejects states claiming more as a protocol error, and the list reader
/// below reads such a list as empty; neither allocates for the claimed count.
inline constexpr std::size_t kMaxIdentityCerts = 64;

struct IdentityCertificate {
  std::string subject;   // real-world entity behind the object
  Oid oid;               // object this identity is claimed for
  std::string issuer;    // CA name
  util::SimTime expires = 0;
  util::Bytes signature;  // CA RSA/SHA-256 signature over the body

  util::Bytes signed_body() const;
  util::Bytes serialize() const;
  static util::Result<IdentityCertificate> parse(util::BytesView data);
};

/// The kGetIdentityCerts reply: u32 n, then n serialized certificates.
util::Bytes serialize_identity_list(const std::vector<IdentityCertificate>& certs);

/// Lenient reader for that reply.  Certificates that do not parse are
/// skipped, and a malformed list (truncated, or n above kMaxIdentityCerts)
/// reads as empty: identity is optional, and every certificate returned
/// still has to pass TrustStore::verify before it means anything.
std::vector<IdentityCertificate> parse_identity_list(util::BytesView data);

/// A certificate authority: issues identity certificates for OIDs.
class CertificateAuthority {
 public:
  CertificateAuthority(std::string name, crypto::RsaKeyPair keys);

  const std::string& name() const { return name_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  IdentityCertificate issue(const std::string& subject, const Oid& oid,
                            util::SimTime expires) const;

 private:
  std::string name_;
  crypto::RsaKeyPair keys_;
};

/// The user's list of trusted CA keys (paper: "users themselves can specify
/// a number of CAs they trust, and store their public keys with their user
/// proxy").
class TrustStore {
 public:
  void trust(const std::string& ca_name, crypto::RsaPublicKey key);
  [[nodiscard]] bool trusts(const std::string& ca_name) const;
  std::size_t size() const { return cas_.size(); }

  /// Full verification of one certificate: trusted issuer, valid signature,
  /// not expired, and issued for `expected_oid`.
  GLOBE_SANITIZER [[nodiscard]] util::Status verify(const IdentityCertificate& cert,
                                                    const Oid& expected_oid,
                                                    util::SimTime now) const;

  /// Scans `certs` and returns the subject of the first certificate that
  /// verifies (the proxy's "Certified as:" string), or nullopt.  The
  /// returned subject is sanitized — it was lifted from a certificate that
  /// passed full verification.
  GLOBE_SANITIZER [[nodiscard]] std::optional<std::string> first_trusted_subject(
      const std::vector<IdentityCertificate>& certs, const Oid& expected_oid,
      util::SimTime now) const;

 private:
  std::map<std::string, crypto::RsaPublicKey> cas_;
};

}  // namespace globe::globedoc
