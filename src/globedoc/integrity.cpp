#include "globedoc/integrity.hpp"

#include <algorithm>

#include "crypto/sha1.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

Bytes encode_body(const Oid& oid, std::uint64_t version,
                  const std::vector<ElementEntry>& entries) {
  util::Writer w;
  w.raw(oid.to_bytes());
  w.u64(version);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.str(e.name);
    w.bytes(e.sha1);
    w.u64(e.expires);
  }
  return w.take();
}

}  // namespace

IntegrityCertificate IntegrityCertificate::build(
    const Oid& oid, std::uint64_t version, const std::vector<PageElement>& elements,
    util::SimTime now, util::SimDuration ttl, const crypto::RsaPrivateKey& key) {
  IntegrityCertificate cert;
  cert.oid_ = oid;
  cert.version_ = version;
  cert.entries_.reserve(elements.size());
  for (const auto& el : elements) {
    cert.entries_.push_back(ElementEntry{el.name, el.digest(), now + ttl});
  }
  cert.body_ = encode_body(cert.oid_, cert.version_, cert.entries_);
  // The paper signs certificates with the object key over SHA-1.
  cert.signature_ = crypto::rsa_sign_sha1(key, cert.body_);
  return cert;
}

const ElementEntry* IntegrityCertificate::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

util::SimTime IntegrityCertificate::earliest_expiry() const {
  util::SimTime earliest = 0;
  for (const auto& e : entries_) {
    if (earliest == 0 || e.expires < earliest) earliest = e.expires;
  }
  return earliest;
}

bool IntegrityCertificate::verify_signature(const crypto::RsaPublicKey& key) const {
  return crypto::rsa_verify_sha1(key, body_, signature_);
}

Status IntegrityCertificate::check_element(const std::string& requested_name,
                                           const PageElement& served,
                                           util::SimTime now) const {
  const ElementEntry* entry = find(requested_name);
  if (entry == nullptr) {
    return Status(ErrorCode::kNotFound,
                  "certificate has no entry for '" + requested_name + "'");
  }
  // Consistency: the served element must be the one that was requested.
  if (served.name != requested_name) {
    return Status(ErrorCode::kWrongElement, "server returned '" + served.name +
                                                "' instead of '" + requested_name +
                                                "'");
  }
  // Authenticity: body matches the signed digest.
  if (!util::ct_equal(served.digest(), entry->sha1)) {
    return Status(ErrorCode::kHashMismatch,
                  "element body does not match certificate digest");
  }
  // Freshness: retrieval time inside the validity interval.
  if (now >= entry->expires) {
    return Status(ErrorCode::kExpired, "element entry expired");
  }
  return Status::ok();
}

Bytes IntegrityCertificate::serialize() const {
  util::Writer w;
  w.bytes(body_);
  w.bytes(signature_);
  return w.take();
}

Result<IntegrityCertificate> IntegrityCertificate::parse(BytesView data) {
  try {
    util::Reader r(data);
    IntegrityCertificate cert;
    cert.body_ = r.bytes();
    cert.signature_ = r.bytes();
    r.expect_end();

    util::Reader rb(cert.body_);
    auto oid = Oid::from_bytes(rb.raw(Oid::kSize));
    if (!oid.is_ok()) return oid.status();
    cert.oid_ = *oid;
    cert.version_ = rb.u64();
    std::uint32_t n = util::checked_count(
        rb.u32(), static_cast<std::uint32_t>(kMaxCertificateEntries));
    cert.entries_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ElementEntry e;
      e.name = rb.str();
      e.sha1 = rb.bytes();
      e.expires = rb.u64();
      if (e.sha1.size() != crypto::Sha1::kDigestSize) {
        return Result<IntegrityCertificate>(ErrorCode::kProtocol,
                                            "bad digest length in certificate");
      }
      cert.entries_.push_back(std::move(e));
    }
    rb.expect_end();
    return cert;
  } catch (const util::SerialError& e) {
    return Result<IntegrityCertificate>(ErrorCode::kProtocol, e.what());
  }
}

}  // namespace globe::globedoc
