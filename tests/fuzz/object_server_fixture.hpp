// The object server that tests/fuzz/fuzz_object_server.cpp drives, shared
// with seed_gen.cpp so the seed corpus can name the hosted OID and address
// every registered method.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "crypto/drbg.hpp"
#include "globedoc/object.hpp"
#include "globedoc/server.hpp"
#include "rpc/rpc.hpp"

namespace globe::fuzz {

/// Every (service, method) pair ObjectServer::register_with binds.  The
/// harness's first input byte indexes this table (modulo its size).
inline constexpr std::array<std::pair<std::uint16_t, std::uint16_t>, 12>
    kObjectServerMethods = {{
        {rpc::kGlobeDocAccess, globedoc::kGetElement},
        {rpc::kGlobeDocAccess, globedoc::kListElements},
        {rpc::kGlobeDocAccess, globedoc::kFetchMany},
        {rpc::kGlobeDocSecurity, globedoc::kGetPublicKey},
        {rpc::kGlobeDocSecurity, globedoc::kGetIntegrityCert},
        {rpc::kGlobeDocSecurity, globedoc::kGetIdentityCerts},
        {rpc::kGlobeDocAdmin, globedoc::kChallenge},
        {rpc::kGlobeDocAdmin, globedoc::kCreateReplica},
        {rpc::kGlobeDocAdmin, globedoc::kUpdateReplica},
        {rpc::kGlobeDocAdmin, globedoc::kDeleteReplica},
        {rpc::kGlobeDocAdmin, globedoc::kListReplicas},
        {rpc::kGlobeDocAdmin, globedoc::kNegotiate},
    }};

/// The one replica the fuzzed server hosts: two elements and an identity
/// certificate, signed at t=0 with a window far past any fuzzed request.
inline globedoc::ReplicaState hosted_state() {
  auto rng = crypto::HmacDrbg::from_seed(20261017);
  auto keys = crypto::rsa_generate(512, rng);
  globedoc::GlobeDocObject object(keys);
  object.put_element({"index.html", "text/html", util::to_bytes("<html>fuzz</html>")});
  object.put_element({"logo.gif", "image/gif", util::Bytes(64, 0x42)});
  globedoc::CertificateAuthority ca("Fuzz CA", keys);
  object.add_identity_certificate(
      ca.issue("Fuzz Org", object.oid(), util::seconds(1u << 30)));
  object.sign_state(0, util::seconds(1u << 30));
  return object.snapshot();
}

}  // namespace globe::fuzz
