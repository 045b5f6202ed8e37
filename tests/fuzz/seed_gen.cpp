// Regenerates the checked-in fuzz seed corpora (tests/fuzz/corpus/) from
// real serialized values, so the seeds track the wire formats.  Usage:
//
//   cmake --build build --target fuzz_seed_gen
//   ./build/tests/fuzz_seed_gen tests/fuzz/corpus
//
// Deterministic: fixed DRBG seeds, virtual timestamps.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "globedoc/fetch_many.hpp"
#include "globedoc/integrity.hpp"
#include "globedoc/object.hpp"
#include "naming/records.hpp"
#include "tests/fuzz/object_server_fixture.hpp"
#include "util/serial.hpp"

namespace fs = std::filesystem;
using globe::util::Bytes;

static void write_file(const fs::path& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(), data.size());
}

int main(int argc, char** argv) {
  fs::path root = argc > 1 ? argv[1] : "tests/fuzz/corpus";
  fs::create_directories(root / "integrity_cert");
  fs::create_directories(root / "naming_record");

  auto rng = globe::crypto::HmacDrbg::from_seed(20260806);
  auto keys = globe::crypto::rsa_generate(512, rng);

  // --- integrity_cert seeds ------------------------------------------------
  {
    using globe::globedoc::GlobeDocObject;
    using globe::globedoc::IntegrityCertificate;
    GlobeDocObject object(keys);
    object.put_element({"index.html", "text/html",
                        globe::util::to_bytes("<html>seed</html>")});
    object.put_element({"logo.gif", "image/gif", Bytes(64, 0x42)});
    const IntegrityCertificate& two =
        object.sign_state(1000, globe::util::seconds(3600));
    write_file(root / "integrity_cert" / "valid_two_entries.bin",
               two.serialize());

    object.remove_element("logo.gif");
    const IntegrityCertificate& one =
        object.sign_state(2000, globe::util::seconds(60));
    Bytes wire = one.serialize();
    write_file(root / "integrity_cert" / "valid_one_entry.bin", wire);

    Bytes truncated(wire.begin(), wire.begin() + wire.size() / 2);
    write_file(root / "integrity_cert" / "truncated.bin", truncated);
    write_file(root / "integrity_cert" / "empty.bin", Bytes{});

    // A certificate body claiming 2^32-1 entries in a ~35-byte frame: the
    // entry count must die at the protocol ceiling before reserve().
    {
      globe::util::Writer body;
      body.raw(Bytes(globe::globedoc::Oid::kSize, 0x7));
      body.u64(1);            // version
      body.u32(0xFFFFFFFFu);  // forged entry count
      globe::util::Writer w;
      w.bytes(body.take());
      w.bytes(globe::util::to_bytes("sig"));
      write_file(root / "integrity_cert" / "forged_entry_count.bin",
                 w.take());
    }
  }

  // --- fetch_many seeds ----------------------------------------------------
  // The harness reads a direction byte first: 0x00 = request, 0x01 = response.
  {
    using globe::globedoc::FetchManyRequest;
    using globe::globedoc::FetchManyResponse;
    using globe::globedoc::Oid;
    fs::create_directories(root / "fetch_many");
    auto tag = [](std::uint8_t direction, const Bytes& wire) {
      Bytes out;
      out.reserve(wire.size() + 1);
      out.push_back(direction);
      out.insert(out.end(), wire.begin(), wire.end());
      return out;
    };

    FetchManyRequest request;
    request.oid = Oid::from_bytes(Bytes(Oid::kSize, 0xA5)).value();
    request.include_cert = true;
    request.names = {"index.html", "logo.gif"};
    Bytes req_wire = request.serialize();
    write_file(root / "fetch_many" / "request_two_names.bin",
               tag(0x00, req_wire));
    write_file(root / "fetch_many" / "request_truncated.bin",
               tag(0x00, Bytes(req_wire.begin(),
                               req_wire.begin() + req_wire.size() / 2)));

    // Out-of-bounds batch sizes the parser must reject, as seeds so the
    // fuzzer explores the boundary.
    request.names.clear();
    write_file(root / "fetch_many" / "request_empty_batch.bin",
               tag(0x00, request.serialize()));
    for (std::size_t i = 0; i <= globe::globedoc::kFetchManyMaxElements; ++i) {
      request.names.push_back("el" + std::to_string(i));
    }
    write_file(root / "fetch_many" / "request_oversized_batch.bin",
               tag(0x00, request.serialize()));

    FetchManyResponse response;
    response.certificate = globe::util::to_bytes("opaque-certificate-blob");
    response.items.push_back({true, globe::util::to_bytes("element-bytes")});
    response.items.push_back({false, {}});
    Bytes resp_wire = response.serialize();
    write_file(root / "fetch_many" / "response_cert_two_items.bin",
               tag(0x01, resp_wire));
    write_file(root / "fetch_many" / "response_truncated.bin",
               tag(0x01, Bytes(resp_wire.begin(),
                               resp_wire.begin() + resp_wire.size() / 2)));
    write_file(root / "fetch_many" / "empty.bin", Bytes{});

    // Forged count headers: a few bytes claiming 2^32-1 elements.  The
    // parser must hit the protocol ceiling (util::checked_count) before
    // reserving — seeding the boundary keeps the fuzzer exploring it.
    {
      globe::util::Writer w;
      w.raw(Bytes(Oid::kSize, 0xA5));
      w.u8(0);             // include_cert = false
      w.u32(0xFFFFFFFFu);  // forged element count
      write_file(root / "fetch_many" / "request_forged_count.bin",
                 tag(0x00, w.take()));
      globe::util::Writer rw;
      rw.u8(0);             // no certificate
      rw.u32(0xFFFFFFFFu);  // forged item count
      write_file(root / "fetch_many" / "response_forged_count.bin",
                 tag(0x01, rw.take()));
    }
  }

  // --- object_server seeds -------------------------------------------------
  // The harness reads a method selector first (an index into
  // kObjectServerMethods); every method gets one well-formed payload aimed
  // at the hosted replica.
  {
    using globe::globedoc::FetchManyRequest;
    using globe::globedoc::Oid;
    using globe::util::Writer;
    fs::create_directories(root / "object_server");
    const globe::globedoc::ReplicaState state = globe::fuzz::hosted_state();
    const Bytes oid = state.certificate.oid().to_bytes();
    auto seed = [&root](const char* name, std::uint8_t selector,
                        const Bytes& payload) {
      Bytes out{selector};
      out.insert(out.end(), payload.begin(), payload.end());
      write_file(root / "object_server" / name, out);
    };
    auto admin_request = [](const Bytes& signed_payload) {
      Writer w;
      w.bytes(Bytes(16, 0x01));  // a nonce the server never issued
      w.bytes(globe::util::to_bytes("pubkey"));
      w.bytes(Bytes(64, 0xAA));
      w.raw(signed_payload);
      return w.take();
    };

    Writer get_element;
    get_element.raw(oid);
    get_element.str("index.html");
    seed("get_element.bin", 0, get_element.take());
    seed("list_elements.bin", 1, oid);
    FetchManyRequest batch;
    batch.oid = state.certificate.oid();
    batch.include_cert = true;
    batch.names = {"index.html", "logo.gif", "ghost.html"};
    seed("fetch_many.bin", 2, batch.serialize());
    seed("get_public_key.bin", 3, oid);
    seed("get_integrity_cert.bin", 4, oid);
    seed("get_identity_certs.bin", 5, oid);
    seed("get_public_key_unknown_oid.bin", 3, Bytes(Oid::kSize, 0xEE));
    seed("challenge.bin", 6, Bytes{});
    Writer state_payload;
    state_payload.bytes(state.serialize());
    Bytes state_wire = state_payload.take();
    seed("create_replica.bin", 7, admin_request(state_wire));
    seed("update_replica.bin", 8, admin_request(state_wire));
    seed("delete_replica.bin", 9, admin_request(oid));
    seed("list_replicas.bin", 10, Bytes{});
    Writer negotiate;
    negotiate.u64(4096);
    negotiate.u64(globe::util::seconds(60));
    seed("negotiate.bin", 11, negotiate.take());
    write_file(root / "object_server" / "empty.bin", Bytes{});
  }

  // --- naming_record seeds -------------------------------------------------
  {
    using namespace globe::naming;
    OidRecord oid_rec;
    oid_rec.name = "news.vu.nl";
    oid_rec.oid = Bytes(kOidSize, 0xA5);
    oid_rec.expires = 5000;
    write_file(root / "naming_record" / "oid_record.bin", oid_rec.serialize());

    DelegationRecord del;
    del.zone = "vu.nl";
    del.child_public_key = keys.pub.serialize();
    del.name_server = globe::net::Endpoint{globe::net::HostId{7}, 53};
    del.expires = 5000;
    Bytes del_wire = del.serialize();
    write_file(root / "naming_record" / "delegation_record.bin", del_wire);

    SignedBlob blob;
    blob.record = oid_rec.serialize();
    blob.signature = Bytes(64, 0x5A);
    write_file(root / "naming_record" / "signed_blob.bin", blob.serialize());

    Bytes truncated(del_wire.begin(), del_wire.begin() + del_wire.size() / 3);
    write_file(root / "naming_record" / "truncated.bin", truncated);
    write_file(root / "naming_record" / "empty.bin", Bytes{});
  }
  return 0;
}
