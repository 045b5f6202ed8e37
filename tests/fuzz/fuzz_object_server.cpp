// libFuzzer harness for the object server's RPC surface (paper §2.1.3):
// access, security and admin requests all arrive from arbitrary callers.
//
// The input's first byte picks one of the server's registered (service,
// method) pairs; the rest is that method's payload.  The request is framed
// and dispatched through a ServiceDispatcher to a server hosting one
// replica, exactly as a bound endpoint would.
//
// Properties checked beyond "does not crash / no ASan report":
//   * every reply is Ok or a typed error — never INTERNAL;
//   * unauthenticated input never changes what is hosted: the one replica
//     stays, at its version.
//
// Build with -DGLOBE_FUZZ=ON under Clang for the real fuzzer; otherwise a
// replay main() turns the seed corpus into a ctest regression.
#include <cstdint>

#include "tests/fuzz/fuzz_corpus_main.hpp"
#include "tests/fuzz/object_server_fixture.hpp"
#include "util/serial.hpp"

namespace {

using namespace globe;

// A fixed serving time inside the hosted certificate's window.  The object
// server never dials out while handling a request, so transport() traps.
class FuzzContext final : public net::ServerContext {
 public:
  util::SimTime now() const override { return util::seconds(10); }
  void charge(net::CpuOp, std::uint64_t) override {}
  net::HostId local_host() const override { return net::HostId{0}; }
  net::Transport& transport() override { __builtin_trap(); }
};

struct Harness {
  Harness() : state(fuzz::hosted_state()) {
    server.register_with(dispatcher);
    if (!server.install_replica_unchecked(state)) __builtin_trap();
  }
  globedoc::ReplicaState state;
  globedoc::ObjectServer server{"fuzz", 1};
  rpc::ServiceDispatcher dispatcher;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  static Harness harness;
  const auto& [service, method] =
      fuzz::kObjectServerMethods[data[0] % fuzz::kObjectServerMethods.size()];
  util::Writer frame;
  frame.u16(service);
  frame.u16(method);
  frame.raw(util::BytesView(data + 1, size - 1));

  FuzzContext ctx;
  auto reply = harness.dispatcher.dispatch(ctx, frame.buffer());
  if (reply.code() == util::ErrorCode::kInternal) __builtin_trap();

  const globedoc::Oid& oid = harness.state.certificate.oid();
  if (harness.server.replica_count() != 1 ||
      harness.server.hosted_version(oid).version !=
          harness.state.certificate.version()) {
    __builtin_trap();  // an unauthenticated request changed the hosted set
  }
  return 0;
}

GLOBE_FUZZ_REPLAY_MAIN(GLOBE_FUZZ_CORPUS_DIR)
