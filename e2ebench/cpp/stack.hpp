// The whole GlobeDoc stack on 127.0.0.1, each part on its own TcpServer:
// naming root plus one delegated zone, location root plus one site, the
// object server, a canary object server that tampers with every element it
// serves, the owner tooling, and GlobeDocProxy behind ProxyHttpServer.
//
// Instrumentation wraps only public seams the benchmark owns: the handlers
// handed to each TcpServer and the proxy's net::Transport.  Nothing inside
// the library is changed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "globedoc/owner.hpp"
#include "globedoc/proxy_http.hpp"
#include "location/tree.hpp"
#include "naming/service.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {

/// One page element and every version of its content the run will serve.
/// versions[v] is immutable once generated; `started`/`completed` track
/// which version the writer began and finished pushing.
struct ElementData {
  std::string name;
  std::vector<globe::util::Bytes> versions;
  std::atomic<std::uint32_t> started{0};
  std::atomic<std::uint32_t> completed{0};
};

struct DocumentData {
  std::string name;  // "docNNN.vu.nl"
  std::vector<std::unique_ptr<ElementData>> elements;
};

/// A write of the update_mix writer: which element gets which version.
struct PlannedWrite {
  std::size_t doc = 0, element = 0;
  std::uint32_t version = 0;
};

/// Everything the program is fed, generated from the workload seed.
struct Corpus {
  std::vector<DocumentData> docs;
  DocumentData canary;
  std::vector<PlannedWrite> writes;
};

/// Shape of the generated documents.
struct CorpusShape {
  std::size_t docs = 0;
  std::size_t elements_per_doc = 0;
  std::vector<std::size_t> sizes;  // non-empty: the sizes, cycled
  std::size_t min_size = 0, max_size = 0;  // otherwise evenly spaced in [min, max]
  std::size_t writes = 0;                  // planned update_mix writes
};

Corpus make_corpus(const CorpusShape& shape, std::uint64_t seed);

/// Counters and gauges the wrappers fill while recording is enabled.
struct LayerProbes {
  // Upstream calls made through the proxy's transport, by service family.
  std::atomic<std::uint64_t> naming_calls{0}, location_calls{0}, object_calls{0};
  std::atomic<std::uint64_t> location_lookups{0};
  std::array<std::atomic<std::uint64_t>, 256> rpc_errors{};  // by ErrorCode
  InflightGauge upstream;  // proxy -> any upstream server
  // Handler concurrency per TcpServer role.
  InflightGauge proxy, object, naming, location;

  void reset();
  std::uint64_t errors_total() const;
};

struct StackOptions {
  bool cache_bindings = false;
  bool instrument = false;  // wrap seams (records only while spans are enabled)
  std::uint64_t seed = 0;
};

class Stack {
 public:
  /// Generates keys, signs zones, starts every server, publishes the
  /// corpus.  Throws std::runtime_error on any failure.
  Stack(const StackOptions& options, const Corpus& corpus);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::uint16_t proxy_port() const { return proxy_tcp_->port(); }
  LayerProbes& probes() { return probes_; }
  globe::obs::MetricsRegistry& proxy_registry() { return proxy_registry_; }
  globe::obs::ProfileRegistry& proxy_profile() { return proxy_profile_; }
  globe::obs::ProfileRegistry& owner_profile() { return owner_profile_; }

  /// The writer's side: owner of document `i` and the admin channel.
  globe::globedoc::ObjectOwner& owner(std::size_t i) { return *owners_[i]; }
  const globe::crypto::RsaKeyPair& credentials() const { return keys_[kCredentialsKey]; }
  globe::net::Endpoint object_endpoint() const;

  /// Stops every server in dependency order.  Idempotent.
  void shutdown();

 private:
  LayerProbes probes_;
  globe::obs::MetricsRegistry proxy_registry_;
  globe::obs::ProfileRegistry proxy_profile_;
  globe::obs::ProfileRegistry owner_profile_;

  static constexpr std::size_t kRootZoneKey = 0, kChildZoneKey = 1, kCredentialsKey = 2,
                               kCanaryKey = 3, kFirstDocKey = 4;
  std::vector<globe::crypto::RsaKeyPair> keys_;
  std::shared_ptr<globe::naming::ZoneAuthority> root_zone_, child_zone_;
  std::unique_ptr<globe::naming::NamingServer> root_naming_, child_naming_;
  std::unique_ptr<globe::location::LocationNode> loc_root_, loc_site_;
  std::unique_ptr<globe::globedoc::ObjectServer> object_server_, canary_server_;
  std::vector<std::unique_ptr<globe::rpc::ServiceDispatcher>> dispatchers_;
  std::vector<std::unique_ptr<globe::globedoc::ObjectOwner>> owners_;
  std::unique_ptr<globe::net::TcpTransport> proxy_wire_;
  std::unique_ptr<globe::net::Transport> proxy_transport_;  // wire, maybe traced
  std::unique_ptr<globe::globedoc::ProxyHttpServer> proxy_http_;

  // Servers last: they are stopped (in shutdown()) before anything they
  // call into is destroyed.
  std::unique_ptr<globe::net::TcpServer> root_naming_tcp_, child_naming_tcp_;
  std::unique_ptr<globe::net::TcpServer> loc_root_tcp_, loc_site_tcp_;
  std::unique_ptr<globe::net::TcpServer> object_tcp_, canary_tcp_;
  std::unique_ptr<globe::net::TcpServer> proxy_tcp_;
};

}  // namespace e2ebench
