#include "stack.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "crypto/drbg.hpp"
#include "globedoc/adversary.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace e2ebench {

namespace gd = globe::globedoc;
namespace net = globe::net;
namespace util = globe::util;
using util::Bytes;
using util::BytesView;

namespace {

constexpr const char* kZone = "vu.nl";
constexpr const char* kContentType = "application/octet-stream";
constexpr std::size_t kKeyBits = 1024;
const util::SimDuration kValidity = util::seconds(3600);

net::Endpoint port_ep(std::uint16_t port) { return net::Endpoint{net::HostId{0}, port}; }

std::string doc_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "doc%03zu.%s", i, kZone);
  return buf;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  util::SplitMix64 m(a * 0x9E3779B97F4A7C15ull + b);
  return m.next();
}

/// Keeps an InflightGauge balanced even when the wrapped call throws; a
/// null gauge counts nothing.
class GaugeGuard {
 public:
  explicit GaugeGuard(InflightGauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr) gauge_->enter();
  }
  ~GaugeGuard() {
    if (gauge_ != nullptr) gauge_->leave();
  }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;

 private:
  InflightGauge* gauge_;
};

/// Server-side seam: times one dispatcher handler call and keys it by the
/// rpc trace context so analysis can pair it with the caller's span.
net::MessageHandler wrap_server(net::MessageHandler inner, Role role,
                                InflightGauge* gauge) {
  return [inner = std::move(inner), role, gauge](net::ServerContext& ctx,
                                                 BytesView request) {
    SpanStore& store = SpanStore::instance();
    if (!store.enabled()) return inner(ctx, request);
    Span s;
    s.kind = SpanKind::kServerHandler;
    s.role = role;
    s.id = store.next_id();
    if (auto h = decode_rpc_header(request)) {
      s.service = h->service;
      s.method = h->method;
      s.keyed = h->traced;
      s.key = TraceKey{h->ctx.trace_hi, h->ctx.trace_lo, h->ctx.parent_span};
    }
    GaugeGuard in_flight(gauge);
    s.start_ns = now_ns();
    auto result = inner(ctx, request);
    s.end_ns = now_ns();
    store.record(s);
    return result;
  };
}

/// Browser-facing seam: the proxy-handler span, parented to the client span
/// named in the request, published to this thread for upstream spans.
net::MessageHandler wrap_proxy(net::MessageHandler inner, InflightGauge* gauge) {
  return [inner = std::move(inner), gauge](net::ServerContext& ctx, BytesView request) {
    SpanStore& store = SpanStore::instance();
    if (!store.enabled()) return inner(ctx, request);
    Span s;
    s.kind = SpanKind::kProxyHandler;
    s.role = Role::kProxy;
    s.id = store.next_id();
    s.parent = find_request_id(request);
    GaugeGuard in_flight(gauge);
    current_proxy_span() = s.id;
    s.start_ns = now_ns();
    auto result = inner(ctx, request);
    s.end_ns = now_ns();
    current_proxy_span() = 0;
    store.record(s);
    return result;
  };
}

/// Decorator over the proxy's TcpTransport: one upstream span per call,
/// labelled from the rpc header, plus per-family call and error counts.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport& inner, LayerProbes& probes)
      : inner_(inner), probes_(probes) {}

  util::Result<Bytes> call(const net::Endpoint& ep, BytesView request) override {
    SpanStore& store = SpanStore::instance();
    if (!store.enabled()) return inner_.call(ep, request);
    Span s;
    s.kind = SpanKind::kUpstream;
    s.id = store.next_id();
    s.parent = current_proxy_span();
    if (auto h = decode_rpc_header(request)) {
      s.service = h->service;
      s.method = h->method;
      s.keyed = h->traced;
      s.key = TraceKey{h->ctx.trace_hi, h->ctx.trace_lo, h->ctx.parent_span};
      std::string_view family = service_family(h->service);
      if (family == "naming") {
        probes_.naming_calls.fetch_add(1, std::memory_order_relaxed);
      } else if (family == "location") {
        probes_.location_calls.fetch_add(1, std::memory_order_relaxed);
        if (h->method == globe::location::kLookup) {
          probes_.location_lookups.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (family == "object") {
        probes_.object_calls.fetch_add(1, std::memory_order_relaxed);
      }
    }
    util::Result<Bytes> result(util::ErrorCode::kInternal, "not called");
    {
      GaugeGuard in_flight(&probes_.upstream);
      s.start_ns = now_ns();
      result = inner_.call(ep, request);
      s.end_ns = now_ns();
    }
    if (!result.is_ok()) {
      auto code = static_cast<std::uint8_t>(result.status().code());
      probes_.rpc_errors[code].fetch_add(1, std::memory_order_relaxed);
    }
    store.record(s);
    return result;
  }
  util::SimTime now() const override { return inner_.now(); }
  void charge(net::CpuOp op, std::uint64_t amount) override { inner_.charge(op, amount); }
  net::HostId local_host() const override { return inner_.local_host(); }
  void advance_to(util::SimTime t) override { inner_.advance_to(t); }

 private:
  net::Transport& inner_;
  LayerProbes& probes_;
};

void check(const util::Status& status, const std::string& what) {
  if (!status.is_ok()) throw std::runtime_error(what + ": " + status.to_string());
}

/// RSA-1024 keys for `n` slots, generated on up to four threads.  Slot i
/// always gets the same key, whatever the workload seed: prime search time
/// varies several-fold between keys, and set-up time should measure the
/// stack, not the luck of one seed's primes.
std::vector<globe::crypto::RsaKeyPair> generate_keys(std::size_t n) {
  constexpr std::uint64_t seed = 0x5EEDC0DE;
  std::vector<std::optional<globe::crypto::RsaKeyPair>> slots(n);
  const std::size_t workers = std::min<std::size_t>(4, n);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&slots, seed, t, workers, n] {
      for (std::size_t i = t; i < n; i += workers) {
        auto rng = globe::crypto::HmacDrbg::from_seed(mix(seed, 1000 + i));
        slots[i] = globe::crypto::rsa_generate(kKeyBits, rng);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<globe::crypto::RsaKeyPair> keys;
  keys.reserve(n);
  for (auto& k : slots) keys.push_back(std::move(*k));
  return keys;
}

gd::GlobeDocObject make_object(const globe::crypto::RsaKeyPair& key,
                               const DocumentData& doc) {
  gd::GlobeDocObject object(key);
  for (const auto& e : doc.elements) {
    object.put_element(gd::PageElement{e->name, kContentType, e->versions.front()});
  }
  return object;
}

}  // namespace

Corpus make_corpus(const CorpusShape& shape, std::uint64_t seed) {
  Corpus corpus;
  util::SplitMix64 rng(mix(seed, 7));
  // Sizes: a fixed ladder from min to max (or the given list), dealt to the
  // elements in seeded order, so every seed serves the same total bytes.
  const std::size_t n = shape.docs * shape.elements_per_doc;
  std::vector<std::size_t> ladder(n);
  const std::size_t steps = std::max<std::size_t>(n - 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ladder[i] = !shape.sizes.empty()
                    ? shape.sizes[i % shape.sizes.size()]
                    : shape.min_size + (shape.max_size - shape.min_size) * i / steps;
  }
  for (std::size_t i = n; i > 1; --i) std::swap(ladder[i - 1], ladder[rng.below(i)]);
  std::vector<std::vector<std::size_t>> sizes(shape.docs);
  corpus.docs.resize(shape.docs);
  for (std::size_t d = 0; d < shape.docs; ++d) {
    DocumentData& doc = corpus.docs[d];
    doc.name = doc_name(d);
    for (std::size_t e = 0; e < shape.elements_per_doc; ++e) {
      auto el = std::make_unique<ElementData>();
      el->name = "e" + std::to_string(e) + ".bin";
      sizes[d].push_back(ladder[d * shape.elements_per_doc + e]);
      el->versions.push_back(element_content(doc.name, el->name, 0, sizes[d][e], seed));
      doc.elements.push_back(std::move(el));
    }
  }
  // Planned writes: documents in turn, a seeded element of each.
  for (std::size_t i = 0; i < shape.writes && shape.docs > 0; ++i) {
    std::size_t d = i % shape.docs;
    std::size_t e = std::size_t(rng.below(shape.elements_per_doc));
    ElementData& el = *corpus.docs[d].elements[e];
    auto version = std::uint32_t(el.versions.size());
    el.versions.push_back(
        element_content(corpus.docs[d].name, el.name, version, sizes[d][e], seed));
    corpus.writes.push_back(PlannedWrite{d, e, version});
  }
  corpus.canary.name = std::string("canary.") + kZone;
  auto canary_el = std::make_unique<ElementData>();
  canary_el->name = "index.html";
  canary_el->versions.push_back(
      element_content(corpus.canary.name, canary_el->name, 0, 2048, seed));
  corpus.canary.elements.push_back(std::move(canary_el));
  return corpus;
}

void LayerProbes::reset() {
  naming_calls = 0;
  location_calls = 0;
  object_calls = 0;
  location_lookups = 0;
  for (auto& e : rpc_errors) e = 0;
  upstream.reset();
  proxy.reset();
  object.reset();
  naming.reset();
  location.reset();
}

std::uint64_t LayerProbes::errors_total() const {
  std::uint64_t total = 0;
  for (const auto& e : rpc_errors) total += e.load(std::memory_order_relaxed);
  return total;
}

Stack::Stack(const StackOptions& options, const Corpus& corpus) {
  keys_ = generate_keys(kFirstDocKey + corpus.docs.size());
  const util::SimTime now = util::RealClock().now();

  auto serve = [&](std::unique_ptr<net::TcpServer>& slot, net::MessageHandler handler,
                   Role role, InflightGauge* gauge) {
    if (options.instrument) {
      handler = role == Role::kProxy ? wrap_proxy(std::move(handler), gauge)
                                     : wrap_server(std::move(handler), role, gauge);
    }
    slot = std::make_unique<net::TcpServer>(0, std::move(handler));
  };
  auto dispatcher = [&] {
    dispatchers_.push_back(std::make_unique<globe::rpc::ServiceDispatcher>());
    return dispatchers_.back().get();
  };

  // --- Naming: the root zone delegates "vu.nl" to its own name server.
  child_zone_ = std::make_shared<globe::naming::ZoneAuthority>(kZone, keys_[kChildZoneKey]);
  child_naming_ = std::make_unique<globe::naming::NamingServer>();
  child_naming_->add_zone(child_zone_);
  auto* child_d = dispatcher();
  child_naming_->register_with(*child_d);
  serve(child_naming_tcp_, child_d->handler(), Role::kNaming, &probes_.naming);

  root_zone_ = std::make_shared<globe::naming::ZoneAuthority>("", keys_[kRootZoneKey]);
  root_zone_->delegate(kZone, keys_[kChildZoneKey].pub, port_ep(child_naming_tcp_->port()),
                       now + kValidity);
  root_naming_ = std::make_unique<globe::naming::NamingServer>();
  root_naming_->add_zone(root_zone_);
  auto* root_d = dispatcher();
  root_naming_->register_with(*root_d);
  serve(root_naming_tcp_, root_d->handler(), Role::kNaming, &probes_.naming);

  // --- Location: a root and one site.
  loc_root_ = std::make_unique<globe::location::LocationNode>("root", false);
  loc_site_ = std::make_unique<globe::location::LocationNode>("site", true);
  auto* loc_root_d = dispatcher();
  auto* loc_site_d = dispatcher();
  loc_root_->register_with(*loc_root_d);
  loc_site_->register_with(*loc_site_d);
  serve(loc_root_tcp_, loc_root_d->handler(), Role::kLocation, &probes_.location);
  serve(loc_site_tcp_, loc_site_d->handler(), Role::kLocation, &probes_.location);
  loc_root_->add_child("site", port_ep(loc_site_tcp_->port()));
  loc_site_->set_parent(port_ep(loc_root_tcp_->port()));

  // --- Object server, and the canary replica host that tampers.
  object_server_ = std::make_unique<gd::ObjectServer>("bench-object", mix(options.seed, 1));
  object_server_->authorize(credentials().pub);
  auto* object_d = dispatcher();
  object_server_->register_with(*object_d);
  serve(object_tcp_, object_d->handler(), Role::kObject, &probes_.object);

  canary_server_ = std::make_unique<gd::ObjectServer>("bench-canary", mix(options.seed, 2));
  canary_server_->authorize(credentials().pub);
  auto* canary_d = dispatcher();
  canary_server_->register_with(*canary_d);
  serve(canary_tcp_, gd::tampering_element_attack(canary_d->handler()), Role::kCanary,
        nullptr);

  // --- Owners: name registration, signing and authenticated publishing.
  {
    net::TcpTransport setup_wire;
    auto publish = [&](const globe::crypto::RsaKeyPair& key, const DocumentData& doc,
                       std::uint16_t server_port) {
      auto owner = std::make_unique<gd::ObjectOwner>(make_object(key, doc), credentials());
      owner->register_name(*child_zone_, doc.name, now + kValidity);
      auto state = owner->sign_and_snapshot(now, kValidity);
      check(owner->publish_replica(setup_wire, port_ep(server_port),
                                   port_ep(loc_site_tcp_->port()), state),
            "publish " + doc.name);
      return owner;
    };
    for (std::size_t d = 0; d < corpus.docs.size(); ++d) {
      owners_.push_back(publish(keys_[kFirstDocKey + d], corpus.docs[d], object_tcp_->port()));
    }
    // The canary owner is not kept: nothing ever updates the canary.
    publish(keys_[kCanaryKey], corpus.canary, canary_tcp_->port());
  }

  // --- The user's proxy behind its HTTP front end.
  proxy_wire_ = std::make_unique<net::TcpTransport>();
  net::Transport* transport = proxy_wire_.get();
  if (options.instrument) {
    proxy_transport_ = std::make_unique<TracedTransport>(*proxy_wire_, probes_);
    transport = proxy_transport_.get();
  }
  gd::ProxyConfig config;
  config.naming_root = port_ep(root_naming_tcp_->port());
  config.naming_anchor = keys_[kRootZoneKey].pub;
  config.location_site = port_ep(loc_site_tcp_->port());
  config.cache_bindings = options.cache_bindings;
  config.cache_elements = false;
  config.request_identity = false;
  config.edge_cache = nullptr;
  config.registry = &proxy_registry_;
  config.profile = &proxy_profile_;
  proxy_http_ = std::make_unique<gd::ProxyHttpServer>(
      std::make_unique<gd::GlobeDocProxy>(*transport, config));
  serve(proxy_tcp_, proxy_http_->handler(), Role::kProxy, &probes_.proxy);
}

Stack::~Stack() { shutdown(); }

net::Endpoint Stack::object_endpoint() const { return port_ep(object_tcp_->port()); }

void Stack::shutdown() {
  // TcpServer::stop() waits for every open connection to close, so each
  // server stops only after its clients are gone: browsers (closed by the
  // caller), then the proxy and its upstream connections, then the rest.
  if (proxy_tcp_) proxy_tcp_->stop();
  proxy_http_.reset();
  proxy_transport_.reset();
  proxy_wire_.reset();
  for (auto* server : {&object_tcp_, &canary_tcp_, &loc_site_tcp_, &loc_root_tcp_,
                       &root_naming_tcp_, &child_naming_tcp_}) {
    if (*server) (*server)->stop();
  }
}

}  // namespace e2ebench
