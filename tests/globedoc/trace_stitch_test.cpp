// End-to-end distributed tracing: one proxy fetch must yield ONE stitched
// trace whose server-side spans (naming, location, object server) sit under
// the proxy's pipeline stages — and the admin surface must serve it.
#include <gtest/gtest.h>

#include "globedoc/proxy.hpp"
#include "http/parser.hpp"
#include "obs/admin.hpp"
#include "obs/collector.hpp"
#include "obs/log.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using testing::WorldFixture;

struct TraceStitchFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    // The proxy and every dispatcher default to the process-wide collector;
    // keep everything so the assertions below are deterministic.
    collector = &obs::global_trace_collector();
    collector->set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
    collector->clear();
  }

  /// Serves `proxy`'s admin surface (its health checks) on the client host.
  net::Endpoint serve_admin(GlobeDocProxy& proxy, std::uint16_t port) {
    obs::AdminConfig config;
    config.service = "proxy";
    admin = std::make_unique<obs::AdminHttpServer>(config);
    proxy.register_health_checks(*admin);
    net::Endpoint admin_ep{client_host, port};
    net.bind(admin_ep, admin->handler());
    return admin_ep;
  }

  http::HttpResponse healthz(const net::Endpoint& admin_ep) {
    if (!admin_flow) admin_flow = net.open_flow(infra_host);
    http::HttpRequest req;
    req.target = "/healthz";
    auto raw = admin_flow->call(admin_ep, req.serialize());
    EXPECT_TRUE(raw.is_ok());
    auto resp = http::parse_response(*raw);
    EXPECT_TRUE(resp.is_ok());
    return *resp;
  }

  obs::TraceCollector* collector = nullptr;
  std::unique_ptr<obs::AdminHttpServer> admin;
  std::unique_ptr<net::SimFlow> admin_flow;
};

// Spans named "rpc:*" anywhere under `root`, depth-first.
std::vector<const obs::SpanRecord*> rpc_spans(const obs::SpanRecord& root) {
  std::vector<const obs::SpanRecord*> out;
  std::vector<const obs::SpanRecord*> stack{&root};
  while (!stack.empty()) {
    const obs::SpanRecord* node = stack.back();
    stack.pop_back();
    if (node->name.rfind("rpc:", 0) == 0) out.push_back(node);
    for (const auto& child : node->children) stack.push_back(&child);
  }
  return out;
}

TEST_F(TraceStitchFixture, OneFetchYieldsOneStitchedCrossHostTrace) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const FetchMetrics& m = result->metrics;
  ASSERT_TRUE(m.trace_hi != 0 || m.trace_lo != 0);

  // ONE trace: the server-side fragments joined the proxy's, they did not
  // start traces of their own.
  EXPECT_EQ(collector->traces_seen(), 1u);
  auto trace = collector->find(m.trace_hi, m.trace_lo);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->complete);
  EXPECT_EQ(trace->root.name, FetchStage::kFetch);
  EXPECT_EQ(trace->root.host, "proxy");

  // Every hop of the pipeline produced a server-side fragment: at least the
  // naming resolve, the location lookup and the object-server calls.
  auto rpcs = rpc_spans(trace->root);
  EXPECT_GE(trace->fragments, 4u);
  EXPECT_EQ(rpcs.size(), trace->fragments - 1);
  for (const auto* span : rpcs) {
    EXPECT_NE(span->span_id, 0u);
    EXPECT_FALSE(span->host.empty());
  }

  // The stages contain their own remote work: resolve → naming server,
  // locate → location node, key_check → the object server's security
  // service, element_verify → the access service.
  const obs::SpanRecord* resolve = find_span(trace->root, FetchStage::kResolve);
  ASSERT_NE(resolve, nullptr);
  EXPECT_FALSE(find_all_spans(*resolve, "rpc:naming/1").empty());

  const obs::SpanRecord* locate = find_span(trace->root, FetchStage::kLocate);
  ASSERT_NE(locate, nullptr);
  EXPECT_GT(obs::remote_span_total(*locate), 0u);

  const obs::SpanRecord* key_check =
      find_span(trace->root, FetchStage::kKeyCheck);
  ASSERT_NE(key_check, nullptr);
  EXPECT_EQ(rpc_spans(*key_check).size(), 1u);
  EXPECT_EQ(rpc_spans(*key_check)[0]->name.rfind("rpc:gd.security/", 0), 0u);

  // The element transfer itself runs between stages (the verify span times
  // only the hashing + checks), so the access-service span is a direct
  // child of the fetch root.
  ASSERT_NE(find_span(trace->root, FetchStage::kElementVerify), nullptr);
  EXPECT_FALSE(find_all_spans(trace->root, "rpc:gd.access/1").empty());

  // The §4 decomposition: remote (server) time is a strict, nonzero part of
  // the total, and each stage's server time fits inside the stage.
  util::SimDuration server = obs::remote_span_total(trace->root);
  EXPECT_GT(server, 0u);
  EXPECT_LT(server, trace->root.duration);
  for (const char* stage :
       {FetchStage::kResolve, FetchStage::kLocate, FetchStage::kKeyCheck,
        FetchStage::kIdentity, FetchStage::kIntegrityVerify,
        FetchStage::kElementVerify}) {
    for (const auto* span : find_all_spans(trace->root, stage)) {
      EXPECT_LE(obs::remote_span_total(*span), span->duration) << stage;
    }
  }
}

TEST_F(TraceStitchFixture, SequentialFetchesKeepDistinctTraces) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto first = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(first.is_ok());
  auto second = proxy.fetch(object_name, "logo.gif");
  ASSERT_TRUE(second.is_ok());

  EXPECT_EQ(collector->traces_seen(), 2u);
  EXPECT_TRUE(first->metrics.trace_hi != second->metrics.trace_hi ||
              first->metrics.trace_lo != second->metrics.trace_lo);
  EXPECT_TRUE(collector->find(first->metrics.trace_hi, first->metrics.trace_lo)
                  .has_value());
  EXPECT_TRUE(
      collector->find(second->metrics.trace_hi, second->metrics.trace_lo)
          .has_value());
}

TEST_F(TraceStitchFixture, DedicatedCollectorReceivesTheProxyRoot) {
  // A proxy handed its own collector records roots there; the server-side
  // fragments still go to the global collector (their dispatchers were not
  // re-pointed), so the dedicated trace is the proxy-local view.
  obs::TraceCollector dedicated(8);
  dedicated.set_policy({/*keep_slower_than=*/0, /*keep_one_in=*/1});
  ProxyConfig config = proxy_config();
  config.trace_collector = &dedicated;
  GlobeDocProxy proxy(*client_flow, config);
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());

  EXPECT_EQ(dedicated.traces_seen(), 1u);
  auto trace =
      dedicated.find(result->metrics.trace_hi, result->metrics.trace_lo);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->root.name, FetchStage::kFetch);
}

TEST_F(TraceStitchFixture, AdminSurfaceServesTheStitchedTrace) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());

  obs::AdminConfig config;
  config.service = "proxy";
  obs::AdminHttpServer admin(config);
  proxy.register_health_checks(admin);
  net::Endpoint admin_ep{client_host, 9901};
  net.bind(admin_ep, admin.handler());

  auto flow = net.open_flow(infra_host);
  http::HttpRequest req;
  req.target = "/tracez";
  auto raw = flow->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  std::string body = util::to_string(resp->body);
  std::string trace_id =
      obs::TraceContext{result->metrics.trace_hi, result->metrics.trace_lo, 0,
                        true}
          .trace_id();
  EXPECT_NE(body.find(trace_id), std::string::npos);
  EXPECT_NE(body.find("\"fetch\""), std::string::npos);
  EXPECT_NE(body.find("rpc:gd.access/1"), std::string::npos);
}

TEST_F(TraceStitchFixture, ProxyHealthzFlipsOnReplicaLinkFailure) {
  GlobeDocProxy proxy(*client_flow, proxy_config());
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  net::Endpoint admin_ep = serve_admin(proxy, 9902);

  EXPECT_EQ(healthz(admin_ep).status, 200);

  // Cut the client's path to the object server: the "replica" probe (the
  // last endpoint a fetch was served from) must now fail.
  net.set_link_down(client_host, server_host, true);
  http::HttpResponse down = healthz(admin_ep);
  EXPECT_EQ(down.status, 503);
  EXPECT_NE(util::to_string(down.body).find("\"name\":\"replica\",\"ok\":false"),
            std::string::npos);

  net.set_link_down(client_host, server_host, false);
  EXPECT_EQ(healthz(admin_ep).status, 200);
}

TEST_F(TraceStitchFixture, ReplicaProbeFollowsACachedBindingFetch) {
  // A second document whose only replica sits on a second server host.
  net::HostId server2_host = net.add_host({"server-2", net::CpuModel{}});
  ObjectServer server2("srv-2", 43);
  server2.authorize(owner_credentials.pub);
  rpc::ServiceDispatcher server2_dispatcher;
  server2.register_with(server2_dispatcher);
  net::Endpoint server2_ep{server2_host, 8000};
  net.bind(server2_ep, server2_dispatcher.handler());
  GlobeDocObject doc_b(testing::fixture_key(1005));
  doc_b.put_element({"index.html", "text/html", util::to_bytes("doc b")});
  ObjectOwner owner_b(std::move(doc_b), owner_credentials);
  owner_b.register_name(*root_zone, "b.vu.nl", util::seconds(5000));
  ASSERT_TRUE(owner_b
                  .publish_replica(*publish_flow, server2_ep,
                                   tree->endpoint("site-server"),
                                   owner_b.sign_and_snapshot(
                                       publish_flow->now(), util::seconds(3600)))
                  .is_ok());

  ProxyConfig config = proxy_config();
  config.cache_bindings = true;
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());  // replica 1
  ASSERT_TRUE(proxy.fetch("b.vu.nl", "index.html").is_ok());    // replica 2
  // Served from replica 1 again, through the cached binding.
  auto again = proxy.fetch(object_name, "story.txt");
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->metrics.used_cached_binding);

  net::Endpoint admin_ep = serve_admin(proxy, 9903);
  net.set_link_down(client_host, server_host, true);
  http::HttpResponse down = healthz(admin_ep);
  EXPECT_EQ(down.status, 503);
  EXPECT_NE(util::to_string(down.body).find("\"name\":\"replica\",\"ok\":false"),
            std::string::npos);
  net.unbind(server2_ep);
}

TEST_F(TraceStitchFixture, VerificationFailureEventsJoinTheFetchTrace) {
  // Tamper with the served replica AFTER binding material is published:
  // overwrite one element so element verification fails, and check the
  // emitted warn event carries the fetch's trace id.
  obs::global_event_log().clear();
  ReplicaState state = owner->sign_and_snapshot(0, util::seconds(3600));
  state.elements[0].content = util::to_bytes("tampered!");
  object_server->install_replica_unchecked(state);

  GlobeDocProxy proxy(*client_flow, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_FALSE(result.is_ok());

  bool found = false;
  for (const auto& record : obs::global_event_log().recent(64)) {
    if (record.event != "element_rejected") continue;
    found = true;
    EXPECT_TRUE(record.trace_hi != 0 || record.trace_lo != 0);
    ASSERT_FALSE(
        obs::global_event_log().for_trace(record.trace_hi, record.trace_lo)
            .empty());
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace globe::globedoc
