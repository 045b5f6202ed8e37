// Verified client-side element caching: the certificate entry's validity
// interval doubles as a sound cache TTL ([13]'s "Verif" client strategy).
// With cache_elements set and no shared edge_cache, the proxy routes step 6
// through a private EdgeCacheTier it owns.
#include <gtest/gtest.h>

#include "globedoc/proxy.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::globedoc {
namespace {

using globe::globedoc::testing::WorldFixture;
using util::to_bytes;

struct ElementCacheFixture : WorldFixture {
  GlobeDocProxy make_proxy() {
    ProxyConfig config = proxy_config();
    config.cache_bindings = true;
    config.cache_elements = true;
    config.registry = &registry;
    return GlobeDocProxy(*client_flow, config);
  }

  obs::MetricsRegistry registry;
};

TEST_F(ElementCacheFixture, SecondFetchServedLocally) {
  auto proxy = make_proxy();
  auto first = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(first->metrics.served_from_edge_cache);
  EXPECT_EQ(proxy.element_cache_size(), 1u);

  const std::size_t served = object_server->elements_served();
  util::SimTime t = client_flow->now();
  auto second = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->metrics.served_from_edge_cache);
  EXPECT_EQ(registry.counter("proxy.cache.element_hits").value(), 1u);
  // Zero network: the origin served nothing, and the hit cost only its
  // memcopy — less than one 5 ms link traversal.
  EXPECT_EQ(object_server->elements_served(), served);
  EXPECT_LT(client_flow->now() - t, util::millis(5));
  EXPECT_EQ(second->element.content, first->element.content);
  EXPECT_EQ(second->certified_as, first->certified_as);
}

TEST_F(ElementCacheFixture, CacheExpiresWithCertificateEntry) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());

  // Advance past the 3600s validity window: the cached copy would now be
  // stale, so the proxy must go back to the network — where it discovers
  // the replica's state is expired too.
  client_flow->advance(util::seconds(4000));
  auto result = proxy.fetch(object_name, "index.html");
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), util::ErrorCode::kExpired);
  // The tier refuses an expired certificate entry before lookup, so the
  // stale copy is never served even though it is still stored.
  EXPECT_EQ(proxy.element_cache_size(), 1u);

  // A refreshed replica repopulates the cache.
  publish_flow->set_time(client_flow->now());
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());
  auto again = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again->metrics.served_from_edge_cache);
  EXPECT_EQ(proxy.element_cache_size(), 1u);
}

TEST_F(ElementCacheFixture, DistinctElementsCachedSeparately) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  ASSERT_TRUE(proxy.fetch(object_name, "story.txt").is_ok());
  EXPECT_EQ(proxy.element_cache_size(), 2u);
  auto cached = proxy.fetch(object_name, "story.txt");
  ASSERT_TRUE(cached.is_ok());
  EXPECT_TRUE(cached->metrics.served_from_edge_cache);
  EXPECT_EQ(util::to_string(cached->element.content), "full text");
}

TEST_F(ElementCacheFixture, ClearCacheForcesRefetch) {
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  proxy.clear_element_cache();
  EXPECT_EQ(proxy.element_cache_size(), 0u);
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result->metrics.served_from_edge_cache);
}

TEST_F(ElementCacheFixture, DisabledByDefault) {
  ProxyConfig config = proxy_config();
  GlobeDocProxy proxy(*client_flow, config);
  ASSERT_TRUE(proxy.fetch(object_name, "index.html").is_ok());
  auto second = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(second.is_ok());
  EXPECT_FALSE(second->metrics.served_from_edge_cache);
  EXPECT_EQ(proxy.element_cache_size(), 0u);
}

TEST_F(ElementCacheFixture, StaleCacheCannotHideAnUpdateBeyondItsWindow) {
  // Within the validity window a cached (older) copy may legitimately be
  // served — that is precisely the freshness contract of §3.2.2.  Past the
  // window, the new content must appear.
  auto proxy = make_proxy();
  auto v1 = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(v1.is_ok());

  // Mid-window, the owner publishes v2 with a fresh validity interval.
  client_flow->advance(util::seconds(2000));
  publish_flow->set_time(client_flow->now());
  owner->object().put_element({"index.html", "text/html", to_bytes("<html>v2</html>")});
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, client_flow->now(),
                                     util::seconds(3600))
                  .is_ok());

  // Still inside the old entry's window: cache may answer with v1.
  auto inside = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(inside.is_ok());
  EXPECT_TRUE(inside->metrics.served_from_edge_cache);

  // Past the old window (but inside v2's): the proxy refetches, sees v2.
  client_flow->advance(util::seconds(1700));
  auto outside = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(outside.is_ok());
  EXPECT_FALSE(outside->metrics.served_from_edge_cache);
  EXPECT_EQ(util::to_string(outside->element.content), "<html>v2</html>");
}

}  // namespace
}  // namespace globe::globedoc
