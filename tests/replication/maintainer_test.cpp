// Replica freshness maintenance: servers keep themselves current by
// pulling verified state before the certificate window closes.
#include "replication/maintainer.hpp"

#include <gtest/gtest.h>

#include "globedoc/proxy.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::replication {
namespace {

using globe::globedoc::testing::WorldFixture;
using globedoc::ObjectServer;
using util::ErrorCode;

struct MaintainerFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();
    mirror = std::make_unique<ObjectServer>("mirror", 93);
    mirror->register_with(mirror_dispatcher);
    mirror_ep = net::Endpoint{client_host, 8800};
    net.bind(mirror_ep, mirror_dispatcher.handler());
    tick_flow = net.open_flow(client_host);

    // Seed the mirror by pulling the origin once.
    auto seeded = pull_replica(*tick_flow, server_ep, owner->object().oid(),
                               *mirror, 0);
    ASSERT_TRUE(seeded.is_ok());
    seed = *seeded;
  }

  globedoc::Oid oid() { return owner->object().oid(); }

  std::unique_ptr<ObjectServer> mirror;
  rpc::ServiceDispatcher mirror_dispatcher;
  net::Endpoint mirror_ep;
  std::unique_ptr<net::SimFlow> tick_flow;
  PullResult seed;
};

TEST_F(MaintainerFixture, NoRefreshWhileWindowIsWide) {
  ReplicaMaintainer maintainer(*mirror, *tick_flow);
  maintainer.track(oid(), {server_ep});
  auto report = maintainer.tick(tick_flow->now());  // 3600s window, 300s margin
  EXPECT_EQ(report.checked, 1u);
  EXPECT_EQ(report.refreshed, 0u);
  EXPECT_EQ(report.failed, 0u);
}

TEST_F(MaintainerFixture, RefreshesNearExpiryAfterOwnerResign) {
  ReplicaMaintainer maintainer(*mirror, *tick_flow);
  maintainer.track(oid(), {server_ep});

  // Move to 200s before the window closes; the owner has re-signed the
  // origin in the meantime.
  util::SimTime near_expiry = seed.earliest_expiry - util::seconds(200);
  publish_flow->set_time(near_expiry);
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, near_expiry,
                                     util::seconds(3600))
                  .is_ok());
  tick_flow->set_time(near_expiry);

  auto report = maintainer.tick(near_expiry);
  EXPECT_EQ(report.refreshed, 1u);
  EXPECT_EQ(report.failed, 0u);

  // The mirror now serves past the original expiry.
  util::SimTime past_old_window = seed.earliest_expiry + util::seconds(100);
  location::LocationClient locator(*tick_flow, tree->endpoint("site-client"));
  ASSERT_TRUE(locator.insert(tree->endpoint("site-client"), oid().view(), mirror_ep)
                  .is_ok());
  auto client = net.open_flow(client_host, past_old_window);
  globedoc::GlobeDocProxy proxy(*client, proxy_config());
  auto result = proxy.fetch(object_name, "index.html");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST_F(MaintainerFixture, FallsBackAcrossSources) {
  ReplicaMaintainer maintainer(*mirror, *tick_flow);
  net::Endpoint dead{infra_host, 9998};
  maintainer.track(oid(), {dead, server_ep});

  util::SimTime near_expiry = seed.earliest_expiry - util::seconds(100);
  publish_flow->set_time(near_expiry);
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, near_expiry,
                                     util::seconds(3600))
                  .is_ok());
  tick_flow->set_time(near_expiry);
  auto report = maintainer.tick(near_expiry);
  EXPECT_EQ(report.refreshed, 1u);  // second source saved it
}

TEST_F(MaintainerFixture, AllSourcesDeadIsFailedNotFatal) {
  ReplicaMaintainer maintainer(*mirror, *tick_flow);
  net::Endpoint dead{infra_host, 9998};
  maintainer.track(oid(), {dead});
  tick_flow->set_time(seed.earliest_expiry - util::seconds(10));
  auto report = maintainer.tick(tick_flow->now());
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(maintainer.tracked(), 1u);  // retried next tick, not dropped
}

TEST_F(MaintainerFixture, StaleSourceNeverRollsBackARefreshedReplica) {
  // A peer seeded at v1 alongside the mirror.
  ObjectServer peer("peer", 94);
  rpc::ServiceDispatcher peer_dispatcher;
  peer.register_with(peer_dispatcher);
  net::Endpoint peer_ep{client_host, 8801};
  net.bind(peer_ep, peer_dispatcher.handler());
  ASSERT_TRUE(pull_replica(*tick_flow, server_ep, oid(), peer, 0).is_ok());

  ReplicaMaintainer maintainer(*mirror, *tick_flow);
  maintainer.track(oid(), {peer_ep});

  // The owner re-signs (v2) and the mirror pulls it straight from the
  // origin, outside the maintainer.
  util::SimTime resign = util::seconds(1000);
  publish_flow->set_time(resign);
  ASSERT_TRUE(owner->refresh_replicas(*publish_flow, resign, util::seconds(3600))
                  .is_ok());
  tick_flow->set_time(resign);
  ASSERT_TRUE(pull_replica(*tick_flow, server_ep, oid(), *mirror, seed.version)
                  .is_ok());

  // Near v1's expiry the maintainer must not re-install the peer's v1.
  util::SimTime near_v1_expiry = seed.earliest_expiry - util::seconds(200);
  tick_flow->set_time(near_v1_expiry);
  maintainer.tick(near_v1_expiry);

  rpc::RpcClient reader(*tick_flow, mirror_ep);
  util::Writer req;
  req.raw(oid().to_bytes());
  auto cert_raw =
      reader.call(rpc::kGlobeDocSecurity, globedoc::kGetIntegrityCert, req.buffer());
  ASSERT_TRUE(cert_raw.is_ok());
  auto cert = globedoc::IntegrityCertificate::parse(*cert_raw);
  ASSERT_TRUE(cert.is_ok());
  EXPECT_EQ(cert->version(), seed.version + 1);
}

TEST_F(MaintainerFixture, UntrackStopsMaintenance) {
  ReplicaMaintainer maintainer(*mirror, *tick_flow);
  maintainer.track(oid(), {server_ep});
  maintainer.untrack(oid());
  EXPECT_EQ(maintainer.tracked(), 0u);
  EXPECT_EQ(maintainer.tick(tick_flow->now()).checked, 0u);
}

}  // namespace
}  // namespace globe::replication
