// Fleet consistency observatory end-to-end (DESIGN.md §16): epochs flow
// from signed state to replica reports, the auditor classifies fresh /
// stale / diverged per (replica, OID), forged or malformed reports die at
// the decode gate, and /replicaz renders the sanitized table.
#include "obs/consistency.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "http/parser.hpp"
#include "obs/admin.hpp"
#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "replication/maintainer.hpp"
#include "replication/refresher.hpp"
#include "tests/globedoc/world_fixture.hpp"

namespace globe::replication {
namespace {

using globe::globedoc::testing::WorldFixture;
using globedoc::ObjectServer;
using globedoc::ReplicaState;
using obs::ConsistencyAuditor;
using obs::ReplicaConsistency;
using obs::ReplicaRow;
using util::ErrorCode;

struct AuditFixture : WorldFixture {
  void SetUp() override {
    WorldFixture::SetUp();

    // The master (WorldFixture's object server) reports consistency on its
    // existing service endpoint.
    master_telemetry = std::make_unique<obs::TelemetryNode>(
        master_registry, "master", "object-server");
    master_telemetry->set_consistency_source(
        [this] { return object_server->consistency_report(); });
    master_telemetry->register_with(server_dispatcher);

    // One honest replica on the client host, seeded by a verified pull.
    mirror = std::make_unique<ObjectServer>("mirror", 93, &mirror_registry);
    mirror->register_with(mirror_dispatcher);
    mirror_telemetry = std::make_unique<obs::TelemetryNode>(
        mirror_registry, "replica-1", "object-server");
    mirror_telemetry->set_consistency_source(
        [this] { return mirror->consistency_report(); });
    mirror_telemetry->register_with(mirror_dispatcher);
    mirror_ep = net::Endpoint{client_host, 8800};
    net.bind(mirror_ep, mirror_dispatcher.handler());

    tick_flow = net.open_flow(client_host);
    auto seeded = pull_replica(*tick_flow, server_ep, oid(), *mirror, 0);
    ASSERT_TRUE(seeded.is_ok()) << seeded.status().to_string();
    seed = *seeded;

    auditor = std::make_unique<ConsistencyAuditor>();
    auditor->set_master({"master", server_ep});
    auditor->add_replica({"replica-1", mirror_ep});
    audit_flow = net.open_flow(client_host);
  }

  globedoc::Oid oid() { return owner->object().oid(); }

  ReplicaRow row_for(const std::string& replica) {
    for (const ReplicaRow& row : auditor->rows()) {
      if (row.replica == replica) return row;
    }
    ADD_FAILURE() << "no row for " << replica;
    return {};
  }

  double checks(const std::string& replica, const char* state) {
    return auditor->self_registry()
        .counter("replication.audit.checks",
                 {{"replica", replica}, {"state", state}})
        .value();
  }

  obs::MetricsRegistry master_registry, mirror_registry;
  std::unique_ptr<obs::TelemetryNode> master_telemetry, mirror_telemetry;
  std::unique_ptr<ObjectServer> mirror;
  rpc::ServiceDispatcher mirror_dispatcher;
  net::Endpoint mirror_ep;
  std::unique_ptr<net::SimFlow> tick_flow, audit_flow;
  PullResult seed;
  std::unique_ptr<ConsistencyAuditor> auditor;
};

TEST_F(AuditFixture, SeededReplicaAuditsFresh) {
  auditor->audit_round(*audit_flow);
  ReplicaRow row = row_for("replica-1");
  EXPECT_EQ(row.state, ReplicaConsistency::kFresh);
  EXPECT_EQ(row.epoch, seed.version);
  EXPECT_EQ(row.master_epoch, seed.version);
  EXPECT_EQ(row.oid_hex, oid().to_hex());
  EXPECT_GT(row.expiry_horizon_s, 0);
  EXPECT_TRUE(auditor->converged());
  EXPECT_EQ(checks("replica-1", "fresh"), 1.0);
  EXPECT_EQ(auditor->self_registry()
                .gauge("replication.stale_replicas")
                .value(),
            0.0);
}

TEST_F(AuditFixture, LinkDownReplicaClassifiesStaleNotDivergedAndRecovers) {
  // The replica's upstream is dead: its maintainer cannot pull, the master
  // re-signs, and the replica falls behind — but its certificate window is
  // still open, so the auditor must call it STALE, never diverged.
  obs::MetricsRegistry maintainer_registry;
  ReplicaMaintainer::Config config;
  config.refresh_margin = util::seconds(10000);  // refresh on every tick
  config.registry = &maintainer_registry;
  ReplicaMaintainer maintainer(*mirror, *tick_flow, config);
  net::Endpoint dead{infra_host, 9998};
  maintainer.track(oid(), {dead});

  util::SimTime bump = util::seconds(100);
  publish_flow->set_time(bump);
  ASSERT_TRUE(
      owner->refresh_replicas(*publish_flow, bump, util::seconds(3600)).is_ok());
  tick_flow->set_time(bump);
  auto report = maintainer.tick(tick_flow->now());
  EXPECT_EQ(report.failed, 1u);
  // Satellite: the failure is split by reason and leaves a traceable event.
  EXPECT_EQ(maintainer_registry
                .counter("replication.maintainer.failed",
                         {{"reason", "transport"}})
                .value(),
            1.0);
  bool logged = false;
  for (const obs::EventRecord& record : obs::global_event_log().recent(64)) {
    logged |= record.event == "refresh_failed" &&
              record.component == "replication";
  }
  EXPECT_TRUE(logged);

  audit_flow->set_time(bump);
  auditor->audit_round(*audit_flow);
  ReplicaRow stale = row_for("replica-1");
  EXPECT_EQ(stale.state, ReplicaConsistency::kStale);
  EXPECT_LT(stale.epoch, stale.master_epoch);
  EXPECT_FALSE(auditor->converged());
  EXPECT_EQ(auditor->self_registry()
                .gauge("replication.stale_replicas")
                .value(),
            1.0);

  // A later round measures how long the master has been ahead.
  audit_flow->set_time(bump + util::seconds(30));
  auditor->audit_round(*audit_flow);
  // ~30s minus one scrape round-trip of simulated link latency.
  EXPECT_GE(row_for("replica-1").staleness_ms, 29000.0);

  // Link restored: the next tick pulls the re-signed state and the fleet
  // converges back to fresh.
  maintainer.track(oid(), {server_ep});
  tick_flow->set_time(bump + util::seconds(60));
  EXPECT_EQ(maintainer.tick(tick_flow->now()).refreshed, 1u);
  audit_flow->set_time(bump + util::seconds(60));
  auditor->audit_round(*audit_flow);
  EXPECT_EQ(row_for("replica-1").state, ReplicaConsistency::kFresh);
  EXPECT_TRUE(auditor->converged());
}

TEST_F(AuditFixture, MalformedReportRejectedAtDecodeGate) {
  // A hostile replica answers the consistency scrape with a claimed doc
  // count far past the cap.  The decode gate rejects it, the sender is
  // marked unreachable, scrape_errors increments, and the honest replica's
  // classification is untouched.
  rpc::ServiceDispatcher evil_dispatcher;
  evil_dispatcher.register_method(
      rpc::kTelemetryService, obs::kConsistency,
      [](net::ServerContext&, util::BytesView) {
        util::Writer w;
        w.str("evil");
        w.u8(obs::kConsistencyVersion);
        w.u32(1u << 20);  // 1M docs claimed, nothing attached
        return util::Result<util::Bytes>(w.take());
      });
  net::Endpoint evil_ep{infra_host, 6666};
  net.bind(evil_ep, evil_dispatcher.handler());
  auditor->add_replica({"evil", evil_ep});

  auditor->audit_round(*audit_flow);
  EXPECT_EQ(row_for("evil").state, ReplicaConsistency::kUnreachable);
  EXPECT_EQ(row_for("replica-1").state, ReplicaConsistency::kFresh);
  EXPECT_EQ(auditor->self_registry()
                .counter("telemetry.scrape_errors", {{"node", "evil"}})
                .value(),
            1.0);
  EXPECT_EQ(checks("evil", "unreachable"), 1.0);
}

TEST_F(AuditFixture, ForgedEpochCountedAndQuarantinedAsDiverged) {
  // A well-formed lie: valid wire shape, epoch far ahead of the signing
  // authority's.  It cannot be rejected structurally, so the auditor counts
  // it as forged and classifies the doc diverged — the lie never makes the
  // fleet look "ahead" or poisons the master's view.
  util::Bytes lied_oid = oid().to_bytes();
  rpc::ServiceDispatcher liar_dispatcher;
  liar_dispatcher.register_method(
      rpc::kTelemetryService, obs::kConsistency,
      [lied_oid](net::ServerContext&, util::BytesView) {
        obs::ConsistencyReport report;
        obs::DocConsistency d;
        d.oid = lied_oid;
        d.epoch = 1000;
        d.digest = util::Bytes(obs::kConsistencyDigestSize, 0xAB);
        d.earliest_expiry = util::seconds(100000);
        report.docs.push_back(std::move(d));
        util::Writer w;
        w.str("liar");
        obs::encode_consistency(w, report);
        return util::Result<util::Bytes>(w.take());
      });
  net::Endpoint liar_ep{infra_host, 6667};
  net.bind(liar_ep, liar_dispatcher.handler());
  auditor->add_replica({"liar", liar_ep});

  std::uint64_t master_before = 0;
  auditor->audit_round(*audit_flow);
  master_before = auditor->master_epoch_sum();
  ReplicaRow row = row_for("liar");
  EXPECT_EQ(row.state, ReplicaConsistency::kDiverged);
  EXPECT_GT(row.epoch, row.master_epoch);
  EXPECT_EQ(auditor->self_registry()
                .counter("replication.audit.forged", {{"replica", "liar"}})
                .value(),
            1.0);
  EXPECT_EQ(auditor->master_epoch_sum(), master_before);
  EXPECT_EQ(auditor->self_registry()
                .gauge("replication.diverged_replicas")
                .value(),
            1.0);
}

TEST_F(AuditFixture, TamperedElementSurfacesAsDivergedInReplicaz) {
  // Tamper with the mirror's stored bytes AFTER a verified install (the
  // paper's malicious-replica model): same certificate, same epoch, flipped
  // content.  The report digest is recomputed from stored state, so the
  // auditor sees a digest mismatch at an equal epoch — diverged.
  ReplicaState fresh_state = owner->sign_and_snapshot(0, util::seconds(3600));
  ReplicaState tampered = fresh_state;  // same certificate, same epoch
  ASSERT_FALSE(tampered.elements.empty());
  tampered.elements[0].content = util::to_bytes("tampered bytes");
  mirror->install_replica_unchecked(tampered);
  object_server->install_replica_unchecked(fresh_state);

  auditor->audit_round(*audit_flow);
  ReplicaRow row = row_for("replica-1");
  EXPECT_EQ(row.state, ReplicaConsistency::kDiverged);

  // And it surfaces on /replicaz, filterable to the diverged rows.
  obs::AdminConfig admin_config;
  admin_config.service = "auditor";
  admin_config.registry = &auditor->self_registry();
  admin_config.auditor = auditor.get();
  obs::AdminHttpServer admin(admin_config);
  net::Endpoint admin_ep{infra_host, 9900};
  net.bind(admin_ep, admin.handler());

  http::HttpRequest req;
  req.method = "GET";
  req.target = "/replicaz?state=diverged";
  auto raw = audit_flow->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
  std::string body = util::to_string(resp->body);
  EXPECT_NE(body.find("replica-1"), std::string::npos);
  EXPECT_NE(body.find("state=diverged"), std::string::npos);
  EXPECT_NE(body.find(oid().to_hex()), std::string::npos);

  // Bad query: static 400, nothing reflected.
  req.target = "/replicaz?state=<script>alert(1)</script>";
  raw = audit_flow->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(util::to_string(resp->body).find("script"), std::string::npos);
}

TEST_F(AuditFixture, FreshnessProbeFlipsWhenInstallsStopArriving) {
  obs::AdminConfig admin_config;
  admin_config.service = "object-server";
  obs::AdminHttpServer admin(admin_config);
  object_server->register_freshness_probe(admin, util::seconds(300));
  net::Endpoint admin_ep{server_host, 9901};
  net.bind(admin_ep, admin.handler());

  http::HttpRequest req;
  req.method = "GET";
  req.target = "/healthz";
  auto probe = net.open_flow(client_host, util::seconds(60));
  auto raw = probe->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  auto resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);

  // No refresh for far longer than the budget: the probe must flip.
  probe->set_time(util::seconds(5000));
  raw = probe->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 503);
  std::string body = util::to_string(resp->body);
  EXPECT_NE(body.find("replication-freshness"), std::string::npos);
  EXPECT_NE(body.find("replication stale"), std::string::npos);

  // A fresh install (a pull) resets the horizon.
  auto pull_flow = net.open_flow(server_host, util::seconds(5100));
  // Re-sign so the master itself absorbs a newer state.
  publish_flow->set_time(util::seconds(5100));
  ASSERT_TRUE(owner
                  ->refresh_replicas(*publish_flow, util::seconds(5100),
                                     util::seconds(3600))
                  .is_ok());
  (void)pull_flow;
  probe->set_time(util::seconds(5200));
  raw = probe->call(admin_ep, req.serialize());
  ASSERT_TRUE(raw.is_ok());
  resp = http::parse_response(*raw);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->status, 200);
}

}  // namespace
}  // namespace globe::replication
