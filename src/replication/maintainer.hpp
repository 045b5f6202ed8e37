// Replica freshness maintenance: a hosting server keeps its replicas'
// certificates from expiring by pulling refreshed state from peer sources
// before the validity window closes — no owner involvement per replica
// (the owner only refreshes its master copy).
//
// Combines S19 (peer-to-peer pull) with the paper's freshness model: a
// replica whose certificate lapsed is useless (clients reject it), so a
// production object server re-syncs proactively.
#pragma once

#include <map>
#include <vector>

#include "globedoc/server.hpp"
#include "obs/metrics.hpp"
#include "replication/refresher.hpp"

namespace globe::replication {

class ReplicaMaintainer {
 public:
  struct Config {
    /// Refresh when the earliest certificate entry expires within this.
    util::SimDuration refresh_margin = util::seconds(300);
    /// Registry for the replication.maintainer.* series; nullptr means the
    /// process-wide obs::global_registry().
    obs::MetricsRegistry* registry = nullptr;
  };

  ReplicaMaintainer(globedoc::ObjectServer& server, net::Transport& transport,
                    Config config);
  ReplicaMaintainer(globedoc::ObjectServer& server, net::Transport& transport)
      : ReplicaMaintainer(server, transport, Config{}) {}

  /// Registers a replica to maintain and where to pull it from (tried in
  /// order).  The hosted version and expiry are read from the server on
  /// every tick, so a refresh that reached the server some other way (an
  /// owner push, a manual pull) is never rolled back to a stale source.
  void track(const globedoc::Oid& oid, std::vector<net::Endpoint> sources);
  void untrack(const globedoc::Oid& oid);
  std::size_t tracked() const { return entries_.size(); }

  struct TickReport {
    std::size_t checked = 0;
    std::size_t refreshed = 0;
    std::size_t failed = 0;
  };

  /// Runs one maintenance pass at time `now`: every tracked replica whose
  /// hosted window ends within refresh_margin (or that the server no longer
  /// hosts) is re-pulled from its sources.
  /// A replica whose every source fails is counted in `failed` and retried
  /// on the next tick.
  TickReport tick(util::SimTime now);

 private:
  globedoc::ObjectServer* server_;
  net::Transport* transport_;
  Config config_;
  // oid -> pull sources, tried in order
  std::map<globedoc::Oid, std::vector<net::Endpoint>> entries_;
  obs::Counter* checked_counter_;
  obs::Counter* refreshed_counter_;
  // replication.maintainer.failed split by reason= so operators can tell a
  // partitioned source (transport/timeout) from a hostile or corrupt one
  // (verification) straight from /metrics.
  obs::Counter* failed_verification_;
  obs::Counter* failed_transport_;
  obs::Counter* failed_timeout_;
};

}  // namespace globe::replication
