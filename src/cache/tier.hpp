// The verified edge-cache tier (DESIGN.md §12): glue between the proxy's
// element-fetch path and the three cache primitives.
//
//   ElementCache      — verified-once-serve-many store, bounded LRU
//   SingleFlight      — thundering-herd collapse: N misses → 1 upstream fill
//   DelayedReplicator — pull-on-access background replication of siblings
//
// fetch_through() is the single entry point the proxy calls per element:
//   1. no certificate entry → kNotFound (same as the direct path);
//   2. entry already expired → kExpired before touching cache or network;
//   3. cache hit → serve, zero upstream traffic;
//   4. miss → single-flight fill: ONE fetch_many round trip to the replica,
//      SHA-1 + check_element verification, admission, and every concurrent
//      requester of the same content shares that one result — including a
//      failure (a tampered fill fails the whole coalesced group and caches
//      nothing).
// First access to a document also schedules its remaining elements for
// delayed pull (run_delayed_pulls() drains the queue); evicting an entry
// cancels pending pulls for its document.
//
// Safety contract (what makes the tier safe to trust):
//   * an element is only returned if it passed check_element under the
//     caller's certificate — just now (a fill) or when it was admitted
//     (verified once, served many times from an untrusted position, §3.2.2);
//   * a cached copy never outlives its certificate entry's validity window;
//   * a failed verification is never cached (no negative entries, no
//     poisoned groups).
//
// A tier shared by many proxies on a node (ProxyConfig::edge_cache) is where
// coalescing and the fleet-wide hit ratio come from; a lone proxy with
// ProxyConfig::cache_elements owns a private one.
#pragma once

#include <cstdint>
#include <deque>
#include <set>

#include "cache/delayed_replicator.hpp"
#include "cache/element_cache.hpp"
#include "cache/single_flight.hpp"
#include "obs/metrics.hpp"
#include "util/bounds_annotations.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"

namespace globe::cache {

struct TierConfig {
  ElementCache::Config cache;
  DelayedReplicator::Config replicator;
  bool delayed_replication = true;  // schedule sibling pulls on first access
  /// Registry for the cache.* metric family; nullptr = unmetered.
  obs::MetricsRegistry* registry = nullptr;
};

/// Outcome of one fetch through the tier.
struct EdgeFetch {
  globedoc::PageElement element;
  bool cache_hit = false;  // served from the verified cache, zero upstream
  bool coalesced = false;  // waited on another flow's in-flight fill
};

class EdgeCacheTier {
 public:
  explicit EdgeCacheTier(TierConfig config);

  /// Returns the named element, served from cache when possible, otherwise
  /// filled from `replica` over `transport` and verified against
  /// `certificate` (which the caller has already signature-checked against
  /// the object key — the tier re-checks only per-element properties).
  /// Typed verification failures propagate exactly like the direct path's.
  util::Result<EdgeFetch> fetch_through(
      net::Transport& transport, const net::Endpoint& replica,
      const globedoc::Oid& oid,
      const globedoc::IntegrityCertificate& certificate,
      const std::string& element_name);

  /// Drains the delayed-replication queue over `transport` (the caller
  /// decides when background bandwidth is cheap).  No-op when delayed
  /// replication is off.
  DelayedReplicator::PumpStats run_delayed_pulls(net::Transport& transport);

  ElementCache& element_cache() { return cache_; }
  DelayedReplicator& replicator() { return replicator_; }

 private:
  struct EdgeFill {
    globedoc::PageElement element;
    util::SimTime completed_at = 0;  // leader's clock when the fill landed
    util::SimTime expires = 0;
  };

  util::Result<EdgeFill> fill(net::Transport& transport,
                              const net::Endpoint& replica,
                              const globedoc::Oid& oid,
                              const globedoc::IntegrityCertificate& certificate,
                              const std::string& element_name,
                              const util::Bytes& digest);

  // First-access tracking for delayed replication, bounded FIFO.
  bool first_access(const globedoc::Oid& oid) GLOBE_EXCLUDES(seen_mutex_);

  TierConfig config_;
  ElementCache cache_;
  DelayedReplicator replicator_;
  SingleFlight<CacheKey, EdgeFill> flights_;

  util::Mutex seen_mutex_;
  std::set<globedoc::Oid> seen_oids_ GLOBE_BOUNDED GLOBE_GUARDED_BY(seen_mutex_);
  std::deque<globedoc::Oid> seen_order_ GLOBE_BOUNDED GLOBE_GUARDED_BY(seen_mutex_);

  // cache.* metric family (nullptr when unmetered).
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* evictions_capacity_ = nullptr;
  obs::Counter* evictions_expired_ = nullptr;
  obs::Counter* evictions_explicit_ = nullptr;
  obs::Counter* delayed_pulls_ = nullptr;
  obs::Counter* delayed_dropped_ = nullptr;
  obs::Histogram* fill_ms_ = nullptr;
};

}  // namespace globe::cache
