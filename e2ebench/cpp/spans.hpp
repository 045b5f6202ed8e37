// Bench-side spans for the traced run.  Every span is recorded from the
// benchmark's own wrappers around the stack's public seams (client socket,
// handler adapters, the proxy's transport, owner calls), kept in memory per
// thread and analysed once the run has stopped.
//
// Linking: a client span's id travels to the proxy in the X-Bench-Req
// header; upstream RPC spans take the proxy-handler span open on their
// thread as parent; server-handler spans find their upstream span through
// the trace context the rpc layer already prepends (the same context is
// visible on both sides of one call, and calls sharing it never overlap).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/mutex.hpp"

namespace e2ebench {

enum class SpanKind : std::uint8_t {
  kClient = 0,         // browser request: send to full response
  kProxyHandler = 1,   // ProxyHttpServer handler
  kUpstream = 2,       // call through the proxy's transport
  kServerHandler = 3,  // dispatcher handler on a serving host
  kOwnerSign = 4,      // ObjectOwner::sign_and_snapshot
  kOwnerPush = 5,      // AdminClient::update_replica
};

/// Which TcpServer a server-handler span ran on.
enum class Role : std::uint8_t {
  kNone = 0, kProxy, kObject, kNaming, kLocation, kCanary
};
const char* role_name(Role role);

/// Identity of an rpc trace context: (trace id, caller's innermost span).
struct TraceKey {
  std::uint64_t hi = 0, lo = 0, parent = 0;
  bool operator==(const TraceKey&) const = default;
};
struct TraceKeyHash {
  std::size_t operator()(const TraceKey& k) const {
    return std::size_t(k.hi * 0x9E3779B97F4A7C15ull ^ k.lo ^ (k.parent << 1));
  }
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root, or not linked
  SpanKind kind = SpanKind::kClient;
  Role role = Role::kNone;   // server-handler spans
  std::uint16_t service = 0, method = 0;
  bool keyed = false;        // carried an rpc trace context
  TraceKey key;
  std::int64_t start_ns = 0, end_ns = 0;
  std::int64_t duration() const { return end_ns - start_ns; }
};

/// Monotonic nanoseconds shared by every span.
std::int64_t now_ns();

/// Process-wide span buffers, one per recording thread.  record() is cheap
/// when disabled; take_all() must run after every recording thread has
/// stopped recording (the run tears the stack down first).
class SpanStore {
 public:
  static SpanStore& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(const Span& span) GLOBE_EXCLUDES(mutex_);
  std::vector<Span> take_all() GLOBE_EXCLUDES(mutex_);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  globe::util::Mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_ GLOBE_GUARDED_BY(mutex_);
};

/// Id of the proxy-handler span open on this thread (0 = none): upstream
/// spans opened from inside the handler take it as their parent.
std::uint64_t& current_proxy_span();

/// Duration of `parent` minus the part of its interval covered by
/// `children` (overlapping children are counted once; parts outside the
/// parent's interval are ignored).
std::int64_t self_time_ns(const Span& parent, const std::vector<const Span*>& children);

/// Sets the parent of every keyed server-handler span to the upstream span
/// that carried the same trace context and whose interval contains it.
/// Returns how many were linked.
std::size_t link_server_spans(std::vector<Span>& spans);

/// Children of each span id, in input order.
std::unordered_map<std::uint64_t, std::vector<const Span*>> index_children(
    const std::vector<Span>& spans);

/// Writes up to `max_trees` trees rooted at a client request or an owner
/// operation (evenly sampled by start, plus the slowest few) as JSON lines:
/// one line per span with its tree depth and self time.  Returns false when
/// the file cannot be written.
bool write_span_sample(const std::string& path, const std::vector<Span>& spans,
                       std::size_t max_trees);

}  // namespace e2ebench
