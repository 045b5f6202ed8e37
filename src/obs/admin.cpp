#include "obs/admin.hpp"

#include <array>
#include <span>
#include <sstream>
#include <string_view>

#include "http/parser.hpp"
#include "obs/consistency.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "util/serial.hpp"

namespace globe::obs {

using http::HttpRequest;
using http::HttpResponse;
using util::Bytes;
using util::BytesView;
using util::Result;
using util::Status;

namespace {

/// Upper bound on the min_ms filter: ~11.5 days, far beyond any trace, and
/// small enough that millis() cannot overflow.
constexpr std::uint64_t kMaxMinMs = 1'000'000'000;

/// Upper bound on the n= row filter: far more stacks than the registry can
/// hold, and small enough that rendering stays cheap.
constexpr std::uint64_t kMaxProfileRows = 10'000;
constexpr std::uint64_t kDefaultProfileRows = 20;

/// One key an admin endpoint accepts.  Its value is either one of `words`
/// or, when `words` is empty, a decimal number in [min, max] with no more
/// digits than `max` has.
struct QueryKey {
  std::string_view name;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::span<const std::string_view> words = {};
};

/// What the sanitizer lets through for one key: absent, a bounded number,
/// or a word owned by the key table (never a view into the query).
struct QueryValue {
  bool present = false;
  std::uint64_t number = 0;
  std::string_view word;
};

/// Per-endpoint key tables, in the order the keys must appear.
constexpr std::size_t kMaxQueryKeys = 2;
using QueryValues = std::array<QueryValue, kMaxQueryKeys>;
constexpr std::string_view kFoldedWord[] = {"folded"};
constexpr std::string_view kStateWords[] = {
    "fresh", "stale", "diverged", "expired", "missing", "unreachable"};
constexpr QueryKey kTracezKeys[] = {{"min_ms", 0, kMaxMinMs}};
constexpr QueryKey kProfilezKeys[] = {{"fmt", 0, 0, kFoldedWord},
                                      {"n", 1, kMaxProfileRows}};
constexpr QueryKey kReplicazKeys[] = {{"state", 0, 0, kStateWords}};

Status bad_query(const char* why) {
  return Status(util::ErrorCode::kInvalidArgument, why);
}

Result<QueryValue> parse_query_value(const QueryKey& key,
                                     std::string_view value) {
  QueryValue out;
  out.present = true;
  if (!key.words.empty()) {
    for (std::string_view word : key.words) {
      if (value == word) {
        out.word = word;
        return out;
      }
    }
    return bad_query("unknown query value");
  }
  std::size_t max_digits = 1;
  for (std::uint64_t m = key.max; m >= 10; m /= 10) ++max_digits;
  if (value.empty() || value.size() > max_digits) {
    return bad_query("query value out of range");
  }
  for (char c : value) {
    if (c < '0' || c > '9') return bad_query("query value not a number");
    out.number = out.number * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (out.number < key.min || out.number > key.max) {
    return bad_query("query value out of range");
  }
  return out;
}

/// Strict query grammar shared by every admin endpoint: `key=value` pairs
/// joined by `&`, keys from the endpoint's table, in table order, each at
/// most once, values bounded as the table says.  Anything else — unknown,
/// repeated or reordered keys, empty values, signs, whitespace, trailing
/// separators, overlong numbers — is INVALID_ARGUMENT.  The input came off
/// the wire; after this gate only bounded integers and table-owned words
/// survive, so nothing attacker-controlled can reach a response body.
GLOBE_SANITIZER Result<QueryValues> parse_admin_query(
    GLOBE_UNTRUSTED std::string_view query, std::span<const QueryKey> keys) {
  QueryValues out{};
  std::size_t next = 0;
  while (!query.empty()) {
    std::size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    if (amp != std::string_view::npos && query.empty()) {
      return bad_query("trailing separator");
    }
    std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return bad_query("malformed parameter");
    std::size_t k = next;
    while (k < keys.size() && keys[k].name != pair.substr(0, eq)) ++k;
    if (k == keys.size()) return bad_query("unexpected query parameter");
    Result<QueryValue> value = parse_query_value(keys[k], pair.substr(eq + 1));
    if (!value.is_ok()) return value.status();
    out[k] = *value;
    next = k + 1;
  }
  return out;
}

/// Static error bodies only: a 4xx must not echo what the peer sent.
HttpResponse error_response(int status, std::string_view body) {
  return HttpResponse::make(status, http::reason_for_status(status),
                            util::to_bytes(body), "text/plain");
}

void trace_to_json(std::ostringstream& os, const StitchedTrace& trace) {
  os << "{\"trace_id\":\"" << trace.trace_id()
     << "\",\"duration_ms\":" << util::to_millis(trace.duration())
     << ",\"complete\":" << (trace.complete ? "true" : "false")
     << ",\"fragments\":" << trace.fragments
     << ",\"root\":" << to_json(trace.root) << '}';
}

}  // namespace

Status reachability_probe(net::ServerContext& ctx, const net::Endpoint& ep) {
  Result<Bytes> reply = ctx.transport().call(ep, Bytes(4, 0));
  if (!reply.is_ok() && reply.code() == util::ErrorCode::kUnavailable) {
    return Status(util::ErrorCode::kUnavailable,
                  ep.to_string() + " unreachable");
  }
  return Status::ok();
}

AdminHttpServer::AdminHttpServer(AdminConfig config)
    : config_(std::move(config)) {
  if (config_.registry == nullptr) config_.registry = &global_registry();
  if (config_.collector == nullptr) config_.collector = &global_trace_collector();
  if (config_.events == nullptr) config_.events = &global_event_log();
  if (config_.profile == nullptr) config_.profile = &global_profile_registry();
}

void AdminHttpServer::add_health_check(std::string name, HealthProbe probe) {
  util::LockGuard lock(mutex_);
  checks_.emplace_back(std::move(name), std::move(probe));
}

HttpResponse AdminHttpServer::serve_metrics() {
  // Fold the cost profile into the registry first, so every scrape — local
  // /metrics and the telemetry plane that feeds /federate — sees current
  // profile.* counters.
  config_.profile->publish_to(*config_.registry);
  HttpResponse resp = HttpResponse::make(
      200, "OK", util::to_bytes(to_text(config_.registry->snapshot())),
      "text/plain");
  return resp;
}

HttpResponse AdminHttpServer::serve_profilez(const std::string& query) {
  Result<QueryValues> parsed = parse_admin_query(query, kProfilezKeys);
  if (!parsed.is_ok()) {
    return error_response(400,
                          "400 bad query: expected fmt=folded and/or n=<rows>\n");
  }
  const QueryValue& n = (*parsed)[1];
  // Re-clamp the row count through the length guard: top_n sizes the table
  // buffer, and it arrived in an untrusted query string.
  std::uint32_t top_n = util::checked_count(
      static_cast<std::uint32_t>(n.present ? n.number : kDefaultProfileRows),
      static_cast<std::uint32_t>(kMaxProfileRows));
  ProfileSnapshot snap = config_.profile->snapshot();
  std::string body = (*parsed)[0].present
                         ? to_folded(snap)
                         : to_table(snap, static_cast<std::size_t>(top_n));
  return HttpResponse::make(200, "OK", util::to_bytes(body), "text/plain");
}

HttpResponse AdminHttpServer::serve_healthz(net::ServerContext& ctx) {
  // Snapshot the check list, then probe WITHOUT the lock: probes make
  // nested transport calls and must not serialize against registration.
  std::vector<std::pair<std::string, HealthProbe>> checks;
  {
    util::LockGuard lock(mutex_);
    checks = checks_;
  }
  bool all_ok = true;
  std::ostringstream os;
  os << "{\"service\":\"" << json_escape(config_.service) << "\",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    Status s = checks[i].second(ctx);
    if (!s.is_ok()) all_ok = false;
    if (i > 0) os << ',';
    os << "{\"name\":\"" << json_escape(checks[i].first)
       << "\",\"ok\":" << (s.is_ok() ? "true" : "false");
    if (!s.is_ok()) os << ",\"error\":\"" << json_escape(s.to_string()) << '"';
    os << '}';
  }
  os << "],\"status\":\"" << (all_ok ? "ok" : "degraded") << "\"}";
  int status = all_ok ? 200 : 503;
  config_.events->emit(all_ok ? EventLevel::kDebug : EventLevel::kWarn,
                       "admin", "healthz",
                       config_.service + " " + (all_ok ? "ok" : "degraded"),
                       ctx.now());
  return HttpResponse::make(status, http::reason_for_status(status),
                            util::to_bytes(os.str()), "application/json");
}

HttpResponse AdminHttpServer::serve_tracez(const std::string& query) {
  Result<QueryValues> parsed = parse_admin_query(query, kTracezKeys);
  if (!parsed.is_ok()) {
    return error_response(400, "400 bad query: expected min_ms=<millis>\n");
  }
  std::uint64_t min_ms = (*parsed)[0].number;
  std::vector<StitchedTrace> traces =
      config_.collector->recent(64, util::millis(min_ms));
  std::ostringstream os;
  os << "{\"min_ms\":" << min_ms
     << ",\"seen\":" << config_.collector->traces_seen()
     << ",\"kept\":" << config_.collector->traces_kept() << ",\"traces\":[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) os << ',';
    trace_to_json(os, traces[i]);
  }
  os << "]}";
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()),
                            "application/json");
}

HttpResponse AdminHttpServer::serve_federate() {
  // Node health first, as exposition comments — a stale node has NO series
  // below (its last snapshot is excluded from the merge), so the header is
  // the only place its absence is explained.
  std::ostringstream os;
  for (const NodeStatus& node : config_.aggregator->nodes()) {
    os << "# node " << node.node << " role=" << node.role << ' '
       << (node.stale ? "stale" : "fresh") << " ok=" << node.scrapes_ok
       << " failed=" << node.scrapes_failed;
    if (!node.last_error.empty()) {
      // Scrape errors carry transport/protocol detail, not peer-chosen
      // bytes past the sanitizer; still keep them to one comment line.
      std::string error = node.last_error;
      for (char& c : error) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      os << " error=\"" << error << '"';
    }
    os << '\n';
  }
  os << to_text(config_.aggregator->merged());
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()), "text/plain");
}

HttpResponse AdminHttpServer::serve_alertz(net::ServerContext& ctx) {
  config_.slo->evaluate(ctx.now());
  return HttpResponse::make(200, "OK", util::to_bytes(config_.slo->to_json()),
                            "application/json");
}

HttpResponse AdminHttpServer::serve_replicaz(const std::string& query) {
  Result<QueryValues> parsed = parse_admin_query(query, kReplicazKeys);
  if (!parsed.is_ok()) {
    return error_response(
        400,
        "400 bad query: expected "
        "state=<fresh|stale|diverged|expired|missing|unreachable>\n");
  }
  const QueryValue& filter = (*parsed)[0];
  std::vector<ReplicaRow> rows = config_.auditor->rows();
  std::ostringstream os;
  os << "# replicaz rounds=" << config_.auditor->rounds()
     << " replicas=" << config_.auditor->replica_count() << " converged="
     << (config_.auditor->converged() ? "true" : "false") << '\n';
  os << "# replica oid epoch master lag staleness_ms expiry_s state\n";
  for (const ReplicaRow& row : rows) {
    const char* state = replica_consistency_name(row.state);
    if (filter.present && filter.word != state) continue;
    std::uint64_t lag =
        row.master_epoch > row.epoch ? row.master_epoch - row.epoch : 0;
    os << row.replica << ' ' << row.oid_hex << " epoch=" << row.epoch
       << " master=" << row.master_epoch << " lag=" << lag
       << " staleness_ms=" << row.staleness_ms
       << " expiry_s=" << row.expiry_horizon_s << " state=" << state << '\n';
  }
  return HttpResponse::make(200, "OK", util::to_bytes(os.str()), "text/plain");
}

HttpResponse AdminHttpServer::handle(net::ServerContext& ctx,
                                     const HttpRequest& request) {
  if (request.method != "GET") {
    HttpResponse resp = error_response(405, "405 method not allowed\n");
    resp.headers.set("Allow", "GET");
    return resp;
  }
  std::string path = request.target;
  std::string query;
  if (std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  if (path == "/metrics") {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_metrics();
  }
  if (path == "/healthz") {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_healthz(ctx);
  }
  if (path == "/tracez") return serve_tracez(query);
  if (path == "/profilez") return serve_profilez(query);
  if (path == "/federate" && config_.aggregator != nullptr) {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_federate();
  }
  if (path == "/alertz" && config_.slo != nullptr) {
    if (!query.empty()) return error_response(400, "400 bad query\n");
    return serve_alertz(ctx);
  }
  if (path == "/replicaz" && config_.auditor != nullptr) {
    return serve_replicaz(query);
  }
  return error_response(404, "404 not found\n");
}

net::MessageHandler AdminHttpServer::handler() {
  return [this](net::ServerContext& ctx, BytesView raw) -> Result<Bytes> {
    Result<HttpRequest> req = http::parse_request(raw);
    if (!req.is_ok()) {
      return error_response(400, "400 bad request\n").serialize();
    }
    return handle(ctx, *req).serialize();
  };
}

}  // namespace globe::obs
