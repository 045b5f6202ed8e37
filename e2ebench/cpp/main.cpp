// Real-socket GlobeDoc benchmark (see e2ebench/README.md).
//
//   globedoc_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--spans-out <file>]
//
// Starts the whole stack on 127.0.0.1, sets it up three times (reporting the
// median set-up time), then drives closed-loop browser clients against the
// proxy for --seconds.  With --trace 1 the run is split in two halves:
// bench-side spans off, then on; the per-layer split comes from the second
// half and the tracing overhead from comparing the two.  Human-readable
// report lines come first; the last line of stdout is one JSON object.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "calibrate.hpp"
#include "load.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "stats.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace e2ebench {
namespace {

constexpr std::size_t kSetups = 3;
constexpr std::size_t kCanaryEvery = 64;
constexpr std::size_t kSpanSampleTrees = 256;

struct Workload {
  std::string name;
  std::size_t clients = 1;
  Pattern pattern = Pattern::kUniform;
  bool cache_bindings = true;
  CorpusShape shape;
  double write_rate = 0.0;  // writes per second (update_mix)
};

CorpusShape small_docs(std::size_t docs, std::size_t elements, std::size_t min_size,
                       std::size_t max_size) {
  CorpusShape shape;
  shape.docs = docs;
  shape.elements_per_doc = elements;
  shape.min_size = min_size;
  shape.max_size = max_size;
  return shape;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w(4);
  w[0].name = "warm_small";
  w[0].clients = 4;
  w[0].shape = small_docs(16, 8, 1024, 4096);
  w[1].name = "cold_bind";
  w[1].clients = 1;
  w[1].pattern = Pattern::kRoundRobin;
  w[1].cache_bindings = false;
  w[1].shape = small_docs(72, 2, 256, 1024);
  w[2].name = "bulk_read";
  w[2].clients = 1;
  w[2].shape = CorpusShape{.docs = 4, .elements_per_doc = 4,
                           .sizes = {256 * 1024, 256 * 1024, 256 * 1024, 1024 * 1024}};
  w[3].name = "update_mix";
  w[3].clients = 3;
  w[3].shape = small_docs(8, 8, 1024, 4096);
  w[3].write_rate = 20.0;
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--spans-out") a.spans_out = value;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Heap bytes the process has allocated and not freed (arena chunks in use
/// plus mmapped blocks).  Unlike resident size it does not move with what
/// the allocator keeps from freed buffers, which swings tens of MB between
/// identical bulk_read runs.
double heap_in_use_mb() {
  struct mallinfo2 mi = ::mallinfo2();
  return double(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// One measured phase.  The phase is cut into one-second windows; the
/// end-to-end rates and the median latency are medians over windows, so a
/// burst of interference from outside the process moves one window, not
/// the result.
struct PhaseResult {
  ClientTally clients;
  WriterTally writer;
  WindowSeries windows;
  double window_s = 0.0;
  std::vector<double> cpu_at;   // process CPU seconds at each window boundary
  std::vector<double> heap_mb;  // heap in use, sampled ten times per window
};

/// Per-window values of the end-to-end rates.
struct Rates {
  std::vector<double> rps, p50_ms, goodput_mbps, cpu_us_per_req;
};

Rates window_rates(const PhaseResult& r) {
  Rates out;
  const WindowSeries& s = r.windows;
  for (std::size_t w = 0; w < s.ok.size(); ++w) {
    out.rps.push_back(s.ok[w] / r.window_s);
    out.goodput_mbps.push_back(s.bytes[w] / 1e6 / r.window_s);
    if (s.ok[w] == 0) continue;
    out.p50_ms.push_back(s.p50_ms[w]);
    out.cpu_us_per_req.push_back((r.cpu_at[w + 1] - r.cpu_at[w]) * 1e6 / s.ok[w]);
  }
  return out;
}

PhaseResult run_phase(Stack& stack, Corpus& corpus, const Workload& wl, double seconds,
                      std::uint64_t seed, std::size_t& next_write) {
  PhaseResult r;
  const auto windows = std::max<std::size_t>(1, std::size_t(std::lround(seconds)));
  const std::int64_t start = now_ns();
  const std::int64_t window_ns = std::int64_t(seconds * 1e9) / std::int64_t(windows);
  const std::int64_t deadline = start + window_ns * std::int64_t(windows);
  r.window_s = double(window_ns) / 1e9;
  WindowAggregator aggregator(start, window_ns, windows, wl.clients);
  r.cpu_at.push_back(cpu_seconds());
  std::vector<ClientTally> tallies(wl.clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < wl.clients; ++c) {
    ClientSpec spec{.port = stack.proxy_port(), .pattern = wl.pattern, .seed = seed,
                    .index = c, .canary_every = kCanaryEvery, .deadline_ns = deadline,
                    .windows = &aggregator};
    threads.emplace_back([&tallies, &corpus, spec] {
      tallies[spec.index] = run_client(spec, corpus);
    });
  }
  if (wl.write_rate > 0) {
    threads.emplace_back([&] {
      r.writer = run_writer(stack, corpus, wl.write_rate, start, deadline, next_write);
    });
  }
  // Heap is sampled ten times per window: a single client has up to a few
  // MB in flight at any instant, and the median over many instants is what
  // stays put between runs.
  constexpr std::int64_t kHeapSamplesPerWindow = 10;
  for (std::int64_t tick = 1; tick <= std::int64_t(windows) * kHeapSamplesPerWindow; ++tick) {
    std::int64_t wait = start + window_ns * tick / kHeapSamplesPerWindow - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    r.heap_mb.push_back(heap_in_use_mb());
    if (tick % kHeapSamplesPerWindow == 0) r.cpu_at.push_back(cpu_seconds());
  }
  for (auto& t : threads) t.join();
  for (const auto& t : tallies) r.clients.merge(t);
  r.windows = aggregator.take();
  return r;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// A line for humans: value, unit, sample count and an optional note.
  void line(const std::string& name, double value, const std::string& unit,
            std::uint64_t n, const std::string& note = "") {
    std::printf("metric %-34s %14.6f %-6s n=%llu%s%s\n", name.c_str(), value, unit.c_str(),
                static_cast<unsigned long long>(n), note.empty() ? "" : "  ",
                note.c_str());
  }
  /// A metric of the final JSON object (also printed as a line).
  void emit(const std::string& name, double value, const std::string& unit,
            std::uint64_t n, const std::string& note = "") {
    line(name, value, unit, n, note);
    metrics_.push_back(Metric{name, value, unit});
  }
  /// Value of an emitted metric (0 when absent).
  double value(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  void json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

/// Percentile under the ten-beyond rule; when the rule is not met the
/// nearest-rank value is still returned and the note says so.
double pct(std::vector<double> samples, double q, std::string& note) {
  if (samples.empty()) {
    note = "no samples";
    return 0.0;
  }
  if (auto v = percentile(samples, q)) return *v;
  note = "fewer than 10 samples beyond p" + std::to_string(int(q * 100)) +
         ": not a reportable percentile";
  std::sort(samples.begin(), samples.end());
  auto rank = std::size_t(std::ceil(q * double(samples.size())));
  return samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void emit_pct(Report& r, const std::string& name, const std::vector<double>& samples,
              double q, const std::string& unit, bool to_json) {
  std::string note;
  double v = pct(samples, q, note);
  if (to_json) r.emit(name, v, unit, samples.size(), note);
  else r.line(name, v, unit, samples.size(), note);
}

// ---------------------------------------------------------------- traced split

struct ProfileTotals {
  std::uint64_t calls = 0, cpu_ns = 0, self_cpu_ns = 0;
};

ProfileTotals profile_leaf(const globe::obs::ProfileRegistry& registry,
                           const std::function<bool(const globe::obs::ProfileSample&)>& pick) {
  ProfileTotals t;
  for (const auto& s : registry.snapshot().samples) {
    if (!pick(s)) continue;
    t.calls += s.stat.calls;
    t.cpu_ns += s.stat.cpu_ns;
    t.self_cpu_ns += s.stat.self_cpu_ns;
  }
  return t;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void report_layers(Report& r, Stack& stack, std::vector<Span>& spans,
                   const PhaseResult& off, const PhaseResult& on, const HostInfo& host,
                   const CryptoCalibration& crypto) {
  std::size_t linked = link_server_spans(spans);
  auto children = index_children(spans);
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;

  std::vector<double> rpc_overhead, http_overhead, handler, self;
  std::map<std::string, std::vector<double>> server_us;
  std::uint64_t requests = 0, server_spans_keyed = 0;
  static const std::vector<const Span*> kNone;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const auto& kids = it == children.end() ? kNone : it->second;
    switch (s.kind) {
      case SpanKind::kClient: ++requests; break;
      case SpanKind::kProxyHandler: {
        handler.push_back(double(s.duration()) / 1e3);
        self.push_back(double(self_time_ns(s, kids)) / 1e3);
        auto client = by_id.find(s.parent);
        if (client != by_id.end() && client->second->kind == SpanKind::kClient) {
          http_overhead.push_back(double(client->second->duration() - s.duration()) / 1e3);
        }
        break;
      }
      case SpanKind::kUpstream:
        for (const Span* k : kids) {
          if (k->kind == SpanKind::kServerHandler) {
            rpc_overhead.push_back(double(s.duration() - k->duration()) / 1e3);
          }
        }
        break;
      case SpanKind::kServerHandler: {
        if (s.keyed) ++server_spans_keyed;
        std::string key = role_name(s.role);
        if (s.role == Role::kObject) {
          if (s.service == 3 && s.method == 1) key = "object.get_element";
          else if (s.service == 4 && s.method == 2) key = "object.get_cert";
          else if (s.service == 5 && s.method == 3) key = "object.update";
          else key = "object.other";
        }
        server_us[key].push_back(double(s.duration()) / 1e3);
        break;
      }
      default: break;
    }
  }
  const double per = requests == 0 ? 0.0 : 1.0 / double(requests);
  LayerProbes& p = stack.probes();

  emit_pct(r, "net.rpc_overhead_us.p50", rpc_overhead, 0.5, "us", true);
  emit_pct(r, "net.http_overhead_us.p50", http_overhead, 0.5, "us", true);
  r.emit("rpc.calls_per_req.naming", double(p.naming_calls) * per, "count", requests);
  r.emit("rpc.calls_per_req.location", double(p.location_calls) * per, "count", requests);
  r.emit("rpc.calls_per_req.object", double(p.object_calls) * per, "count", requests);
  r.emit("rpc.errors.total", double(p.errors_total()), "count", requests);
  for (std::size_t code = 0; code < p.rpc_errors.size(); ++code) {
    if (p.rpc_errors[code] != 0) {
      r.line(std::string("rpc.errors.") +
                 globe::util::error_code_name(static_cast<globe::util::ErrorCode>(code)),
             double(p.rpc_errors[code]), "count", requests);
    }
  }
  r.emit("proxy.upstream_inflight_mean", p.upstream.mean(), "count", p.upstream.arrivals());
  emit_pct(r, "proxy.handler_us.p50", handler, 0.5, "us", true);
  emit_pct(r, "proxy.handler_us.p99", handler, 0.99, "us", true);
  emit_pct(r, "proxy.self_us.p50", self, 0.5, "us", true);

  auto& reg = stack.proxy_registry();
  Ratio memo{reg.counter("proxy.cert_verify_memo_hits").value(),
             reg.counter("proxy.cert_verify_memo_hits").value() +
                 reg.counter("proxy.cert_verifies").value()};
  r.emit("proxy.cert_memo_hit_ratio", memo.value(), "ratio", memo.base,
         "hits/(hits+verifies) = " + memo.to_string());
  r.emit("proxy.cert_memo_base", double(memo.base), "count", memo.base);

  emit_pct(r, "server.object.get_element_us.p50", server_us["object.get_element"], 0.5,
           "us", true);
  emit_pct(r, "server.object.get_cert_us.p50", server_us["object.get_cert"], 0.5, "us",
           true);
  emit_pct(r, "server.object.update_us.p50", server_us["object.update"], 0.5, "us", true);
  r.emit("server.object.inflight_mean", p.object.mean(), "count", p.object.arrivals());
  emit_pct(r, "server.naming.handler_us.p50", server_us["naming"], 0.5, "us", true);
  r.emit("naming.verifies_per_req",
         double(reg.counter("naming.signatures_verified").value()) * per, "count", requests);
  emit_pct(r, "server.location.handler_us.p50", server_us["location"], 0.5, "us", true);
  r.emit("location.lookups_per_req", double(p.location_lookups) * per, "count", requests);

  auto verify = profile_leaf(stack.proxy_profile(),
                             [](const auto& s) { return s.leaf == "rsa_verify"; });
  r.emit("crypto.rsa_verify.self_us",
         verify.calls ? double(verify.self_cpu_ns) / double(verify.calls) / 1e3 : 0.0, "us",
         verify.calls);
  r.emit("crypto.rsa_verify.calls_per_req", double(verify.calls) * per, "count", requests);
  auto sha = profile_leaf(stack.proxy_profile(), [](const auto& s) {
    return ends_with(s.stack, "element_verify;sha1");
  });
  r.emit("crypto.sha1.self_ns_per_byte",
         on.clients.bytes ? double(sha.self_cpu_ns) / double(on.clients.bytes) : 0.0,
         "ns/B", sha.calls, "per verified content byte");
  // The proxy's own stage probes, on report lines: inclusive CPU per call.
  for (std::string probe : {"bind", "cert_verify", "element_verify"}) {
    auto t = profile_leaf(stack.proxy_profile(),
                          [&](const auto& s) { return s.leaf == probe; });
    r.line("profile." + probe + ".cpu_us_per_call",
           t.calls ? double(t.cpu_ns) / double(t.calls) / 1e3 : 0.0, "us", t.calls);
  }
  auto sign = profile_leaf(stack.owner_profile(),
                           [](const auto& s) { return s.leaf == "rsa_sign"; });
  r.emit("crypto.rsa_sign.self_us",
         sign.calls ? double(sign.self_cpu_ns) / double(sign.calls) / 1e3 : 0.0, "us",
         sign.calls);

  emit_pct(r, "owner.sign_ms.p50", on.writer.sign_ms, 0.5, "ms", true);
  emit_pct(r, "owner.push_ms.p50", on.writer.push_ms, 0.5, "ms", true);
  emit_pct(r, "owner.publish_ms.p50", on.writer.publish_ms, 0.5, "ms", true);
  emit_pct(r, "owner.publish_ms.p90", on.writer.publish_ms, 0.9, "ms", true);
  double late = 0.0;
  for (double l : on.writer.lateness_ms) late = std::max(late, l);
  r.emit("owner.lateness_ms.max", late, "ms", on.writer.lateness_ms.size());

  r.emit("server.proxy.inflight_max", double(p.proxy.max()), "count", p.proxy.arrivals());
  r.emit("server.object.inflight_max", double(p.object.max()), "count", p.object.arrivals());
  r.emit("server.naming.inflight_max", double(p.naming.max()), "count", p.naming.arrivals());
  r.emit("server.location.inflight_max", double(p.location.max()), "count",
         p.location.arrivals());

  r.emit("crypto.sha1_mbps", crypto.sha1_1m_mbps, "MB/s", 5, "SHA-1 over 1 MB");
  r.emit("crypto.sha1_1k_mbps", crypto.sha1_1k_mbps, "MB/s", 5, "SHA-1 over 1 KB");
  r.emit("crypto.rsa_verify_us", crypto.rsa_verify_us, "us", 5, "RSA-1024 verify");
  r.emit("crypto.rsa_sign_us", crypto.rsa_sign_us, "us", 5, "RSA-1024 sign");
  r.emit("host.calib_loop_ms", host.calib_loop_ms, "ms", 5);

  const double rps_off = median(window_rates(off).rps);
  const double rps_on = median(window_rates(on).rps);
  r.line("trace.throughput_rps.untraced", rps_off, "1/s", off.clients.ok);
  r.line("trace.throughput_rps.traced", rps_on, "1/s", on.clients.ok);
  r.emit("trace.overhead_frac", rps_off > 0 ? 1.0 - rps_on / rps_off : 0.0, "ratio",
         on.clients.ok, "1 - traced/untraced throughput_rps");
  Ratio link{linked, server_spans_keyed};
  r.emit("trace.server_linked_frac", link.value(), "ratio", link.base,
         "server spans paired with their upstream span = " + link.to_string());
}

/// Prints whether the traced run shows the workload doing what it exists
/// for (README "Workloads").  Informational: it does not change `correct`.
void expect_shape(const Report& r, const std::string& workload) {
  auto expect = [&](const char* what, bool held) {
    std::printf("# expect %s %s: %s\n", workload.c_str(), what, held ? "held" : "NOT HELD");
  };
  if (workload == "warm_small") {
    expect("proxy.upstream_inflight_mean <= 1", r.value("proxy.upstream_inflight_mean") <= 1.0);
    expect("rpc.calls_per_req.naming < 0.1", r.value("rpc.calls_per_req.naming") < 0.1);
  } else if (workload == "cold_bind") {
    expect("proxy.cert_memo_hit_ratio < 0.05", r.value("proxy.cert_memo_hit_ratio") < 0.05);
    expect("rpc.calls_per_req.naming >= 1", r.value("rpc.calls_per_req.naming") >= 1.0);
  } else if (workload == "bulk_read") {
    expect("crypto.sha1.self_ns_per_byte > 0", r.value("crypto.sha1.self_ns_per_byte") > 0);
  } else if (workload == "update_mix") {
    expect("server.object.update_us.p50 > 0", r.value("server.object.update_us.p50") > 0);
  }
}

// ---------------------------------------------------------------- main

int run(const Args& args) {
  const auto all = workloads();
  const Workload* wl = nullptr;
  for (const auto& w : all) {
    if (w.name == args.workload) wl = &w;
  }
  if (wl == nullptr) throw std::runtime_error("unknown workload '" + args.workload + "'");

  // Each canary refusal makes the proxy log a warning line; keep stderr
  // quiet so the run measures the stack, not a terminal.
  globe::util::set_log_level(globe::util::LogLevel::kError);

  HostInfo host = probe_host();
  CryptoCalibration crypto = calibrate_crypto(args.seed);
  std::printf("# host nproc=%u loadavg_1m=%.2f build=%s ndebug=%d calib_loop_ms=%.3f "
              "flags=%s\n",
              host.nproc, host.loadavg_1m, host.build_type.c_str(), host.ndebug ? 1 : 0,
              host.calib_loop_ms, host.flags().c_str());
  std::printf("# crypto sha1_1k_mbps=%.2f sha1_1m_mbps=%.2f rsa_verify_us=%.2f "
              "rsa_sign_us=%.2f\n",
              crypto.sha1_1k_mbps, crypto.sha1_1m_mbps, crypto.rsa_verify_us,
              crypto.rsa_sign_us);

  CorpusShape shape = wl->shape;
  shape.writes = std::size_t(std::ceil(wl->write_rate * args.seconds)) + 16;
  Corpus corpus = make_corpus(shape, args.seed);
  StackOptions options{.cache_bindings = wl->cache_bindings, .instrument = args.trace,
                       .seed = args.seed};

  // Set up several times; the last stack is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (stack) {
      stack->shutdown();
      stack.reset();
      // Hand the discarded stack's memory back, so the peak resident set
      // reflects one stack rather than what the allocator kept from
      // earlier set-ups.
      ::malloc_trim(0);
    }
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(options, corpus);
    warm_up(stack->proxy_port(), corpus);
    setup_s.push_back(double(now_ns() - t0) / 1e9);
    std::printf("# setup %zu: %.4f s\n", i + 1, setup_s.back());
  }
  std::fflush(stdout);

  std::size_t next_write = 0;
  PhaseResult off, on;
  std::vector<Span> spans;
  if (args.trace) {
    off = run_phase(*stack, corpus, *wl, args.seconds / 2, args.seed, next_write);
    stack->probes().reset();
    stack->proxy_registry().reset();
    stack->proxy_profile().reset();
    stack->owner_profile().reset();
    SpanStore::instance().set_enabled(true);
    on = run_phase(*stack, corpus, *wl, args.seconds / 2, args.seed + 1, next_write);
    SpanStore::instance().set_enabled(false);
  } else {
    on = run_phase(*stack, corpus, *wl, args.seconds, args.seed, next_write);
  }
  stack->shutdown();
  if (args.trace) spans = SpanStore::instance().take_all();

  // Totals over every measured phase.
  ClientTally total = off.clients;
  total.merge(on.clients);
  const std::uint64_t attempted = total.attempted + off.writer.attempted + on.writer.attempted;
  const std::uint64_t failed = total.failed + off.writer.failed + on.writer.failed;
  const bool correct = total.wrong_bytes == 0 && total.canary_served == 0 &&
                       total.canary_403 > 0 && total.ok > 0 && crypto.rsa_verify_us > 0;

  std::printf("# workload %s seed=%llu seconds=%.3f trace=%d clients=%zu docs=%zu\n",
              wl->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, wl->clients, corpus.docs.size());
  std::printf("# checks ok=%llu canary_403=%llu wrong_bytes=%llu canary_served=%llu "
              "failed=%llu (transport=%llu http_403=%llu http_other=%llu "
              "writes_failed=%llu)\n",
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.canary_403),
              static_cast<unsigned long long>(total.wrong_bytes),
              static_cast<unsigned long long>(total.canary_served),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(total.transport_errors),
              static_cast<unsigned long long>(total.http_403),
              static_cast<unsigned long long>(total.http_other),
              static_cast<unsigned long long>(off.writer.failed + on.writer.failed));

  Report r;
  const bool e2e = !args.trace;
  const PhaseResult& m = on;  // the measured phase (traced half when tracing)
  auto put = [&](const std::string& name, double v, const std::string& unit,
                 std::uint64_t n, const std::string& note = "") {
    if (e2e) r.emit(name, v, unit, n, note);
    else r.line(name, v, unit, n, note);
  };
  const Rates rates = window_rates(m);
  const std::string per_window = "median of " + std::to_string(rates.rps.size()) +
                                 " one-second windows";
  auto print_series = [](const char* name, const std::vector<double>& v) {
    std::printf("# windows %s=", name);
    for (double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  };
  print_series("rps", rates.rps);
  print_series("p50_ms", rates.p50_ms);
  print_series("p90_ms", m.windows.p90_ms);
  print_series("p99_ms", m.windows.p99_ms);
  print_series("cpu_us_per_req", rates.cpu_us_per_req);
  // Throughput is printed but not gated: in a closed loop it follows the
  // mean latency, so host stalls move it most (README, "End-to-end metrics").
  r.line("throughput_rps", median(rates.rps), "1/s", m.clients.ok, per_window);
  put("fetch_p50_ms", median(rates.p50_ms), "ms", m.clients.ok, per_window);
  // The tail is printed but not gated: between identical runs the spread
  // of p90 and p99 went past any bound a gate can hold whenever other
  // guests loaded the host (README, "End-to-end metrics").
  if (!m.windows.p90_ms.empty()) {
    r.line("fetch_p90_ms", median(m.windows.p90_ms), "ms", m.clients.ok,
           "median p90 of " + std::to_string(m.windows.p90_ms.size()) + " windows");
  } else {
    emit_pct(r, "fetch_p90_ms", m.windows.tail_ms, 0.9, "ms", false);
  }
  if (!m.windows.p99_ms.empty()) {
    r.line("fetch_p99_ms", median(m.windows.p99_ms), "ms", m.clients.ok,
           "median p99 of " + std::to_string(m.windows.p99_ms.size()) +
               " stretches of >=1010 samples");
  } else {
    emit_pct(r, "fetch_p99_ms", m.windows.tail_ms, 0.99, "ms", false);
  }
  r.line("goodput_mbps", median(rates.goodput_mbps), "MB/s", m.clients.ok, per_window);
  put("cpu_us_per_req", median(rates.cpu_us_per_req), "us", m.clients.ok,
      per_window + ", process user+sys, clients included");
  put("heap_mb", median(m.heap_mb), "MB", m.heap_mb.size(),
      "heap in use, median of samples taken ten times a second");
  if (!m.heap_mb.empty()) {
    auto [lo, hi] = std::minmax_element(m.heap_mb.begin(), m.heap_mb.end());
    std::printf("# heap_mb samples min=%.3f max=%.3f\n", *lo, *hi);
  }
  r.line("rss_mb", peak_rss_mb(), "MB", 1,
         "peak resident set, allocator retention included");
  put("setup_s", median(setup_s), "s", setup_s.size(), "median of set-ups");
  Ratio failed_frac{failed, attempted};
  r.line("failed_frac", failed_frac.value(), "ratio", attempted, failed_frac.to_string());
  r.line("canary_403", double(total.canary_403), "count", total.canary_403,
         "expected refusals, not failures");
  if (wl->write_rate > 0) {
    emit_pct(r, "publish_p50_ms", m.writer.publish_ms, 0.5, "ms", false);
    emit_pct(r, "publish_p90_ms", m.writer.publish_ms, 0.9, "ms", false);
  }
  if (args.trace) {
    report_layers(r, *stack, spans, off, on, host, crypto);
    expect_shape(r, wl->name);
    if (!args.spans_out.empty() &&
        !write_span_sample(args.spans_out, spans, kSpanSampleTrees)) {
      std::fprintf(stderr, "could not write %s\n", args.spans_out.c_str());
    }
  }
  r.json(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(e2ebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "globedoc_e2ebench: %s\n", e.what());
    return 1;
  }
}
