// Tests for the benchmark's own code: percentiles and their sample rule,
// ratios with their base, rpc header decoding, reply parsing and span
// self-time arithmetic.  The end-to-end smoke check lives in run.py
// (`python3 e2ebench/run.py --check`).
#include <gtest/gtest.h>

#include <numeric>

#include "rpc/rpc.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/serial.hpp"
#include "wire.hpp"

namespace e2ebench {
namespace {

using globe::util::Bytes;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankMedianAndTail) {
  auto v = one_to(1000 + 10);
  auto p50 = percentile(v, 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(*p50, 505.0);
  v = one_to(1010);
  auto p99 = percentile(v, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 1000.0);  // rank ceil(0.99*1010)=1000, 10 beyond
}

TEST(Percentile, RequiresTenSamplesBeyond) {
  auto v = one_to(1009);  // rank 999, 10 beyond: ok
  EXPECT_TRUE(percentile(v, 0.99).has_value());
  v = one_to(1000);  // rank 990, 10 beyond: ok
  EXPECT_TRUE(percentile(v, 0.99).has_value());
  v = one_to(999);  // rank 990, 9 beyond: refused
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  v = one_to(19);  // median rank 10, 9 beyond
  EXPECT_FALSE(percentile(v, 0.5).has_value());
  v = one_to(20);
  EXPECT_TRUE(percentile(v, 0.5).has_value());
  std::vector<double> none;
  EXPECT_FALSE(percentile(none, 0.5).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Ratio, CarriesItsBase) {
  Ratio r{1, 4};
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  EXPECT_EQ(r.to_string(), "0.2500 (1/4)");
  Ratio empty{0, 0};
  EXPECT_DOUBLE_EQ(empty.value(), 0.0);
  EXPECT_EQ(empty.to_string(), "0.0000 (0/0)");
}

TEST(InflightGauge, MeanAtArrivalAndMax) {
  InflightGauge g;
  g.enter();  // 1 in flight
  g.enter();  // 2 in flight
  g.leave();
  g.enter();  // 2 again
  EXPECT_DOUBLE_EQ(g.mean(), 5.0 / 3.0);
  EXPECT_EQ(g.max(), 2u);
  g.leave();
  g.leave();
  g.reset();
  g.enter();
  EXPECT_DOUBLE_EQ(g.mean(), 1.0);
  EXPECT_EQ(g.max(), 1u);
}

TEST(WindowAggregator, FinishesWindowsInOrderOnceEveryClientReported) {
  WindowAggregator agg(/*start_ns=*/1000, /*window_ns=*/100, /*windows=*/3, /*clients=*/2);
  EXPECT_EQ(agg.window_of(999), 0u);
  EXPECT_EQ(agg.window_of(1199), 1u);
  EXPECT_EQ(agg.window_of(1300), 3u);  // past the end
  agg.submit(0, {1.0, 3.0}, 10);
  agg.submit(1, {5.0}, 7);  // client 0 runs ahead
  agg.submit(0, {2.0}, 5);
  agg.submit(1, {}, 0);
  agg.submit(2, {}, 0);
  agg.submit(2, {4.0}, 1);
  WindowSeries s = agg.take();
  EXPECT_EQ(s.ok, (std::vector<double>{3, 1, 1}));
  EXPECT_EQ(s.bytes, (std::vector<double>{15, 7, 1}));
  EXPECT_EQ(s.p50_ms, (std::vector<double>{2.0, 5.0, 4.0}));
  EXPECT_TRUE(s.p90_ms.empty());  // windows of 1-2 samples: no reportable p90
  EXPECT_TRUE(s.p99_ms.empty());  // 5 samples: no reportable p99
  EXPECT_EQ(s.tail_ms.size(), 5u);
}

TEST(WindowAggregator, P99PerStretchOfEnoughSamples) {
  WindowAggregator agg(0, 100, 3, 1);
  agg.submit(0, one_to(600), 0);   // 600 samples: stretch still open
  agg.submit(1, one_to(600), 0);   // 1200: p99 reportable, stretch closes
  agg.submit(2, one_to(1000), 0);  // 1000 on its own: reportable
  WindowSeries s = agg.take();
  ASSERT_EQ(s.p99_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(s.p99_ms[0], 594.0);  // rank 1188 of two interleaved 1..600
  EXPECT_DOUBLE_EQ(s.p99_ms[1], 990.0);
  EXPECT_EQ(s.p90_ms, (std::vector<double>{540.0, 540.0, 900.0}));  // per window
  EXPECT_TRUE(s.tail_ms.empty());
}

Bytes rpc_request(bool traced, std::uint16_t service, std::uint16_t method) {
  globe::util::Writer w;
  if (traced) {
    w.u16(globe::rpc::kTraceMarker);
    w.u8(globe::rpc::kTraceVersion);
    globe::obs::TraceContext{0x1111, 0x2222, 0x3333, true}.encode(w);
  }
  w.u16(service);
  w.u16(method);
  w.raw(Bytes{1, 2, 3});
  return w.take();
}

TEST(RpcHeader, PlainRequest) {
  auto h = decode_rpc_header(rpc_request(false, 3, 1));
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(h->traced);
  EXPECT_EQ(h->service, 3);
  EXPECT_EQ(h->method, 1);
  EXPECT_EQ(service_family(h->service), "object");
  EXPECT_EQ(rpc_label(h->service, h->method), "object.access/1");
}

TEST(RpcHeader, TracedRequest) {
  auto h = decode_rpc_header(rpc_request(true, 1, 1));
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->traced);
  EXPECT_EQ(h->ctx.trace_hi, 0x1111u);
  EXPECT_EQ(h->ctx.trace_lo, 0x2222u);
  EXPECT_EQ(h->ctx.parent_span, 0x3333u);
  EXPECT_EQ(h->service, 1);
  EXPECT_EQ(service_family(h->service), "naming");
}

TEST(RpcHeader, TruncatedOrUnknownVersionRejected) {
  Bytes traced = rpc_request(true, 2, 1);
  EXPECT_FALSE(decode_rpc_header(globe::util::BytesView(traced).first(10)).has_value());
  traced[2] = 9;  // version byte
  EXPECT_FALSE(decode_rpc_header(traced).has_value());
  EXPECT_FALSE(decode_rpc_header(Bytes{0x00}).has_value());
}

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(Wire, ReplyFrameAndHttp) {
  Bytes frame = text("\x01HTTP/1.1 403 Forbidden\r\nContent-Length: 5\r\n\r\nnope!");
  auto f = decode_reply_frame(frame);
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE(f->ok);
  auto http = parse_http_reply(f->payload);
  ASSERT_TRUE(http.has_value());
  EXPECT_EQ(http->status, 403);
  EXPECT_EQ(http->body.size(), 5u);

  Bytes short_body = text("HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nabc");
  EXPECT_FALSE(parse_http_reply(short_body).has_value());
  auto err = decode_reply_frame(Bytes{0, 7, 0, 0});
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->ok);
  EXPECT_FALSE(decode_reply_frame(Bytes{}).has_value());
}

TEST(Wire, RequestIdRoundTrip) {
  std::string req = make_get("http://globe/doc001.vu.nl/e0.bin", 424242);
  EXPECT_EQ(find_request_id(text(req)), 424242u);
  EXPECT_EQ(find_request_id(text("GET / HTTP/1.1\r\n\r\n")), 0u);
}

TEST(Wire, ContentStampNamesElementAndVersion) {
  Bytes body = element_content("doc001.vu.nl", "e3.bin", 7, 2048, 42);
  EXPECT_EQ(body.size(), 2048u);
  EXPECT_EQ(body, element_content("doc001.vu.nl", "e3.bin", 7, 2048, 42));
  EXPECT_NE(body, element_content("doc001.vu.nl", "e3.bin", 8, 2048, 42));
  EXPECT_EQ(content_version(body, "doc001.vu.nl", "e3.bin"), 7u);
  EXPECT_FALSE(content_version(body, "doc001.vu.nl", "e4.bin").has_value());
  EXPECT_FALSE(content_version(body, "doc002.vu.nl", "e3.bin").has_value());
  EXPECT_FALSE(
      content_version(text("doc001.vu.nl/e3.bin@7"), "doc001.vu.nl", "e3.bin").has_value());
  EXPECT_FALSE(
      content_version(text("doc001.vu.nl/e3.bin@x\n"), "doc001.vu.nl", "e3.bin").has_value());
}

Span span(std::uint64_t id, std::int64_t start, std::int64_t end) {
  Span s;
  s.id = id;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  Span parent = span(1, 0, 100);
  Span a = span(2, 10, 30), b = span(3, 20, 50), c = span(4, 90, 120);
  EXPECT_EQ(self_time_ns(parent, {}), 100);
  EXPECT_EQ(self_time_ns(parent, {&a}), 80);
  // a and b overlap on [20, 30): covered = [10, 50) = 40.
  EXPECT_EQ(self_time_ns(parent, {&a, &b}), 60);
  // c sticks out of the parent: only [90, 100) counts.
  EXPECT_EQ(self_time_ns(parent, {&b, &a, &c}), 50);
}

TEST(Spans, ServerSpansLinkThroughTraceContext) {
  std::vector<Span> spans;
  Span up1 = span(10, 0, 100), up2 = span(11, 200, 300);
  up1.kind = up2.kind = SpanKind::kUpstream;
  up1.keyed = up2.keyed = true;
  up1.key = up2.key = TraceKey{1, 2, 3};  // same context, sequential calls
  Span s1 = span(20, 10, 90), s2 = span(21, 210, 290), stray = span(22, 150, 160);
  for (Span* s : {&s1, &s2, &stray}) {
    s->kind = SpanKind::kServerHandler;
    s->keyed = true;
    s->key = TraceKey{1, 2, 3};
  }
  spans = {up1, up2, s1, s2, stray};
  EXPECT_EQ(link_server_spans(spans), 2u);
  EXPECT_EQ(spans[2].parent, 10u);
  EXPECT_EQ(spans[3].parent, 11u);
  EXPECT_EQ(spans[4].parent, 0u);
  auto kids = index_children(spans);
  EXPECT_EQ(kids[10].size(), 1u);
  EXPECT_EQ(self_time_ns(spans[0], kids[10]), 20);
}

}  // namespace
}  // namespace e2ebench
