#include "load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "globedoc/hybrid_url.hpp"
#include "obs/profile.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace e2ebench {

namespace util = globe::util;
using util::Bytes;
using util::BytesView;

namespace {

constexpr int kReplyTimeoutMs = 5000;
constexpr std::size_t kMaxReply = 64 * 1024 * 1024;
constexpr std::string_view kSecurityPage = "Security Check Failed";

/// One browser connection to the proxy.  Not thread-safe.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : port_(port) {}
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends `request` as one frame and reads one reply frame into `reply`.
  /// False on connect/send/receive failure or timeout; the caller reopens.
  bool roundtrip(std::string_view request, Bytes& reply) {
    if (fd_ < 0 && !open()) return false;
    std::uint32_t n = htonl(static_cast<std::uint32_t>(request.size()));
    if (!write_all(&n, 4) || !write_all(request.data(), request.size())) return false;
    std::uint8_t len[4];
    if (!read_all(len, 4)) return false;
    std::size_t size = std::size_t{len[0]} << 24 | std::size_t{len[1]} << 16 |
                       std::size_t{len[2]} << 8 | len[3];
    if (size > kMaxReply) return false;
    reply.resize(size);
    return size == 0 || read_all(reply.data(), size);
  }

 private:
  bool open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{kReplyTimeoutMs / 1000, (kReplyTimeoutMs % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int yes = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close();
      return false;
    }
    return true;
  }
  bool write_all(const void* data, std::size_t n) {
    auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
      ssize_t r = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (r <= 0) return false;
      p += r;
      n -= std::size_t(r);
    }
    return true;
  }
  bool read_all(std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      ssize_t r = ::recv(fd_, p, n, 0);
      if (r <= 0) return false;
      p += r;
      n -= std::size_t(r);
    }
    return true;
  }

  std::uint16_t port_;
  int fd_ = -1;
};

std::string target_of(const DocumentData& doc, const ElementData& el) {
  return globe::globedoc::HybridUrl{doc.name, el.name}.to_string();
}

enum class Outcome { kOk, kCanaryRefused, kFailed, kWrongBytes, kCanaryServed };

/// Judges one reply.  For ordinary elements any version between the one
/// completed before sending and the one started by the time the reply
/// arrived is acceptable; its bytes must match exactly.
Outcome judge(bool delivered, const Bytes& frame, const DocumentData& doc,
              const ElementData& el, bool canary, std::uint32_t oldest,
              std::size_t& body_bytes, ClientTally& t) {
  if (!delivered) {
    ++t.transport_errors;
    return Outcome::kFailed;
  }
  auto reply = decode_reply_frame(frame);
  auto http = reply && reply->ok ? parse_http_reply(reply->payload) : std::nullopt;
  if (!http) {
    ++t.transport_errors;
    return Outcome::kFailed;
  }
  std::string_view body(reinterpret_cast<const char*>(http->body.data()), http->body.size());
  if (canary) {
    if (http->status == 200) return Outcome::kCanaryServed;
    if (http->status == 403 && body.find(kSecurityPage) != std::string_view::npos) {
      return Outcome::kCanaryRefused;
    }
    ++t.http_other;
    return Outcome::kFailed;
  }
  if (http->status != 200) {
    ++(http->status == 403 ? t.http_403 : t.http_other);
    return Outcome::kFailed;
  }
  std::uint32_t newest = el.started.load(std::memory_order_acquire);
  auto v = content_version(http->body, doc.name, el.name);
  if (!v || *v < oldest || *v > newest || *v >= el.versions.size()) {
    return Outcome::kWrongBytes;
  }
  const Bytes& want = el.versions[*v];
  if (want.size() != http->body.size() ||
      std::memcmp(want.data(), http->body.data(), want.size()) != 0) {
    return Outcome::kWrongBytes;
  }
  body_bytes = want.size();
  return Outcome::kOk;
}

}  // namespace

void ClientTally::merge(const ClientTally& o) {
  attempted += o.attempted;
  ok += o.ok;
  bytes += o.bytes;
  failed += o.failed;
  canary_403 += o.canary_403;
  transport_errors += o.transport_errors;
  http_403 += o.http_403;
  http_other += o.http_other;
  wrong_bytes += o.wrong_bytes;
  canary_served += o.canary_served;
}

ClientTally run_client(const ClientSpec& spec, const Corpus& corpus) {
  ClientTally t;
  Connection conn(spec.port);
  util::SplitMix64 rng(spec.seed * 0x100000001B3ull + 977 * (spec.index + 1));
  std::vector<std::vector<std::string>> targets;
  for (const auto& doc : corpus.docs) {
    targets.emplace_back();
    for (const auto& el : doc.elements) targets.back().push_back(target_of(doc, *el));
  }
  const std::string canary_target =
      target_of(corpus.canary, *corpus.canary.elements.front());
  SpanStore& store = SpanStore::instance();
  Bytes frame;
  std::size_t round_robin = spec.index;
  // Verified latencies of the window in progress; handed over whole when
  // a later window starts.
  std::size_t window = 0;
  std::vector<double> window_ms;
  std::uint64_t window_bytes = 0;
  auto submit_until = [&](std::size_t w) {
    for (; window < w && window < spec.windows->windows(); ++window) {
      spec.windows->submit(window, std::move(window_ms), window_bytes);
      window_ms.clear();
      window_bytes = 0;
    }
  };

  for (std::uint64_t k = 0;; ++k) {
    if (now_ns() >= spec.deadline_ns) break;
    bool canary = spec.canary_every != 0 && k % spec.canary_every == spec.canary_every - 1;
    const DocumentData* doc = &corpus.canary;
    const ElementData* el = corpus.canary.elements.front().get();
    const std::string* target = &canary_target;
    if (!canary) {
      std::size_t d = spec.pattern == Pattern::kRoundRobin
                          ? round_robin++ % corpus.docs.size()
                          : std::size_t(rng.below(corpus.docs.size()));
      std::size_t e = std::size_t(rng.below(corpus.docs[d].elements.size()));
      doc = &corpus.docs[d];
      el = doc->elements[e].get();
      target = &targets[d][e];
    }
    Span span;
    span.kind = SpanKind::kClient;
    span.id = store.next_id();
    const std::string request = make_get(*target, span.id);
    const std::uint32_t oldest = el->completed.load(std::memory_order_acquire);

    ++t.attempted;
    span.start_ns = now_ns();
    bool delivered = conn.roundtrip(request, frame);
    span.end_ns = now_ns();
    if (store.enabled()) store.record(span);

    std::size_t body_bytes = 0;
    switch (judge(delivered, frame, *doc, *el, canary, oldest, body_bytes, t)) {
      case Outcome::kOk:
        ++t.ok;
        t.bytes += body_bytes;
        if (spec.windows != nullptr) {
          std::size_t w = spec.windows->window_of(span.end_ns);
          submit_until(w);
          if (w < spec.windows->windows()) {
            window_ms.push_back(double(span.end_ns - span.start_ns) / 1e6);
            window_bytes += body_bytes;
          }
        }
        continue;
      case Outcome::kCanaryRefused:
        ++t.canary_403;
        continue;
      case Outcome::kWrongBytes:
        ++t.wrong_bytes;
        break;
      case Outcome::kCanaryServed:
        ++t.canary_served;
        break;
      case Outcome::kFailed:
        break;
    }
    ++t.failed;
    conn.close();  // reopen after any failure
  }
  if (spec.windows != nullptr) submit_until(spec.windows->windows());
  return t;
}

void warm_up(std::uint16_t port, const Corpus& corpus) {
  Connection conn(port);
  Bytes frame;
  ClientTally t;
  auto fetch = [&](const DocumentData& doc, const ElementData& el, bool canary) {
    bool delivered = conn.roundtrip(make_get(target_of(doc, el), 0), frame);
    std::size_t bytes = 0;
    Outcome got = judge(delivered, frame, doc, el, canary, 0, bytes, t);
    if (got != (canary ? Outcome::kCanaryRefused : Outcome::kOk)) {
      throw std::runtime_error("warm-up fetch of " + doc.name + "/" + el.name +
                               " did not verify");
    }
  };
  for (const auto& doc : corpus.docs) {
    for (const auto& el : doc.elements) fetch(doc, *el, false);
  }
  fetch(corpus.canary, *corpus.canary.elements.front(), true);
}

WriterTally run_writer(Stack& stack, Corpus& corpus, double rate, std::int64_t start_ns,
                       std::int64_t deadline_ns, std::size_t& next_write) {
  WriterTally w;
  globe::net::TcpTransport wire;
  globe::globedoc::AdminClient admin(wire, stack.object_endpoint(), stack.credentials());
  globe::obs::ProfileRegistryScope profile(&stack.owner_profile());
  SpanStore& store = SpanStore::instance();
  const auto period_ns = std::int64_t(1e9 / rate);
  const util::SimDuration validity = util::seconds(3600);

  for (std::int64_t i = 0;; ++i) {
    const std::int64_t due = start_ns + i * period_ns;
    if (due >= deadline_ns || next_write >= corpus.writes.size()) break;
    std::int64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    const PlannedWrite& plan = corpus.writes[next_write++];
    ElementData& el = *corpus.docs[plan.doc].elements[plan.element];
    globe::globedoc::ObjectOwner& owner = stack.owner(plan.doc);
    ++w.attempted;

    Span sign;
    sign.kind = SpanKind::kOwnerSign;
    sign.id = store.next_id();
    sign.start_ns = now_ns();
    w.lateness_ms.push_back(double(sign.start_ns - due) / 1e6);
    el.started.store(plan.version, std::memory_order_release);
    owner.object().put_element(
        {el.name, "application/octet-stream", el.versions[plan.version]});
    auto state = owner.sign_and_snapshot(util::RealClock().now(), validity);
    sign.end_ns = now_ns();

    Span push;
    push.kind = SpanKind::kOwnerPush;
    push.id = store.next_id();
    push.start_ns = sign.end_ns;
    auto pushed = admin.update_replica(state);
    push.end_ns = now_ns();
    if (store.enabled()) {
      store.record(sign);
      store.record(push);
    }
    w.sign_ms.push_back(double(sign.duration()) / 1e6);
    w.push_ms.push_back(double(push.duration()) / 1e6);
    if (!pushed.is_ok()) {
      ++w.failed;
      continue;
    }
    el.completed.store(plan.version, std::memory_order_release);
    w.publish_ms.push_back(double(push.end_ns - due) / 1e6);
  }
  return w;
}

}  // namespace e2ebench
