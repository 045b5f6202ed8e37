#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "wire.hpp"

namespace e2ebench {

const char* role_name(Role role) {
  switch (role) {
    case Role::kProxy: return "proxy";
    case Role::kObject: return "object";
    case Role::kNaming: return "naming";
    case Role::kLocation: return "location";
    case Role::kCanary: return "canary";
    case Role::kNone: break;
  }
  return "none";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanStore& SpanStore::instance() {
  static SpanStore store;
  return store;
}

void SpanStore::record(const Span& span) {
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(4096);
    buffer = owned.get();
    globe::util::LockGuard lock(mutex_);
    buffers_.push_back(std::move(owned));
  }
  buffer->push_back(span);
}

std::vector<Span> SpanStore::take_all() {
  globe::util::LockGuard lock(mutex_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

std::uint64_t& current_proxy_span() {
  thread_local std::uint64_t id = 0;
  return id;
}

std::int64_t self_time_ns(const Span& parent, const std::vector<const Span*>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> parts;
  parts.reserve(children.size());
  for (const Span* c : children) {
    std::int64_t a = std::max(c->start_ns, parent.start_ns);
    std::int64_t b = std::min(c->end_ns, parent.end_ns);
    if (b > a) parts.emplace_back(a, b);
  }
  std::sort(parts.begin(), parts.end());
  std::int64_t covered = 0, reach = parent.start_ns;
  for (auto [a, b] : parts) {
    a = std::max(a, reach);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return parent.duration() - covered;
}

std::size_t link_server_spans(std::vector<Span>& spans) {
  std::unordered_map<TraceKey, std::vector<const Span*>, TraceKeyHash> upstream;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kUpstream && s.keyed) upstream[s.key].push_back(&s);
  }
  std::size_t linked = 0;
  for (Span& s : spans) {
    if (s.kind != SpanKind::kServerHandler || !s.keyed) continue;
    auto it = upstream.find(s.key);
    if (it == upstream.end()) continue;
    for (const Span* u : it->second) {
      if (u->start_ns <= s.start_ns && s.end_ns <= u->end_ns) {
        s.parent = u->id;
        ++linked;
        break;
      }
    }
  }
  return linked;
}

std::unordered_map<std::uint64_t, std::vector<const Span*>> index_children(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  return children;
}

namespace {

const char* kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient: return "client";
    case SpanKind::kProxyHandler: return "proxy_handler";
    case SpanKind::kUpstream: return "upstream";
    case SpanKind::kServerHandler: return "server_handler";
    case SpanKind::kOwnerSign: return "owner_sign";
    case SpanKind::kOwnerPush: return "owner_push";
  }
  return "unknown";
}

}  // namespace

bool write_span_sample(const std::string& path, const std::vector<Span>& spans,
                       std::size_t max_trees) {
  std::vector<const Span*> roots;  // browser requests and owner operations
  for (const Span& s : spans) {
    if (s.parent == 0 && s.kind != SpanKind::kServerHandler) roots.push_back(&s);
  }
  std::sort(roots.begin(), roots.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  std::vector<const Span*> picked;
  constexpr std::size_t kSlowest = 16;
  if (roots.size() <= max_trees) {
    picked = roots;
  } else {
    std::size_t even = max_trees > kSlowest ? max_trees - kSlowest : max_trees;
    for (std::size_t i = 0; i < even; ++i) picked.push_back(roots[i * roots.size() / even]);
    std::vector<const Span*> by_duration = roots;
    std::partial_sort(by_duration.begin(), by_duration.begin() + kSlowest,
                      by_duration.end(), [](const Span* a, const Span* b) {
                        return a->duration() > b->duration();
                      });
    for (std::size_t i = 0; i < kSlowest && picked.size() < max_trees; ++i) {
      if (std::find(picked.begin(), picked.end(), by_duration[i]) == picked.end()) {
        picked.push_back(by_duration[i]);
      }
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto children = index_children(spans);
  static const std::vector<const Span*> kNone;
  std::function<void(const Span&, int)> emit = [&](const Span& s, int depth) {
    auto it = children.find(s.id);
    const auto& kids = it == children.end() ? kNone : it->second;
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"depth\":%d,\"kind\":\"%s\","
                 "\"role\":\"%s\",\"rpc\":\"%s\",\"start_ns\":%lld,"
                 "\"dur_ns\":%lld,\"self_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), depth, kind_name(s.kind),
                 role_name(s.role),
                 s.service == 0 ? "" : rpc_label(s.service, s.method).c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.duration()),
                 static_cast<long long>(self_time_ns(s, kids)));
    for (const Span* c : kids) emit(*c, depth + 1);
  };
  for (const Span* r : picked) emit(*r, 0);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
