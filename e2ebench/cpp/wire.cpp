#include "wire.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>

#include "rpc/rpc.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace e2ebench {

using globe::util::BytesView;

std::optional<RpcHeader> decode_rpc_header(BytesView request) {
  RpcHeader h;
  try {
    globe::util::Reader r(request);
    std::uint16_t first = r.u16();
    if (first == globe::rpc::kTraceMarker) {
      if (r.u8() != globe::rpc::kTraceVersion) return std::nullopt;
      h.traced = true;
      h.ctx = globe::obs::TraceContext::decode(r);
      h.service = r.u16();
    } else {
      h.service = first;
    }
    h.method = r.u16();
  } catch (const globe::util::SerialError&) {
    return std::nullopt;
  }
  return h;
}

std::string_view service_family(std::uint16_t service) {
  switch (service) {
    case globe::rpc::kNamingService: return "naming";
    case globe::rpc::kLocationService: return "location";
    case globe::rpc::kGlobeDocAccess:
    case globe::rpc::kGlobeDocSecurity:
    case globe::rpc::kGlobeDocAdmin: return "object";
    default: return "other";
  }
}

std::string rpc_label(std::uint16_t service, std::uint16_t method) {
  std::string family;
  switch (service) {
    case globe::rpc::kGlobeDocAccess: family = "object.access"; break;
    case globe::rpc::kGlobeDocSecurity: family = "object.security"; break;
    case globe::rpc::kGlobeDocAdmin: family = "object.admin"; break;
    default: family = std::string(service_family(service)); break;
  }
  return family + "/" + std::to_string(method);
}

std::optional<ReplyFrame> decode_reply_frame(BytesView frame) {
  if (frame.empty()) return std::nullopt;
  ReplyFrame f;
  f.ok = frame[0] == 1;
  if (f.ok) f.payload = frame.subspan(1);
  return f;
}

namespace {

std::string_view as_text(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

bool iequals_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char a = line[i], b = name[i];
    if (a >= 'A' && a <= 'Z') a = char(a - 'A' + 'a');
    if (b >= 'A' && b <= 'Z') b = char(b - 'A' + 'a');
    if (a != b) return false;
  }
  return true;
}

std::optional<std::uint64_t> to_u64(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r')) s.remove_suffix(1);
  std::uint64_t v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || s.empty()) return std::nullopt;
  return v;
}

}  // namespace

std::optional<HttpReply> parse_http_reply(BytesView raw) {
  std::string_view text = as_text(raw);
  std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return std::nullopt;
  std::string_view head = text.substr(0, head_end);
  std::size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  if (status_line.substr(0, 5) != "HTTP/") return std::nullopt;
  std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) return std::nullopt;
  auto code = to_u64(status_line.substr(sp + 1, 3));
  if (!code) return std::nullopt;

  HttpReply reply;
  reply.status = int(*code);
  reply.body = raw.subspan(head_end + 4);
  std::optional<std::uint64_t> content_length;
  while (line_end != std::string_view::npos) {
    head.remove_prefix(line_end + 2);
    line_end = head.find("\r\n");
    std::string_view line = head.substr(0, line_end);
    if (iequals_prefix(line, "content-length:")) {
      content_length = to_u64(line.substr(15));
      if (!content_length) return std::nullopt;
    }
  }
  if (content_length && *content_length != reply.body.size()) return std::nullopt;
  return reply;
}

std::uint64_t find_request_id(BytesView http_request) {
  std::string_view text = as_text(http_request);
  std::size_t head_end = text.find("\r\n\r\n");
  std::size_t at = text.substr(0, head_end).find(kRequestIdHeader);
  if (at == std::string_view::npos) return 0;
  std::string_view rest = text.substr(at + kRequestIdHeader.size());
  return to_u64(rest.substr(0, rest.find("\r\n"))).value_or(0);
}

std::string make_get(std::string_view target, std::uint64_t request_id) {
  std::string req;
  req.reserve(96 + target.size());
  req += "GET ";
  req += target;
  req += " HTTP/1.1\r\nHost: globe\r\n";
  req += kRequestIdHeader;
  req += std::to_string(request_id);
  req += "\r\n\r\n";
  return req;
}

globe::util::Bytes element_content(const std::string& doc, const std::string& element,
                                   std::uint32_t version, std::size_t size,
                                   std::uint64_t seed) {
  std::string stamp = doc + "/" + element + "@" + std::to_string(version) + "\n";
  globe::util::Bytes out(std::max(size, stamp.size()));
  std::memcpy(out.data(), stamp.data(), stamp.size());
  globe::util::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + std::hash<std::string>{}(stamp));
  std::size_t i = stamp.size();
  while (i < out.size()) {
    std::uint64_t word = rng.next();
    for (int b = 0; b < 8 && i < out.size(); ++b, ++i) out[i] = std::uint8_t(word >> (8 * b));
  }
  return out;
}

std::optional<std::uint32_t> content_version(BytesView body, const std::string& doc,
                                             const std::string& element) {
  const std::string prefix = doc + "/" + element + "@";
  if (body.size() < prefix.size() + 2 ||
      std::memcmp(body.data(), prefix.data(), prefix.size()) != 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  std::size_t i = prefix.size();
  for (; i < body.size() && i < prefix.size() + 10 && body[i] != '\n'; ++i) {
    if (body[i] < '0' || body[i] > '9') return std::nullopt;
    v = v * 10 + (body[i] - '0');
  }
  if (i == prefix.size() || i >= body.size() || body[i] != '\n' || v > UINT32_MAX) {
    return std::nullopt;
  }
  return std::uint32_t(v);
}

}  // namespace e2ebench
