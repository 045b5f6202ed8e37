// Byte-level helpers the benchmark needs to observe the stack from outside:
// decoding the rpc request header (with or without the trace marker),
// TcpServer reply frames, and the HTTP responses the proxy returns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace e2ebench {

/// Identity of one RPC as written by rpc::RpcClient.
struct RpcHeader {
  bool traced = false;           // carried the 0xFFFF trace header
  globe::obs::TraceContext ctx;  // valid only when traced
  std::uint16_t service = 0;
  std::uint16_t method = 0;
};

/// Decodes the rpc framing header; nullopt when truncated or when the trace
/// marker names an unknown version (the dispatcher rejects those too).
std::optional<RpcHeader> decode_rpc_header(globe::util::BytesView request);

/// Coarse service family used for per-layer counts: "naming", "location",
/// "object" (access, security and admin interfaces) or "other".
std::string_view service_family(std::uint16_t service);

/// "naming/1", "object.access/1", ... for span labels.
std::string rpc_label(std::uint16_t service, std::uint16_t method);

/// TcpServer reply frame: u8 ok flag, then either the payload (ok) or an
/// ErrorCode byte and a length-prefixed message.
struct ReplyFrame {
  bool ok = false;
  globe::util::BytesView payload;  // when ok; views into the frame
};
std::optional<ReplyFrame> decode_reply_frame(globe::util::BytesView frame);

/// The parts of an HTTP/1.x response the benchmark checks.
struct HttpReply {
  int status = 0;
  globe::util::BytesView body;  // views into the parsed buffer
};
/// Parses a complete response; nullopt when malformed or when the body
/// length disagrees with Content-Length.  Kept apart from
/// http::parse_response on purpose: the output check should not share code
/// with the program it checks, and a view avoids copying megabyte bodies
/// in the client while it is being measured.
std::optional<HttpReply> parse_http_reply(globe::util::BytesView raw);

/// The benchmark tags each GET with "X-Bench-Req: <id>" so the proxy-side
/// span can name the client span that caused it.  0 when absent.
inline constexpr std::string_view kRequestIdHeader = "X-Bench-Req: ";
std::uint64_t find_request_id(globe::util::BytesView http_request);

/// GET request for a hybrid URL with the benchmark's request-id header.
std::string make_get(std::string_view target, std::uint64_t request_id);

/// Generated element body: "<doc>/<element>@<version>\n" followed by bytes
/// drawn from `seed` up to `size`.
globe::util::Bytes element_content(const std::string& doc, const std::string& element,
                                   std::uint32_t version, std::size_t size,
                                   std::uint64_t seed);

/// Version stamped on a body made by element_content for the named element;
/// nullopt when the stamp is missing, malformed or names another element.
std::optional<std::uint32_t> content_version(globe::util::BytesView body,
                                             const std::string& doc,
                                             const std::string& element);

}  // namespace e2ebench
