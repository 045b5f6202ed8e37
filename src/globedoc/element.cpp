#include "globedoc/element.hpp"

#include <array>

#include "crypto/sha1.hpp"
#include "util/serial.hpp"

namespace globe::globedoc {

using util::Bytes;
using util::ErrorCode;
using util::Result;

Bytes PageElement::serialize() const {
  util::Writer w;
  w.str(name);
  w.str(content_type);
  w.bytes(content);
  return w.take();
}

Result<PageElement> PageElement::parse(util::BytesView data) {
  try {
    util::Reader r(data);
    PageElement el;
    el.name = r.str();
    el.content_type = r.str();
    el.content = r.bytes();
    r.expect_end();
    if (el.name.empty()) {
      return Result<PageElement>(ErrorCode::kProtocol, "element with empty name");
    }
    return el;
  } catch (const util::SerialError& e) {
    return Result<PageElement>(ErrorCode::kProtocol, e.what());
  }
}

namespace {
// serialize()'s u32 big-endian length prefix for one field.
std::array<std::uint8_t, 4> length_prefix(std::size_t n) {
  const auto v = static_cast<std::uint32_t>(n);
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

util::BytesView view(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}
}  // namespace

Bytes PageElement::digest() const {
  // Hashes serialize()'s bytes in place rather than through a copy of the
  // (up to 1 MB) element.
  const auto name_len = length_prefix(name.size());
  const auto type_len = length_prefix(content_type.size());
  const auto content_len = length_prefix(content.size());
  return crypto::Sha1::digest_bytes(
      {name_len, view(name), type_len, view(content_type), content_len, content});
}

}  // namespace globe::globedoc
