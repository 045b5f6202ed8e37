#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;
using util::hex_encode;
using util::to_bytes;

std::string sha256_hex(std::string_view msg) {
  return hex_encode(Sha256::digest_bytes(to_bytes(msg)));
}

TEST(Sha256Test, FipsVectorEmpty) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, FipsVectorAbc) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, FipsVectorTwoBlocks) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FipsVectorMillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(hex_encode(util::Bytes(d.begin(), d.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg = to_bytes("GlobeDoc integrity certificate payload, somewhat long");
  auto one_shot = Sha256::digest(msg);
  for (std::size_t chunk : {1u, 5u, 31u, 64u, 100u}) {
    Sha256 h;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      std::size_t n = std::min(chunk, msg.size() - i);
      h.update(util::BytesView(msg.data() + i, n));
    }
    EXPECT_EQ(h.finish(), one_shot) << "chunk=" << chunk;
  }
}

TEST(Sha256Test, EmptyUpdateAfterPartialBlock) {
  // An empty view's data() may be null; it must not reach memcpy.
  Sha256 h;
  h.update(to_bytes("abc"));
  h.update(util::BytesView{});
  auto d = h.finish();
  EXPECT_EQ(hex_encode(Bytes(d.begin(), d.end())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, BlockBoundaryLengths) {
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    Bytes a(len, 0x42);
    Bytes b(len, 0x42);
    EXPECT_EQ(Sha256::digest(a), Sha256::digest(b));
    b[len - 1] ^= 1;
    EXPECT_NE(Sha256::digest(a), Sha256::digest(b)) << "len=" << len;
  }
}

}  // namespace
}  // namespace globe::crypto
