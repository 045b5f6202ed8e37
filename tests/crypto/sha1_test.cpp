#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace globe::crypto {
namespace {

using util::Bytes;
using util::hex_encode;
using util::to_bytes;

std::string sha1_hex(std::string_view msg) {
  return hex_encode(Sha1::digest_bytes(to_bytes(msg)));
}

TEST(Sha1Test, FipsVectorEmpty) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, FipsVectorAbc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, FipsVectorTwoBlocks) {
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, FipsVectorMillionA) {
  Sha1 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(hex_encode(util::Bytes(d.begin(), d.end())),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Bytes msg = to_bytes("The quick brown fox jumps over the lazy dog");
  auto one_shot = Sha1::digest(msg);
  // Feed in irregular chunk sizes to exercise buffering.
  for (std::size_t chunk : {1u, 3u, 7u, 13u, 64u}) {
    Sha1 h;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      std::size_t n = std::min(chunk, msg.size() - i);
      h.update(util::BytesView(msg.data() + i, n));
    }
    EXPECT_EQ(h.finish(), one_shot) << "chunk=" << chunk;
  }
}

TEST(Sha1Test, ExactBlockBoundaryLengths) {
  // Lengths around the 64-byte block / 56-byte padding boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes msg(len, 'x');
    Sha1 whole;
    whole.update(msg);
    Sha1 split;
    split.update(util::BytesView(msg.data(), len / 2));
    split.update(util::BytesView(msg.data() + len / 2, len - len / 2));
    EXPECT_EQ(whole.finish(), split.finish()) << "len=" << len;
  }
}

TEST(Sha1Test, EmptyUpdateAfterPartialBlock) {
  // An empty view's data() may be null; it must not reach memcpy.
  Sha1 h;
  h.update(to_bytes("abc"));
  h.update(util::BytesView{});
  h.update(Bytes{});
  auto d = h.finish();
  EXPECT_EQ(hex_encode(util::Bytes(d.begin(), d.end())),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, DigestOfPartsMatchesDigestOfConcatenation) {
  Bytes a = to_bytes("abcdbcdecdefdefgefghfghighijhijk");
  Bytes b = to_bytes("ijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(Sha1::digest_bytes({a, Bytes{}, b}), Sha1::digest_bytes(util::concat({a, b})));
  EXPECT_EQ(hex_encode(Sha1::digest_bytes({a, b})),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, ResetAllowsReuse) {
  Sha1 h;
  h.update(to_bytes("garbage"));
  (void)h.finish();
  h.reset();
  h.update(to_bytes("abc"));
  auto d = h.finish();
  EXPECT_EQ(hex_encode(util::Bytes(d.begin(), d.end())),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::digest(to_bytes("a")), Sha1::digest(to_bytes("b")));
  EXPECT_NE(Sha1::digest(to_bytes("")), Sha1::digest(Bytes{0x00}));
}

}  // namespace
}  // namespace globe::crypto
