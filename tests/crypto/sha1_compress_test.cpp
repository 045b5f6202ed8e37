// Differential tests of the two SHA-1 block functions behind crypto::Sha1:
// the SHA-NI path against the scalar reference, on any host that has it.
#include "crypto/sha1_compress.hpp"

#include <gtest/gtest.h>

#include <random>

#include "crypto/drbg.hpp"
#include "util/bytes.hpp"

namespace globe::crypto::detail {
namespace {

using util::Bytes;
using util::BytesView;

Sha1::Digest hash_with(Sha1CompressFn compress, BytesView msg) {
  Sha1 h = Sha1Testing::with(compress);
  h.update(msg);
  return h.finish();
}

std::string hex(const Sha1::Digest& d) {
  return util::hex_encode(Bytes(d.begin(), d.end()));
}

// Runs only where the SHA-NI block function exists; elsewhere each case
// reports a skip instead of passing.
class Sha1AcceleratedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fast_ = sha1_compress_accelerated();
    if (fast_ == nullptr) {
      GTEST_SKIP() << "no SHA-NI on this host (or not x86-64): the accelerated "
                      "SHA-1 path is untested here";
    }
  }
  Sha1CompressFn fast_ = nullptr;
};

void expect_fips_vectors(Sha1CompressFn compress) {
  EXPECT_EQ(hex(hash_with(compress, {})), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex(hash_with(compress, util::to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(hash_with(compress, util::to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklm"
                                                   "klmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  Sha1 h = Sha1Testing::with(compress);
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1CompressTest, ScalarFipsVectors) { expect_fips_vectors(sha1_compress_scalar); }

TEST_F(Sha1AcceleratedTest, FipsVectors) {
  expect_fips_vectors(fast_);
}

TEST_F(Sha1AcceleratedTest, MatchesScalarAtEveryLength) {
  auto rng = HmacDrbg::from_seed(11);
  Bytes msg = rng.bytes(3 * Sha1::kBlockSize + 1);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    BytesView prefix(msg.data(), len);
    EXPECT_EQ(hash_with(fast_, prefix), hash_with(sha1_compress_scalar, prefix))
        << "len=" << len;
  }
}

TEST_F(Sha1AcceleratedTest, MatchesScalarAcrossRandomSplits) {
  auto rng = HmacDrbg::from_seed(12);
  std::mt19937 split_rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t len = std::uniform_int_distribution<std::size_t>(0, 8 * 64 + 3)(split_rng);
    Bytes msg = rng.bytes(len);
    Sha1 a = Sha1Testing::with(fast_);
    Sha1 b = Sha1Testing::with(sha1_compress_scalar);
    std::size_t at = 0;
    while (at < len) {
      // Pieces up to three blocks long, so runs of whole blocks, partial
      // buffers and buffer refills all occur.
      std::size_t n = std::min(
          len - at, std::uniform_int_distribution<std::size_t>(0, 3 * 64 + 1)(split_rng));
      a.update(BytesView(msg.data() + at, n));
      b.update(BytesView(msg.data() + at, n));
      at += n;
    }
    EXPECT_EQ(a.finish(), b.finish()) << "trial=" << trial << " len=" << len;
  }
}

TEST_F(Sha1AcceleratedTest, MatchesScalarOnLargeInputs) {
  auto rng = HmacDrbg::from_seed(13);
  for (std::size_t len : {4096u, 256u * 1024u, 1024u * 1024u}) {
    Bytes msg = rng.bytes(len);
    EXPECT_EQ(hash_with(fast_, msg), hash_with(sha1_compress_scalar, msg)) << "len=" << len;
  }
}

}  // namespace
}  // namespace globe::crypto::detail
