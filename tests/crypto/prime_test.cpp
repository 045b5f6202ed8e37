#include "crypto/prime.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "crypto/drbg.hpp"

namespace globe::crypto {
namespace {

TEST(PrimeTest, SmallPrimesRecognized) {
  auto rng = HmacDrbg::from_seed(1);
  for (std::uint64_t p : {2u, 3u, 5u, 7u, 11u, 13u, 251u, 257u, 65537u}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
}

TEST(PrimeTest, SmallCompositesRejected) {
  auto rng = HmacDrbg::from_seed(2);
  for (std::uint64_t c : {0u, 1u, 4u, 6u, 9u, 15u, 255u, 256u, 1001u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(PrimeTest, CarmichaelNumbersRejected) {
  // Fermat pseudoprimes that fool a^(n-1) tests; Miller-Rabin must reject.
  auto rng = HmacDrbg::from_seed(3);
  for (std::uint64_t c : {561u, 1105u, 1729u, 2465u, 2821u, 41041u, 825265u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(PrimeTest, CarmichaelNumbersRejectedAcrossLimbs) {
  // Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
  // factors are prime.  These k give one full 64-bit limb, one bit past it,
  // two full limbs, one bit past that, and three limbs.  From 128 bits on
  // the Miller-Rabin exponent is longer than 64 bits, so mod_pow takes its
  // windowed path.
  auto rng = HmacDrbg::from_seed(7);
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {192451u, 64u},
      {242396u, 65u},
      {508239190405u, 128u},
      {640341253625u, 129u},
      {1342892938398572766u, 192u}};
  for (const auto& [k, bits] : cases) {
    const BigInt bk(k);
    const BigInt factors[] = {BigInt(6) * bk + BigInt(1), BigInt(12) * bk + BigInt(1),
                              BigInt(18) * bk + BigInt(1)};
    const BigInt n = factors[0] * factors[1] * factors[2];
    ASSERT_EQ(n.bit_length(), bits) << "k=" << k;
    for (const BigInt& p : factors) {
      // Korselt's criterion: p | n and (p - 1) | (n - 1).
      EXPECT_TRUE(((n - BigInt(1)) % (p - BigInt(1))).is_zero()) << "k=" << k;
      EXPECT_TRUE(is_probable_prime(p, rng)) << "k=" << k;
    }
    EXPECT_FALSE(is_probable_prime(n, rng)) << "k=" << k;
  }
}

TEST(PrimeTest, LargeKnownPrimeAccepted) {
  auto rng = HmacDrbg::from_seed(4);
  // 2^127 - 1 (Mersenne prime).
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  BigInt m128 = (BigInt(1) << 128) - BigInt(1);
  EXPECT_FALSE(is_probable_prime(m128, rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBits) {
  auto rng = HmacDrbg::from_seed(5);
  for (std::size_t bits : {16u, 64u, 128u}) {
    BigInt p = generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

TEST(PrimeTest, GenerationIsDeterministicPerSeed) {
  auto a = HmacDrbg::from_seed(77);
  auto b = HmacDrbg::from_seed(77);
  EXPECT_EQ(generate_prime(64, a), generate_prime(64, b));
}

TEST(PrimeTest, TinyBitWidthRejected) {
  auto rng = HmacDrbg::from_seed(6);
  EXPECT_THROW(generate_prime(4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace globe::crypto
