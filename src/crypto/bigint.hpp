// Arbitrary-precision unsigned integers for the RSA implementation.
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector); limb
// products are formed in unsigned __int128.  Modular exponentiation with an
// odd modulus of up to kMaxRsaModulusBytes (every RSA and prime use in this
// codebase) runs one Montgomery (CIOS) kernel over fixed-size stack buffers:
// plain square-and-multiply for exponents of up to 64 bits (e = 65537), a
// fixed 4-bit window above that (CRT halves, Miller-Rabin).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace globe::crypto {

class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(std::uint64_t v);

  /// Parses big-endian bytes (leading zeros allowed).
  static BigInt from_bytes(util::BytesView be);
  /// Parses lower/upper-case hex; throws std::invalid_argument on bad input.
  static BigInt from_hex(std::string_view hex);
  /// Parses decimal digits; throws std::invalid_argument on bad input.
  static BigInt from_dec(std::string_view dec);

  /// Minimal big-endian encoding ("" for zero when pad == 0, otherwise
  /// left-padded with zeros to exactly `pad` bytes; throws if it won't fit).
  util::Bytes to_bytes(std::size_t pad = 0) const;
  std::string to_hex() const;
  std::string to_dec() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit i (little-endian bit order).
  bool bit(std::size_t i) const;

  /// Least significant 64 bits.
  std::uint64_t low_u64() const;

  static int cmp(const BigInt& a, const BigInt& b);
  friend bool operator==(const BigInt& a, const BigInt& b) { return cmp(a, b) == 0; }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return cmp(a, b) != 0; }
  friend bool operator<(const BigInt& a, const BigInt& b) { return cmp(a, b) < 0; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return cmp(a, b) <= 0; }
  friend bool operator>(const BigInt& a, const BigInt& b) { return cmp(a, b) > 0; }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return cmp(a, b) >= 0; }

  BigInt operator+(const BigInt& rhs) const;
  /// Requires *this >= rhs; throws std::underflow_error otherwise.
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Quotient; throws std::domain_error on division by zero.
  BigInt operator/(const BigInt& rhs) const;
  /// Remainder; throws std::domain_error on division by zero.
  BigInt operator%(const BigInt& rhs) const;

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass (Knuth Algorithm D).
  static void divmod(const BigInt& num, const BigInt& den, BigInt& quot, BigInt& rem);

  /// (base ^ exp) mod m.  m must be non-zero.  Uses Montgomery form for odd
  /// m within the RSA modulus cap, square-and-multiply with division
  /// otherwise.
  static BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

  /// Modular inverse of a mod m; throws std::domain_error when gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  static BigInt gcd(BigInt a, BigInt b);

  /// Uniform value in [0, bound) drawn from `rng`.  bound must be > 0.
  static BigInt random_below(const BigInt& bound, util::RandomSource& rng);
  /// Random integer with exactly `bits` bits (MSB forced to 1).
  static BigInt random_bits(std::size_t bits, util::RandomSource& rng);

 private:
  void trim();
  /// O(n²) base multiplication; operator* switches to Karatsuba above a
  /// limb-count threshold.
  static BigInt schoolbook_mul(const BigInt& lhs, const BigInt& rhs);
  /// Lowest `limbs` limbs / everything above them (Karatsuba split).
  BigInt split_low(std::size_t limbs) const;
  BigInt split_high(std::size_t limbs) const;

  std::vector<std::uint64_t> limbs_;
};

}  // namespace globe::crypto
