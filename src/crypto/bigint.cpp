#include "crypto/bigint.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/rsa.hpp"

namespace globe::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr unsigned kLimbBits = 64;

}  // namespace

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

BigInt BigInt::from_bytes(util::BytesView be) {
  BigInt out;
  out.limbs_.assign((be.size() + 7) / 8, 0);
  // Bytes are big-endian; limb 0 is least significant.
  for (std::size_t i = 0; i < be.size(); ++i) {
    std::size_t byte_index = be.size() - 1 - i;  // significance of be[byte_index]
    out.limbs_[i / 8] |= u64{be[byte_index]} << (8 * (i % 8));
  }
  out.trim();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  if (hex.empty()) throw std::invalid_argument("BigInt::from_hex: empty");
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes(util::hex_decode(padded));
}

BigInt BigInt::from_dec(std::string_view dec) {
  if (dec.empty()) throw std::invalid_argument("BigInt::from_dec: empty");
  BigInt out;
  BigInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("BigInt::from_dec: bad digit");
    out = out * ten + BigInt(static_cast<u64>(c - '0'));
  }
  return out;
}

util::Bytes BigInt::to_bytes(std::size_t pad) const {
  util::Bytes minimal;
  minimal.reserve(limbs_.size() * 8);
  // Emit little-endian then reverse; skip leading zeros afterwards.
  for (u64 limb : limbs_) {
    for (unsigned b = 0; b < 8; ++b) {
      minimal.push_back(static_cast<std::uint8_t>(limb >> (8 * b)));
    }
  }
  while (!minimal.empty() && minimal.back() == 0) minimal.pop_back();
  std::reverse(minimal.begin(), minimal.end());
  if (pad == 0) return minimal;
  if (minimal.size() > pad) {
    throw std::invalid_argument("BigInt::to_bytes: value does not fit in pad");
  }
  util::Bytes out(pad - minimal.size(), 0);
  util::append(out, minimal);
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::hex_encode(to_bytes());
  std::size_t nz = s.find_first_not_of('0');
  return s.substr(nz == std::string::npos ? s.size() - 1 : nz);
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt ten(10), q, r, cur = *this;
  while (!cur.is_zero()) {
    divmod(cur, ten, q, r);
    out.push_back(static_cast<char>('0' + r.low_u64()));
    cur = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * kLimbBits -
         static_cast<std::size_t>(__builtin_clzll(limbs_.back()));
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

std::uint64_t BigInt::low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

int BigInt::cmp(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  const auto& a = limbs_.size() >= rhs.limbs_.size() ? limbs_ : rhs.limbs_;
  const auto& b = limbs_.size() >= rhs.limbs_.size() ? rhs.limbs_ : limbs_;
  BigInt out;
  out.limbs_.resize(a.size() + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    u128 sum = u128{a[i]} + (i < b.size() ? b[i] : 0) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> kLimbBits);
  }
  out.limbs_[a.size()] = carry;
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (cmp(*this, rhs) < 0) {
    throw std::underflow_error("BigInt subtraction underflow");
  }
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 diff = u128{limbs_[i]} - (i < rhs.limbs_.size() ? rhs.limbs_[i] : 0) - borrow;
    out.limbs_[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> kLimbBits) & 1;
  }
  out.trim();
  return out;
}

namespace {

/// Below this limb count Karatsuba's recursion overhead beats its savings.
constexpr std::size_t kKaratsubaThreshold = 64;

}  // namespace

BigInt BigInt::schoolbook_mul(const BigInt& lhs, const BigInt& rhs) {
  BigInt out;
  out.limbs_.assign(lhs.limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < lhs.limbs_.size(); ++i) {
    u64 carry = 0;
    u64 ai = lhs.limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u128 cur = u128{ai} * rhs.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> kLimbBits);
    }
    out.limbs_[i + rhs.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::split_low(std::size_t limbs) const {
  BigInt out;
  out.limbs_.assign(limbs_.begin(),
                    limbs_.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(limbs, limbs_.size())));
  out.trim();
  return out;
}

BigInt BigInt::split_high(std::size_t limbs) const {
  BigInt out;
  if (limbs < limbs_.size()) {
    out.limbs_.assign(limbs_.begin() + static_cast<std::ptrdiff_t>(limbs),
                      limbs_.end());
  }
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigInt();
  if (std::min(limbs_.size(), rhs.limbs_.size()) < kKaratsubaThreshold) {
    return schoolbook_mul(*this, rhs);
  }
  // Karatsuba: split both at half the larger operand.
  //   x = x1·B + x0,  y = y1·B + y0   (B = 2^(64·half))
  //   x·y = z2·B² + z1·B + z0 with z2 = x1·y1, z0 = x0·y0,
  //   z1 = (x0+x1)(y0+y1) − z2 − z0  — three multiplies instead of four.
  std::size_t half = std::max(limbs_.size(), rhs.limbs_.size()) / 2;
  BigInt x0 = split_low(half), x1 = split_high(half);
  BigInt y0 = rhs.split_low(half), y1 = rhs.split_high(half);

  BigInt z2 = x1 * y1;
  BigInt z0 = x0 * y0;
  BigInt z1 = (x0 + x1) * (y0 + y1) - z2 - z0;

  return (z2 << (2 * kLimbBits * half)) + (z1 << (kLimbBits * half)) + z0;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / kLimbBits;
  unsigned bit_shift = bits % kLimbBits;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift) out.limbs_[i + limb_shift + 1] = limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / kLimbBits;
  unsigned bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& num, const BigInt& den, BigInt& quot, BigInt& rem) {
  if (den.is_zero()) throw std::domain_error("BigInt division by zero");
  if (cmp(num, den) < 0) {
    quot = BigInt();
    rem = num;
    return;
  }
  if (den.limbs_.size() == 1) {
    // Short division by a single limb.
    u64 d = den.limbs_[0];
    BigInt q;
    q.limbs_.assign(num.limbs_.size(), 0);
    u64 r = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      u128 cur = u128{r} << kLimbBits | num.limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      r = static_cast<u64>(cur % d);
    }
    q.trim();
    quot = std::move(q);
    rem = BigInt(r);
    return;
  }

  // Knuth Algorithm D (TAOCP 4.3.1) with 64-bit digits.
  const std::size_t n = den.limbs_.size();
  const std::size_t m = num.limbs_.size() - n;

  // Normalize: shift so the divisor's top limb has its high bit set.
  const unsigned s = static_cast<unsigned>(__builtin_clzll(den.limbs_.back()));
  auto shifted = [s](const std::vector<u64>& x, std::size_t i) {
    u64 v = x[i] << s;
    if (s && i > 0) v |= x[i - 1] >> (kLimbBits - s);
    return v;
  };
  std::vector<u64> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = shifted(den.limbs_, i);
  std::vector<u64> u(num.limbs_.size() + 1);
  u[num.limbs_.size()] = s ? num.limbs_.back() >> (kLimbBits - s) : 0;
  for (std::size_t i = 0; i < num.limbs_.size(); ++i) u[i] = shifted(num.limbs_, i);

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two digits; it is at most two too large.
    u128 num2 = u128{u[j + n]} << kLimbBits | u[j + n - 1];
    u128 qhat = num2 / v[n - 1];
    u128 rhat = num2 % v[n - 1];
    while (qhat >> kLimbBits ||
           qhat * v[n - 2] > (rhat << kLimbBits | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >> kLimbBits) break;
    }
    // Multiply-and-subtract: u[j..j+n] -= qhat * v.
    u64 borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 p = qhat * v[i] + carry;
      carry = static_cast<u64>(p >> kLimbBits);
      u128 t = u128{u[i + j]} - static_cast<u64>(p) - borrow;
      u[i + j] = static_cast<u64>(t);
      borrow = static_cast<u64>(t >> kLimbBits) & 1;
    }
    u128 t = u128{u[j + n]} - carry - borrow;
    u[j + n] = static_cast<u64>(t);
    if (t >> kLimbBits) {
      // qhat was one too large: add the divisor back (the carry out of the
      // top digit cancels the borrow).
      --qhat;
      u64 carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = u128{u[i + j]} + v[i] + carry2;
        u[i + j] = static_cast<u64>(sum);
        carry2 = static_cast<u64>(sum >> kLimbBits);
      }
      u[j + n] += carry2;
    }
    q.limbs_[j] = static_cast<u64>(qhat);
  }
  q.trim();

  // Denormalize the remainder.
  BigInt r;
  r.limbs_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    r.limbs_[i] = u[i] >> s;
    if (s) r.limbs_[i] |= u[i + 1] << (kLimbBits - s);
  }
  r.trim();

  quot = std::move(q);
  rem = std::move(r);
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  BigInt q, r;
  divmod(*this, rhs, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  BigInt q, r;
  divmod(*this, rhs, q, r);
  return r;
}

namespace {

/// Limb capacity of the Montgomery kernel's stack buffers: the largest
/// modulus RsaPublicKey::parse() admits.
constexpr std::size_t kMontMaxLimbs = kMaxRsaModulusBytes / sizeof(u64);

/// Montgomery arithmetic modulo an odd m of k limbs, R = 2^(64k).  Every
/// operand is a k-limb array holding a value below m.
class Montgomery {
 public:
  Montgomery(const u64* m, std::size_t k) : m_(m), k_(k) {
    // Newton iteration doubles the correct low bits of m[0]^-1 each step:
    // 1 → 2 → … → 64.
    u64 inv = 1;
    for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
    m0inv_ = 0 - inv;
  }

  /// r = a·b·R^-1 mod m (CIOS).  r may alias a or b.
  void mul(u64* r, const u64* a, const u64* b) const {
    const std::size_t k = k_;
    // Only the k + 2 limbs in use are zeroed, so a small modulus does not
    // pay for the 8192-bit capacity on every product.
    u64 t[kMontMaxLimbs + 2];
    std::fill_n(t, k + 2, u64{0});
    for (std::size_t i = 0; i < k; ++i) {
      // t += a[i]·b
      u64 carry = 0;
      const u64 ai = a[i];
      for (std::size_t j = 0; j < k; ++j) {
        u128 cur = u128{ai} * b[j] + t[j] + carry;
        t[j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> kLimbBits);
      }
      u128 top = u128{t[k]} + carry;
      t[k] = static_cast<u64>(top);
      t[k + 1] = static_cast<u64>(top >> kLimbBits);

      // t = (t + mu·m) / 2^64, with mu chosen so the low limb cancels.
      const u64 mu = t[0] * m0inv_;
      u128 cur = u128{mu} * m_[0] + t[0];
      carry = static_cast<u64>(cur >> kLimbBits);
      for (std::size_t j = 1; j < k; ++j) {
        cur = u128{mu} * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> kLimbBits);
      }
      top = u128{t[k]} + carry;
      t[k - 1] = static_cast<u64>(top);
      t[k] = t[k + 1] + static_cast<u64>(top >> kLimbBits);
    }
    // t < 2m: one conditional subtraction brings it below m.
    bool ge = t[k] != 0;
    if (!ge) {
      ge = true;
      for (std::size_t i = k; i-- > 0;) {
        if (t[i] != m_[i]) {
          ge = t[i] > m_[i];
          break;
        }
      }
    }
    if (!ge) {
      std::copy_n(t, k, r);
      return;
    }
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      u128 d = u128{t[i]} - m_[i] - borrow;
      r[i] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> kLimbBits) & 1;
    }
  }

 private:
  const u64* m_;
  std::size_t k_;
  u64 m0inv_;  // -m^-1 mod 2^64
};

/// Exponents longer than this use the 4-bit window.  Up to here (e = 65537
/// above all) its 14-product table costs at least what the window saves.
constexpr std::size_t kWindowMinExpBits = 64;
constexpr unsigned kWindowBits = 4;

}  // namespace

BigInt BigInt::mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("mod_pow: zero modulus");
  if (m == BigInt(1)) return BigInt();
  BigInt b = base % m;
  if (exp.is_zero()) return BigInt(1);
  const std::size_t bits = exp.bit_length();

  const std::size_t k = m.limbs_.size();
  if (m.is_odd() && k <= kMontMaxLimbs) {
    const Montgomery mont(m.limbs_.data(), k);
    auto load = [k](u64* dst, const BigInt& v) {
      std::copy(v.limbs_.begin(), v.limbs_.end(), dst);
      std::fill(dst + v.limbs_.size(), dst + k, u64{0});
    };
    // a·R mod m = mont(a, R² mod m); R² mod m by one division per call.
    u64 r2[kMontMaxLimbs] = {};
    load(r2, (BigInt(1) << (2 * kLimbBits * k)) % m);
    u64 x[kMontMaxLimbs] = {};
    load(x, b);
    mont.mul(x, x, r2);

    if (bits <= kWindowMinExpBits) {
      // Left-to-right square-and-multiply, starting at the top bit with x = a·R.
      u64 a_bar[kMontMaxLimbs] = {};
      std::copy_n(x, k, a_bar);
      for (std::size_t i = bits - 1; i-- > 0;) {
        mont.mul(x, x, x);
        if (exp.bit(i)) mont.mul(x, x, a_bar);
      }
    } else {
      // Fixed 4-bit window: table[d] = a^d·R for d in [1, 16).
      u64 table[1u << kWindowBits][kMontMaxLimbs] = {};
      std::copy_n(x, k, table[1]);
      for (unsigned d = 2; d < (1u << kWindowBits); ++d) {
        mont.mul(table[d], table[d - 1], table[1]);
      }
      auto digit = [&exp](std::size_t w) {
        unsigned d = 0;
        for (unsigned i = kWindowBits; i-- > 0;) {
          d = d << 1 | static_cast<unsigned>(exp.bit(w * kWindowBits + i));
        }
        return d;
      };
      // The top window holds the exponent's top bit, so its digit is non-zero.
      std::size_t w = (bits + kWindowBits - 1) / kWindowBits - 1;
      std::copy_n(table[digit(w)], k, x);
      while (w-- > 0) {
        for (unsigned i = 0; i < kWindowBits; ++i) mont.mul(x, x, x);
        if (unsigned d = digit(w)) mont.mul(x, x, table[d]);
      }
    }
    // Out of Montgomery form: x·1·R^-1.
    u64 one[kMontMaxLimbs] = {1};
    mont.mul(x, x, one);
    BigInt out;
    out.limbs_.assign(x, x + k);
    out.trim();
    return out;
  }

  // Even modulus, or one longer than the RSA cap: square-and-multiply with
  // division-based reduction.
  BigInt result(1);
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid on (a mod m, m) tracking only the coefficient of a.
  // Signs handled by tracking magnitudes plus a boolean.
  BigInt r0 = m, r1 = a % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    // t2 = t0 - q*t1 with sign tracking.
    BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (r0 != BigInt(1)) throw std::domain_error("mod_inverse: not coprime");
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::random_below(const BigInt& bound, util::RandomSource& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  std::size_t bits = bound.bit_length();
  std::size_t nbytes = (bits + 7) / 8;
  unsigned top_mask = bits % 8 ? (1u << (bits % 8)) - 1 : 0xffu;
  for (;;) {
    util::Bytes raw = rng.bytes(nbytes);
    raw[0] = static_cast<std::uint8_t>(raw[0] & top_mask);
    BigInt candidate = from_bytes(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(std::size_t bits, util::RandomSource& rng) {
  if (bits == 0) return BigInt();
  std::size_t nbytes = (bits + 7) / 8;
  util::Bytes raw = rng.bytes(nbytes);
  unsigned top_bit = (bits - 1) % 8;
  unsigned top_mask = (1u << (top_bit + 1)) - 1;
  raw[0] = static_cast<std::uint8_t>((raw[0] & top_mask) | (1u << top_bit));
  return from_bytes(raw);
}

}  // namespace globe::crypto
