#include "crypto/sha1.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha1_compress.hpp"
#include "obs/profile.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace globe::crypto {

namespace detail {

namespace {
inline std::uint32_t rotl(std::uint32_t v, unsigned n) {
  return (v << n) | (v >> (32 - n));
}

void scalar_block(std::uint32_t* h, const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = std::uint32_t{block[4 * i]} << 24 | std::uint32_t{block[4 * i + 1]} << 16 |
           std::uint32_t{block[4 * i + 2]} << 8 | block[4 * i + 3];
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#if defined(__x86_64__)
// Intel SHA extensions: each sha1rnds4 runs four rounds on ABCD (lane 3 = A)
// with E plus the next four schedule words in the other operand; sha1nexte
// derives that E from the ABCD four rounds back, and sha1msg1/sha1msg2 extend
// the message schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void shani_compress(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  // Reverses the bytes of the 16-byte load: big-endian words, w0 in lane 3.
  const __m128i kWordSwap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; nblocks > 0; --nblocks, blocks += Sha1::kBlockSize) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e0;
    __m128i w[4];
    __m128i e = e0;
    __m128i prev = abcd;
#pragma GCC unroll 20
    for (int i = 0; i < 20; ++i) {
      __m128i& wi = w[i & 3];
      if (i < 4) {
        wi = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), kWordSwap);
      } else {
        // w[i..i+3] from w[i-16..i-13], w[i-14..], w[i-8..] and w[i-3..].
        wi = _mm_sha1msg2_epu32(
            _mm_xor_si128(_mm_sha1msg1_epu32(wi, w[(i + 1) & 3]), w[(i + 2) & 3]),
            w[(i + 3) & 3]);
      }
      e = i == 0 ? _mm_add_epi32(e, wi) : _mm_sha1nexte_epu32(prev, wi);
      prev = abcd;
      switch (i / 5) {  // the round function and constant, per 20 rounds
        case 0: abcd = _mm_sha1rnds4_epu32(abcd, e, 0); break;
        case 1: abcd = _mm_sha1rnds4_epu32(abcd, e, 1); break;
        case 2: abcd = _mm_sha1rnds4_epu32(abcd, e, 2); break;
        default: abcd = _mm_sha1rnds4_epu32(abcd, e, 3); break;
      }
    }
    e0 = _mm_sha1nexte_epu32(prev, e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ssse3_sse41 && (ebx & bit_SHA);
}
#endif

Sha1CompressFn dispatched_compress() {
  static const Sha1CompressFn compress = [] {
    Sha1CompressFn fast = sha1_compress_accelerated();
    return fast ? fast : sha1_compress_scalar;
  }();
  return compress;
}
}  // namespace

void sha1_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += Sha1::kBlockSize) scalar_block(state, blocks);
}

Sha1CompressFn sha1_compress_accelerated() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return shani_compress;
#endif
  return nullptr;
}

}  // namespace detail

Sha1::Sha1() : Sha1(detail::dispatched_compress()) {}

Sha1::Sha1(detail::Sha1CompressFn compress) : compress_(compress) { reset(); }

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::update(util::BytesView data) {
  // An empty view may carry a null data(), which memcpy must never see.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      compress_(h_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    compress_(h_.data(), data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha1::Digest Sha1::finish() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad = 0x80;
  update(util::BytesView(&pad, 1));
  static constexpr std::uint8_t kZero[kBlockSize] = {};
  while (buffer_len_ != 56) {
    std::size_t fill = buffer_len_ < 56 ? 56 - buffer_len_ : kBlockSize - buffer_len_;
    update(util::BytesView(kZero, fill));
  }
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  // update() counts these padding bytes in total_len_, but bit_len was
  // captured before padding so the encoded length is correct.
  update(util::BytesView(len_be, 8));

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha1::Digest Sha1::digest(util::BytesView data) {
  GLOBE_PROFILE_SCOPE("sha1");
  Sha1 h;
  h.update(data);
  return h.finish();
}

util::Bytes Sha1::digest_bytes(util::BytesView data) {
  Digest d = digest(data);
  return util::Bytes(d.begin(), d.end());
}

util::Bytes Sha1::digest_bytes(std::initializer_list<util::BytesView> parts) {
  GLOBE_PROFILE_SCOPE("sha1");
  Sha1 h;
  for (util::BytesView part : parts) h.update(part);
  Digest d = h.finish();
  return util::Bytes(d.begin(), d.end());
}

}  // namespace globe::crypto
