// SHA-1 (FIPS 180-1) — the hash the paper uses for self-certifying OIDs and
// integrity-certificate element digests.  Incremental (update/final) and
// one-shot APIs.
//
// The block function is chosen once per process from CPUID: the x86-64
// SHA-NI instructions when the CPU reports SHA, SSSE3 and SSE4.1, the
// portable scalar rounds otherwise.  The scalar rounds are also the
// reference the accelerated path is tested against (sha1_compress.hpp).
//
// SHA-1 is retained for fidelity to the paper; new protocol surfaces in this
// codebase (DRBG, identity certificates) use SHA-256 from sha256.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "util/bytes.hpp"

namespace globe::crypto {

namespace detail {
/// Compresses `nblocks` consecutive 64-byte blocks into `state` (h0..h4).
using Sha1CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                                std::size_t nblocks);
struct Sha1Testing;  // sha1_compress.hpp
}  // namespace detail

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1();

  void reset();
  void update(util::BytesView data);
  /// Finalizes and returns the digest; the object must be reset() before reuse.
  Digest finish();

  /// One-shot convenience.
  static Digest digest(util::BytesView data);
  static util::Bytes digest_bytes(util::BytesView data);
  /// One-shot digest of the concatenation of `parts`, without building it.
  static util::Bytes digest_bytes(std::initializer_list<util::BytesView> parts);

 private:
  friend struct detail::Sha1Testing;
  explicit Sha1(detail::Sha1CompressFn compress);

  detail::Sha1CompressFn compress_;
  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace globe::crypto
