// Private to src/crypto and its tests and benches: the two SHA-1 block
// functions behind crypto::Sha1, reachable directly so each can be checked
// against the other on any host.
#pragma once

#include "crypto/sha1.hpp"

namespace globe::crypto::detail {

/// The portable FIPS 180-1 rounds; the reference for the accelerated path.
void sha1_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t nblocks);

/// The SHA-NI block function, or nullptr when this build is not x86-64 or
/// the CPU does not report SHA, SSSE3 and SSE4.1.
Sha1CompressFn sha1_compress_accelerated();

/// Builds a Sha1 that runs a given block function instead of the dispatched
/// one.
struct Sha1Testing {
  static Sha1 with(Sha1CompressFn compress) { return Sha1(compress); }
};

}  // namespace globe::crypto::detail
