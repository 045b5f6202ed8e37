#include "calibrate.hpp"

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "stats.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Median over `rounds` of the per-call time of `fn`, in seconds.
template <typename Fn>
double per_call_seconds(int rounds, int calls, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) fn();
    samples.push_back(seconds_since(t0) / calls);
  }
  return median(samples);
}

}  // namespace

std::string HostInfo::flags() const {
  std::string out;
  auto add = [&](const char* f) { out += out.empty() ? f : std::string(",") + f; };
  if (!ndebug || build_type == "Debug") add("debug-build");
  if (loadavg_1m > 0.5 * nproc) add("loaded");
  return out.empty() ? "ok" : out;
}

HostInfo probe_host() {
  HostInfo h;
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? unsigned(n) : 0;
  double load[1] = {0.0};
  if (::getloadavg(load, 1) == 1) h.loadavg_1m = load[0];
  h.build_type = E2EBENCH_BUILD_TYPE;
#ifdef NDEBUG
  h.ndebug = true;
#endif
  volatile std::uint64_t sink = 0;
  h.calib_loop_ms = 1e3 * per_call_seconds(5, 1, [&] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
  });
  (void)sink;
  return h;
}

CryptoCalibration calibrate_crypto(unsigned long long seed) {
  CryptoCalibration c;
  auto rng = globe::crypto::HmacDrbg::from_seed(seed ^ 0xC0FFEEull);
  globe::util::Bytes small = rng.bytes(1024);
  globe::util::Bytes large = rng.bytes(1024 * 1024);
  c.sha1_1k_mbps = 1024 / 1e6 / per_call_seconds(5, 2000, [&] {
    (void)globe::crypto::Sha1::digest(small);
  });
  c.sha1_1m_mbps = 1024 * 1024 / 1e6 / per_call_seconds(5, 4, [&] {
    (void)globe::crypto::Sha1::digest(large);
  });
  auto key = globe::crypto::rsa_generate(1024, rng);
  globe::util::Bytes signature;
  c.rsa_sign_us = 1e6 * per_call_seconds(5, 20, [&] {
    signature = globe::crypto::rsa_sign_sha1(key.priv, small);
  });
  bool all_valid = true;
  c.rsa_verify_us = 1e6 * per_call_seconds(5, 100, [&] {
    all_valid = globe::crypto::rsa_verify_sha1(key.pub, small, signature) && all_valid;
  });
  if (!all_valid) c.rsa_verify_us = -1.0;  // reported, and fails the run
  return c;
}

}  // namespace e2ebench
