// Host and crypto calibration recorded with every run, so a noisy or
// Debug run can be flagged instead of compared.
#pragma once

#include <string>

namespace e2ebench {

struct HostInfo {
  unsigned nproc = 0;
  double loadavg_1m = 0.0;  // at start
  std::string build_type;   // CMAKE_BUILD_TYPE of this binary
  bool ndebug = false;
  double calib_loop_ms = 0.0;  // fixed integer loop, median of 5

  /// "ok", or a comma-separated list: "debug-build", "loaded".
  std::string flags() const;
};

struct CryptoCalibration {
  double sha1_1k_mbps = 0.0;  // SHA-1 over 1 KB inputs
  double sha1_1m_mbps = 0.0;  // SHA-1 over 1 MB inputs
  double rsa_verify_us = 0.0; // RSA-1024 PKCS#1 v1.5 SHA-1 verify
  double rsa_sign_us = 0.0;   // RSA-1024 PKCS#1 v1.5 SHA-1 sign
};

HostInfo probe_host();

/// Times the crypto public functions directly on a document-sized key.
CryptoCalibration calibrate_crypto(unsigned long long seed);

}  // namespace e2ebench
