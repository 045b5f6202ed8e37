// Closed-loop browser clients and the update_mix writer.
//
// A client owns one TCP connection to the proxy and speaks HTTP inside the
// TcpServer frame format (u32 BE length; replies start with a one-byte OK
// flag).  It sends its next GET only after the previous reply arrived, with
// a receive deadline on the socket, and reopens the connection after any
// failure so a run always finishes.  Every 200 body is compared byte for
// byte with the generated element; canary requests must come back 403.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stack.hpp"
#include "stats.hpp"
#include "util/bytes.hpp"

namespace e2ebench {

/// Which document a client asks for next.
enum class Pattern { kUniform, kRoundRobin };

struct ClientSpec {
  std::uint16_t port = 0;
  Pattern pattern = Pattern::kUniform;
  std::uint64_t seed = 0;
  std::size_t index = 0;         // client number (seeds its own sequence)
  std::size_t canary_every = 0;  // every n-th request targets the canary
  std::int64_t deadline_ns = 0;  // send no request after this
  WindowAggregator* windows = nullptr;  // receives verified latencies
};

struct ClientTally {
  std::uint64_t attempted = 0;     // every request sent, canary included
  std::uint64_t ok = 0;            // verified 200s
  std::uint64_t bytes = 0;         // verified content bytes
  std::uint64_t failed = 0;        // timeouts, connection errors, non-200s, wrong bytes
  std::uint64_t canary_403 = 0;    // canary requests refused as expected
  // Failure breakdown.
  std::uint64_t transport_errors = 0, http_403 = 0, http_other = 0;
  // Correctness violations: any of these makes the run incorrect.
  std::uint64_t wrong_bytes = 0, canary_served = 0;

  void merge(const ClientTally& other);
};

/// Runs one closed-loop client until its deadline.
ClientTally run_client(const ClientSpec& spec, const Corpus& corpus);

/// Fetches every element of every document (and the canary) once over one
/// connection.  Throws std::runtime_error if any reply is not as expected.
void warm_up(std::uint16_t port, const Corpus& corpus);

struct WriterTally {
  std::vector<double> publish_ms;   // due time to push acknowledged
  std::vector<double> sign_ms;      // ObjectOwner::sign_and_snapshot
  std::vector<double> push_ms;      // AdminClient::update_replica
  std::vector<double> lateness_ms;  // due time to start
  std::uint64_t attempted = 0, failed = 0;
};

/// Open-loop writer: write i is due at start + i/rate.  Each write changes
/// one element, re-signs the document and pushes it.  `next_write` indexes
/// corpus.writes and advances across calls.
WriterTally run_writer(Stack& stack, Corpus& corpus, double rate, std::int64_t start_ns,
                       std::int64_t deadline_ns, std::size_t& next_write);

}  // namespace e2ebench
