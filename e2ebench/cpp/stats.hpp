// Summary statistics for the real-socket benchmark: percentiles that refuse
// to report a tail they have too few samples for, ratios that carry their
// base, and an arrival-sampled in-flight gauge.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/mutex.hpp"

namespace e2ebench {

/// Samples that must lie strictly above a reported percentile.  A p99 of
/// 900 samples rests on 9 values and is not reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in (0, 1)) of `samples`, or nullopt when fewer
/// than kMinSamplesBeyond samples rank above it.  Reorders `samples`.
std::optional<double> percentile(std::vector<double>& samples, double q);

/// Plain median (mean of the middle pair for even sizes); 0 for none.  Used
/// where no tail is claimed: over windows, over repeated set-ups.
double median(std::vector<double> samples);

/// A ratio together with the counts it was formed from.
struct Ratio {
  std::uint64_t num = 0;
  std::uint64_t base = 0;
  /// num / base; 0 when the base is empty.
  double value() const { return base == 0 ? 0.0 : double(num) / double(base); }
  /// "0.250 (1/4)".
  std::string to_string() const;
};

/// Concurrency seen by arriving work: enter() counts the caller in and
/// records how many were in flight at that moment (itself included).
/// mean() is the average over arrivals, max() the peak.  Thread-safe.
class InflightGauge {
 public:
  void enter();
  void leave() { current_.fetch_sub(1, std::memory_order_relaxed); }
  double mean() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t arrivals() const { return arrivals_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> sum_at_arrival_{0};
  std::atomic<std::uint64_t> arrivals_{0};
};

/// Samples per measurement window, aggregated while the run goes so the
/// samples held stay bounded by about two windows' worth.
struct WindowSeries {
  std::vector<double> ok, bytes, p50_ms;  // per window
  std::vector<double> p90_ms;  // per window holding enough samples for a p90
  std::vector<double> p99_ms;  // per stretch of windows holding >= 1010 samples
  std::vector<double> tail_ms;  // samples of the last, unfinished stretch
};

class WindowAggregator {
 public:
  WindowAggregator(std::int64_t start_ns, std::int64_t window_ns, std::size_t windows,
                   std::size_t clients);

  std::size_t windows() const { return windows_; }
  /// Window of a completion time; windows() when it is past the end.
  std::size_t window_of(std::int64_t end_ns) const;

  /// One client's latencies (ms) and content bytes for `window`.  Every
  /// client submits every window exactly once, in order.
  void submit(std::size_t window, std::vector<double>&& latency_ms, std::uint64_t bytes)
      GLOBE_EXCLUDES(mutex_);

  /// The finished series; call after every client has returned.
  WindowSeries take() GLOBE_EXCLUDES(mutex_);

 private:
  struct Pending {
    std::vector<double> latency_ms;
    std::uint64_t bytes = 0;
    std::size_t reported = 0;
  };
  const std::int64_t start_ns_, window_ns_;
  const std::size_t windows_, clients_;
  globe::util::Mutex mutex_;
  std::vector<Pending> pending_ GLOBE_GUARDED_BY(mutex_);
  std::size_t next_ GLOBE_GUARDED_BY(mutex_) = 0;  // next window to finish
  WindowSeries series_ GLOBE_GUARDED_BY(mutex_);
};

}  // namespace e2ebench
