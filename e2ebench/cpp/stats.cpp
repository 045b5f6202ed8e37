#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {

std::optional<double> percentile(std::vector<double>& samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.  Everything after that rank lies beyond the percentile.
  auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  if (rank == 0) rank = 1;
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::string Ratio::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.4f (%llu/%llu)", value(),
                static_cast<unsigned long long>(num),
                static_cast<unsigned long long>(base));
  return buf;
}

void InflightGauge::enter() {
  std::uint64_t now = current_.fetch_add(1, std::memory_order_relaxed) + 1;
  sum_at_arrival_.fetch_add(now, std::memory_order_relaxed);
  arrivals_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (now > seen &&
         !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
}

double InflightGauge::mean() const {
  std::uint64_t n = arrivals_.load(std::memory_order_relaxed);
  return n == 0 ? 0.0
                : double(sum_at_arrival_.load(std::memory_order_relaxed)) / double(n);
}

void InflightGauge::reset() {
  max_.store(current_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_at_arrival_.store(0, std::memory_order_relaxed);
  arrivals_.store(0, std::memory_order_relaxed);
}

WindowAggregator::WindowAggregator(std::int64_t start_ns, std::int64_t window_ns,
                                   std::size_t windows, std::size_t clients)
    : start_ns_(start_ns), window_ns_(window_ns), windows_(windows), clients_(clients),
      pending_(windows) {}

std::size_t WindowAggregator::window_of(std::int64_t end_ns) const {
  if (end_ns < start_ns_) return 0;
  return std::min(windows_, std::size_t((end_ns - start_ns_) / window_ns_));
}

void WindowAggregator::submit(std::size_t window, std::vector<double>&& latency_ms,
                              std::uint64_t bytes) {
  globe::util::LockGuard lock(mutex_);
  Pending& p = pending_[window];
  p.latency_ms.insert(p.latency_ms.end(), latency_ms.begin(), latency_ms.end());
  p.bytes += bytes;
  ++p.reported;
  // Finish windows in order as soon as every client has reported them.
  while (next_ < windows_ && pending_[next_].reported == clients_) {
    Pending& done = pending_[next_++];
    series_.ok.push_back(double(done.latency_ms.size()));
    series_.bytes.push_back(double(done.bytes));
    series_.p50_ms.push_back(median(done.latency_ms));
    if (auto p90 = percentile(done.latency_ms, 0.9)) series_.p90_ms.push_back(*p90);
    auto& tail = series_.tail_ms;
    tail.insert(tail.end(), done.latency_ms.begin(), done.latency_ms.end());
    if (auto p99 = percentile(tail, 0.99)) {
      series_.p99_ms.push_back(*p99);
      tail.clear();
    }
    done = Pending{};
  }
}

WindowSeries WindowAggregator::take() {
  globe::util::LockGuard lock(mutex_);
  return std::move(series_);
}

}  // namespace e2ebench
