#ifndef CPDG_OBS_METRICS_H_
#define CPDG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.h"

namespace cpdg::obs {

/// \brief Monotonic counter. Increments are relaxed atomic adds, so a
/// counter can be bumped from any thread (including thread-pool workers)
/// without coordination; reads are racy-but-coherent snapshots.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Histogram over positive values with fixed log-scale (power-of-two)
/// buckets.
///
/// Bucket b (0-based) covers (2^(kMinExponent+b-1), 2^(kMinExponent+b)];
/// values at or below 2^kMinExponent land in the first bucket together with
/// zero and negative observations, values above 2^kMaxExponent land in the
/// last (overflow) bucket. Boundaries are computed with frexp, so values
/// exactly at a power of two always classify into the bucket whose upper
/// edge they sit on, with no floating-point log fuzz. Buckets, count, and
/// sum are relaxed atomics; min/max use CAS loops. The layout never changes
/// at runtime, which keeps Observe() allocation-free.
class Histogram {
 public:
  /// 2^-20 (~1e-6) .. 2^20 (~1e6): covers microsecond-scale spans measured
  /// in seconds up to large element counts. Bucket 0 additionally absorbs
  /// everything at or below 2^kMinExponent (zero/negative included); the
  /// last bucket absorbs everything above 2^kMaxExponent.
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 20;
  static constexpr int kNumBuckets = kMaxExponent - kMinExponent + 2;

  void Observe(double value);

  /// Bucket index Observe(value) classifies into. Exposed for tests.
  static int BucketIndex(double value);
  /// Inclusive upper edge of bucket b: 2^(kMinExponent+b); the last bucket
  /// reports +infinity.
  static double BucketUpperEdge(int b);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest observed value; 0 before any observation.
  double min() const;
  double max() const;
  int64_t bucket_count(int b) const;
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_extrema_{false};
};

/// \brief Process-wide registry of named metrics.
///
/// Lookup by name takes a mutex and is intended for cold paths; hot paths
/// resolve their metric once (function-local static reference) and then
/// update it lock-free. A name identifies exactly one metric kind —
/// re-registering it as a different kind aborts. Metric objects live for
/// the process lifetime, so references stay valid after Reset().
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Flat JSON snapshot, keys sorted by name (deterministic):
  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count","sum","min","max","buckets":[{"le",count}, ...]}},
  /// "thread_pool": {...}}. Histogram bucket lists include only non-empty
  /// buckets. "thread_pool" holds util::ThreadPool::ReadMetrics(): regions
  /// dispatched and inline, participants, spin hits, parks, late arrivals,
  /// the wake-latency buckets (le in us) and stripes per CPU id.
  std::string ToJson() const;

  /// Writes ToJson() atomically (temp file + rename).
  Status WriteJson(const std::string& path) const;

  /// Zeroes every registered metric (values only; registrations and
  /// references survive). For tests and per-run scoping.
  void ResetValues();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cpdg::obs

#endif  // CPDG_OBS_METRICS_H_
