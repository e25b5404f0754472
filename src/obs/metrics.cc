#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpdg::obs {

namespace {

/// Relaxed CAS-max / CAS-min over an atomic<double>.
void AtomicMax(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicAdd(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v,
                                   std::memory_order_relaxed)) {
  }
}

/// Shortest round-trippable representation of a double for JSON output.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips exactly.
  char short_buf[32];
  std::snprintf(short_buf, sizeof(short_buf), "%g", v);
  double back = std::strtod(short_buf, nullptr);
  return back == v ? short_buf : buf;
}

void AppendEscaped(std::ostringstream* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out << buf;
    } else {
      *out << c;
    }
  }
}

}  // namespace

int Histogram::BucketIndex(double value) {
  if (!(value > 0.0) || std::isnan(value)) return 0;  // <=0 and nan: underflow
  if (std::isinf(value)) return kNumBuckets - 1;
  // frexp: value = m * 2^e with m in [0.5, 1). The inclusive-upper-edge
  // bucket for (2^(k-1), 2^k] is k - kMinExponent: a value exactly at 2^k
  // has m == 0.5 and e == k+1, so `edge` below is its own upper edge k.
  int e = 0;
  double m = std::frexp(value, &e);
  int edge = (m == 0.5) ? e - 1 : e;
  if (edge <= kMinExponent) return 0;
  if (edge > kMaxExponent) return kNumBuckets - 1;
  return edge - kMinExponent;
}

double Histogram::BucketUpperEdge(int b) {
  CPDG_CHECK_GE(b, 0);
  CPDG_CHECK_LT(b, kNumBuckets);
  if (b == kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, kMinExponent + b);
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  if (!has_extrema_.exchange(true, std::memory_order_relaxed)) {
    // First observation seeds both extrema; concurrent first observers
    // race benignly (the CAS loops below still fold every value in).
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

int64_t Histogram::bucket_count(int b) const {
  CPDG_CHECK_GE(b, 0);
  CPDG_CHECK_LT(b, kNumBuckets);
  return buckets_[b].load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  has_extrema_.store(false, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CPDG_CHECK(gauges_.find(name) == gauges_.end() &&
             histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CPDG_CHECK(counters_.find(name) == counters_.end() &&
             histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CPDG_CHECK(counters_.find(name) == counters_.end() &&
             gauges_.find(name) == gauges_.end())
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

/// The kernel pool's process-wide counters (util cannot link obs, so the
/// registry reads them at export time).
void AppendThreadPool(std::ostringstream* out,
                      const util::ThreadPoolMetrics& m) {
  *out << "{\"regions_dispatched\": " << m.regions_dispatched
       << ", \"regions_inline\": " << m.regions_inline
       << ", \"participants\": " << m.participants
       << ", \"spin_hits\": " << m.spin_hits << ", \"parks\": " << m.parks
       << ", \"late_arrivals\": " << m.late_arrivals << ", \"wake_us\": [";
  bool first = true;
  for (int b = 0; b < util::ThreadPoolMetrics::kWakeBuckets; ++b) {
    if (m.wake_us[b] == 0) continue;
    *out << (first ? "" : ", ") << "{\"le\": ";
    if (b + 1 == util::ThreadPoolMetrics::kWakeBuckets) {
      *out << "\"inf\"";
    } else {
      *out << (int64_t{1} << b);
    }
    *out << ", \"count\": " << m.wake_us[b] << "}";
    first = false;
  }
  *out << "], \"stripes_by_cpu\": {";
  first = true;
  for (int c = 0; c < util::ThreadPoolMetrics::kMaxCpus; ++c) {
    if (m.stripes_by_cpu[c] == 0) continue;
    *out << (first ? "" : ", ") << "\"" << c << "\": " << m.stripes_by_cpu[c];
    first = false;
  }
  *out << "}}";
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"";
    AppendEscaped(&out, name);
    out << "\": " << c->value();
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"";
    AppendEscaped(&out, name);
    out << "\": " << JsonNumber(g->value());
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"";
    AppendEscaped(&out, name);
    out << "\": {\"count\": " << h->count()
        << ", \"sum\": " << JsonNumber(h->sum())
        << ", \"min\": " << JsonNumber(h->min())
        << ", \"max\": " << JsonNumber(h->max()) << ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      int64_t n = h->bucket_count(b);
      if (n == 0) continue;
      if (!first_bucket) out << ", ";
      double le = Histogram::BucketUpperEdge(b);
      out << "{\"le\": "
          << (std::isinf(le) ? std::string("\"inf\"") : JsonNumber(le))
          << ", \"count\": " << n << "}";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"thread_pool\": ";
  AppendThreadPool(&out, util::ThreadPool::ReadMetrics());
  out << "\n}\n";
  return out.str();
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  return util::AtomicWriteFile(path, ToJson());
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace cpdg::obs
