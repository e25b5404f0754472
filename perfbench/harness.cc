#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>
#include <tuple>

#include "tensor/simd.h"

namespace cpdg::perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

bool Report::Has(const std::string& name) const {
  for (const auto& entry : metrics_) {
    if (entry.first == name) return true;
  }
  return false;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string MachineJson() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"hardware_concurrency\": %u, "
                "\"simd\": \"%s\", \"avx_vnni\": %s}",
                Nproc(), std::thread::hardware_concurrency(),
                tensor::simd::ModeName(tensor::simd::ActiveMode()),
                tensor::simd::AvxVnniSupported() ? "true" : "false");
  return buf;
}

namespace {

/// Aggregate "cpu" line of /proc/stat: {steal, total} jiffies.
std::pair<int64_t, int64_t> ReadCpuJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 8) return {0, 0};
  int64_t total = 0;
  for (long long x : v) total += x;
  return {v[7], total};  // user nice system idle iowait irq softirq steal
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = ReadCpuJiffies(); }

double StealMeter::Share() const {
  const auto [steal, total] = ReadCpuJiffies();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

std::vector<size_t> LeastStolen(const std::vector<double>& steal_shares,
                                double keep) {
  std::vector<size_t> order(steal_shares.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_shares[a] < steal_shares[b];
  });
  order.resize(std::min(order.size(),
                        static_cast<size_t>(std::ceil(
                            keep * static_cast<double>(order.size())))));
  std::sort(order.begin(), order.end());
  return order;
}

double LessStolenMedian(const std::vector<double>& values,
                        const std::vector<double>& steal_shares, double keep) {
  std::vector<double> kept;
  for (size_t i : LeastStolen(steal_shares, keep)) kept.push_back(values[i]);
  return Median(std::move(kept));
}

std::map<std::string, int64_t> SelfTimeByName(
    std::vector<obs::SpanEvent> spans) {
  // Parents first: by thread, then start, then nesting depth.
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  std::vector<int64_t> covered(spans.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanEvent& span = spans[i];
    while (!stack.empty()) {
      const obs::SpanEvent& top = spans[stack.back()];
      const bool same_thread = top.tid == span.tid;
      if (same_thread && span.start_us < top.start_us + top.dur_us &&
          top.depth < span.depth) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      const obs::SpanEvent& parent = spans[stack.back()];
      const int64_t end = std::min(span.start_us + span.dur_us,
                                   parent.start_us + parent.dur_us);
      covered[stack.back()] += std::max<int64_t>(0, end - span.start_us);
    }
    stack.push_back(i);
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += std::max<int64_t>(0, spans[i].dur_us - covered[i]);
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  const size_t slash = span_name.find('/');
  const std::string prefix = span_name.substr(0, slash);
  if (prefix == "perfbench" || slash == std::string::npos) {
    return kUnattributed;
  }
  return prefix;
}

std::map<std::string, int64_t> SelfTimeByLayer(
    const std::map<std::string, int64_t>& by_name) {
  std::map<std::string, int64_t> by_layer;
  for (const auto& [name, us] : by_name) by_layer[LayerOf(name)] += us;
  return by_layer;
}

}  // namespace cpdg::perfbench
