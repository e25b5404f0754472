// Shared plumbing of the benchmark program: the result report and its JSON
// line, order statistics, process/machine facts, and the span self-time
// fold behind the traced per-layer table.
#ifndef CPDG_PERFBENCH_HARNESS_H_
#define CPDG_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.h"

namespace cpdg::perfbench {

/// Command-line arguments every workload receives.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// \brief What one run prints: the correctness verdict, operations
/// attempted/failed, and named metrics with units, in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check; the run then exits nonzero.
  void Fail(const std::string& what);
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& name) const;

  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Machine facts recorded with every result: nproc (CPUs this process may
/// run on), hardware_concurrency, the active SIMD backend and AVX-VNNI.
std::string MachineJson();
int Nproc();

/// \brief Share of the machine's CPU time stolen by the hypervisor since
/// construction, from /proc/stat (0 where the kernel does not report it).
/// On a shared virtual machine this explains runs that read slow.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  int64_t steal_ = 0;
  int64_t total_ = 0;
};

/// Indices, in increasing order, of the least-stolen `keep` share (rounded
/// up) of measurement windows with the given steal shares. A metric taken
/// over several windows spread across a run is reported from these, so
/// that a burst of stolen CPU time on a shared machine moves the windows it
/// hits out of the estimate. Ties keep the earlier window.
std::vector<size_t> LeastStolen(const std::vector<double>& steal_shares,
                                double keep);
/// Median of `values` over the LeastStolen `keep` share of their windows.
double LessStolenMedian(const std::vector<double>& values,
                        const std::vector<double>& steal_shares, double keep);

/// \brief Per-name self time of a span set: each span's duration minus the
/// part of it covered by its direct children on the same thread (child
/// intervals are clipped to the parent). Spans nest by RAII, so per thread
/// a start-ordered stack recovers the tree.
std::map<std::string, int64_t> SelfTimeByName(
    std::vector<obs::SpanEvent> spans);

/// Layer a span belongs to: the prefix before '/', except that the
/// benchmark's own spans ("perfbench/...") are the un-attributed rest —
/// time inside the benchmark's calls that no span of the program covers.
std::string LayerOf(const std::string& span_name);
inline constexpr char kUnattributed[] = "unattributed";

/// Self time summed per layer (LayerOf) from SelfTimeByName output.
std::map<std::string, int64_t> SelfTimeByLayer(
    const std::map<std::string, int64_t>& by_name);

}  // namespace cpdg::perfbench

#endif  // CPDG_PERFBENCH_HARNESS_H_
