// The benchmark's workloads. Each fills a Report with every end-to-end
// metric (untraced run) or every per-layer metric (traced run) and records
// failed correctness checks in it.
#ifndef CPDG_PERFBENCH_WORKLOADS_H_
#define CPDG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace cpdg::perfbench {

/// Closed batch job: CPDG pre-training of a TGN encoder, EIE fine-tuning
/// and link-prediction evaluation, at 1 and at nproc kernel threads.
void RunTrainCell(const Args& args, Report* report);
/// Reads over the mmap store: open-loop Poisson embed and score-link
/// requests for latency, bursts of embeds for throughput.
void RunServeRead(const Args& args, Report* report);

/// Fixed workload parameters, printed by `perfbench --print-config` and
/// stated in BENCHMARK.json's workload descriptions.
std::string ConfigJson();

/// \brief Scope of a traced measurement: clears the profiler and the
/// metrics registry, switches tracing on, and on Finish() switches it off
/// and folds the recorded spans into per-layer self time.
class TraceWindow {
 public:
  TraceWindow();
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  void Finish();
  /// Self time (us) of one span name / one layer; 0 when absent.
  double SelfUs(const std::string& span_name) const;
  /// Summed duration (us) of one span name, children included.
  double DurUs(const std::string& span_name) const;
  double LayerUs(const std::string& layer) const;
  /// Sum of all self time (the whole traced span time).
  double TotalUs() const;
  int64_t SpanCount(const std::string& span_name) const;

  /// Prints the per-layer self-time table (one row per layer, plus the
  /// un-attributed row) to stdout.
  void PrintTable(const std::string& title) const;

 private:
  bool finished_ = false;
  std::map<std::string, int64_t> by_name_;
  std::map<std::string, int64_t> by_layer_;
  std::map<std::string, int64_t> counts_;
  std::map<std::string, int64_t> dur_;
  int64_t dropped_ = 0;
};

/// The registry counter / histogram helpers used by the per-layer metrics.
int64_t CounterValue(const std::string& name);
double HistogramMean(const std::string& name);
double HistogramSum(const std::string& name);

/// Every per-layer metric (name, unit) a traced run prints, in order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Sets the tensor, train, sampler and dgnn metrics from a finished trace
/// window and the metrics registry (reset when the window opened). Times
/// and counts are divided by `units`: cells on train_cell, 1 (the fixed
/// traced window) on the serving workloads.
void SetProgramLayerMetrics(const TraceWindow& trace, double units,
                            Report* report);

/// Every end-to-end metric (name, unit) an untraced run prints, in order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Sets trace.overhead_share (measured by the caller against its untraced
/// window) and trace.unattributed_share (un-attributed self time over all
/// traced span time).
void SetTraceShares(const TraceWindow& trace, double overhead_share,
                    Report* report);

}  // namespace cpdg::perfbench

#endif  // CPDG_PERFBENCH_WORKLOADS_H_
