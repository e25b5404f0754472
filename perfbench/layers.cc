#include <cstdio>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "workloads.h"

namespace cpdg::perfbench {
namespace {

/// The repository's layers, in table order, then the un-attributed rest.
const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> layers = {
      "tensor", "train",   "sampler", "dgnn",       "core",
      "eval",   "storage", "serve",   kUnattributed};
  return layers;
}

}  // namespace

TraceWindow::TraceWindow() {
  obs::Profiler::Global().Clear();
  obs::MetricsRegistry::Global().ResetValues();
  obs::SetTraceEnabled(true);
}

TraceWindow::~TraceWindow() { Finish(); }

void TraceWindow::Finish() {
  if (finished_) return;
  finished_ = true;
  obs::SetTraceEnabled(false);
  const std::vector<obs::SpanEvent> spans = obs::Profiler::Global().Snapshot();
  for (const obs::SpanEvent& span : spans) {
    ++counts_[span.name];
    dur_[span.name] += span.dur_us;
  }
  by_name_ = SelfTimeByName(spans);
  by_layer_ = SelfTimeByLayer(by_name_);
  dropped_ = obs::Profiler::Global().dropped_events();
}

double TraceWindow::SelfUs(const std::string& span_name) const {
  auto it = by_name_.find(span_name);
  return it == by_name_.end() ? 0.0 : static_cast<double>(it->second);
}

double TraceWindow::DurUs(const std::string& span_name) const {
  auto it = dur_.find(span_name);
  return it == dur_.end() ? 0.0 : static_cast<double>(it->second);
}

double TraceWindow::LayerUs(const std::string& layer) const {
  auto it = by_layer_.find(layer);
  return it == by_layer_.end() ? 0.0 : static_cast<double>(it->second);
}

double TraceWindow::TotalUs() const {
  double total = 0.0;
  for (const auto& [layer, us] : by_layer_) total += static_cast<double>(us);
  return total;
}

int64_t TraceWindow::SpanCount(const std::string& span_name) const {
  auto it = counts_.find(span_name);
  return it == counts_.end() ? 0 : it->second;
}

void TraceWindow::PrintTable(const std::string& title) const {
  const double total = TotalUs();
  std::printf("\nper-layer self time, %s (span time %.1f ms, %lld spans "
              "dropped)\n",
              title.c_str(), total / 1e3, static_cast<long long>(dropped_));
  std::printf("  %-14s %12s %8s\n", "layer", "self_ms", "share");
  for (const std::string& layer : LayerNames()) {
    const double us = LayerUs(layer);
    std::printf("  %-14s %12.2f %7.1f%%\n", layer.c_str(), us / 1e3,
                total > 0 ? 100.0 * us / total : 0.0);
  }
  std::printf("  %-34s %10s %8s\n", "span", "self_ms", "count");
  for (const auto& [name, us] : by_name_) {
    std::printf("  %-34s %10.2f %8lld\n", name.c_str(),
                static_cast<double>(us) / 1e3,
                static_cast<long long>(SpanCount(name)));
  }
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

double HistogramMean(const std::string& name) {
  const obs::Histogram& h = obs::MetricsRegistry::Global().histogram(name);
  return h.count() > 0 ? h.sum() / static_cast<double>(h.count()) : 0.0;
}

double HistogramSum(const std::string& name) {
  return obs::MetricsRegistry::Global().histogram(name).sum();
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"rate_nt", "1/s"},       {"rate_1t", "1/s"},
      {"p50_ms", "ms"},         {"tail_ms", "ms"},
      {"link_auc", "ratio"},    {"success_share", "ratio"},
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"tensor.matmul_fwd_self_ms", "ms"},
      {"tensor.matmul_bwd_self_ms", "ms"},
      {"tensor.matmul_calls", "count"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"tensor.arena_hit_ratio", "ratio"},
      {"train.forward_self_ms", "ms"},
      {"train.backward_self_ms", "ms"},
      {"train.optimizer_ms", "ms"},
      {"train.prefetch_consumer_stall_s", "s"},
      {"train.prefetch_useful_ratio", "ratio"},
      {"sampler.self_ms", "ms"},
      {"sampler.subgraphs", "count"},
      {"sampler.nodes_per_subgraph", "count"},
      {"dgnn.memory_flush_ms", "ms"},
      {"dgnn.memory_commit_ms", "ms"},
      {"dgnn.state_updates", "count"},
      {"core.pretrain_s", "s"},
      {"core.finetune_s", "s"},
      {"eval.s", "s"},
      {"storage.build_s", "s"},
      {"storage.neighbor_query_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.queue_peak_depth", "count"},
      {"serve.forward_ms_per_node", "ms"},
      {"serve.load_checkpoint_ms", "ms"},
      {"serve.stale_share", "ratio"},
      {"gen.lateness_p99_ms", "ms"},
      {"trace.overhead_share", "ratio"},
      {"trace.unattributed_share", "ratio"},
  };
  return metrics;
}

void SetProgramLayerMetrics(const TraceWindow& trace, double units,
                            Report* report) {
  auto per = [units](double v) { return v / units; };
  auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double fwd_us = trace.SelfUs("tensor/matmul_fwd");
  const double bwd_us = trace.SelfUs("tensor/matmul_bwd");
  const double flops =
      static_cast<double>(CounterValue("tensor.matmul.fwd_flops") +
                          CounterValue("tensor.matmul.bwd_flops"));
  report->Set("tensor.matmul_fwd_self_ms", per(fwd_us / 1e3), "ms");
  report->Set("tensor.matmul_bwd_self_ms", per(bwd_us / 1e3), "ms");
  report->Set("tensor.matmul_calls",
              per(static_cast<double>(CounterValue("tensor.matmul.calls"))),
              "count");
  report->Set("tensor.matmul_gflops", ratio(flops / 1e3, fwd_us + bwd_us),
              "GFLOP/s");
  const double hits =
      static_cast<double>(CounterValue("train.arena.pool_hits"));
  report->Set("tensor.arena_hit_ratio",
              ratio(hits, hits + static_cast<double>(
                                     CounterValue("train.arena.heap_allocs"))),
              "ratio");

  report->Set("train.forward_self_ms", per(trace.SelfUs("train/forward") / 1e3),
              "ms");
  report->Set("train.backward_self_ms",
              per(trace.SelfUs("train/backward") / 1e3), "ms");
  report->Set("train.optimizer_ms",
              per(trace.DurUs("train/optimizer_step") / 1e3), "ms");
  report->Set("train.prefetch_consumer_stall_s",
              per(HistogramSum("train.prefetch.consumer_stall_seconds")), "s");
  const double produced =
      static_cast<double>(CounterValue("train.prefetch.produced"));
  report->Set("train.prefetch_useful_ratio",
              ratio(produced - static_cast<double>(
                                   CounterValue("train.prefetch.discarded")),
                    produced),
              "ratio");

  const double subgraphs =
      static_cast<double>(CounterValue("sampler.eta_bfs.calls") +
                          CounterValue("sampler.eps_dfs.calls"));
  report->Set("sampler.self_ms", per(trace.LayerUs("sampler") / 1e3), "ms");
  report->Set("sampler.subgraphs", per(subgraphs), "count");
  report->Set("sampler.nodes_per_subgraph",
              ratio(HistogramSum("sampler.eta_bfs.nodes") +
                        HistogramSum("sampler.eps_dfs.nodes"),
                    subgraphs),
              "count");

  report->Set("dgnn.memory_flush_ms",
              per(trace.SelfUs("dgnn/memory_flush") / 1e3), "ms");
  report->Set("dgnn.memory_commit_ms",
              per(trace.SelfUs("dgnn/memory_commit") / 1e3), "ms");
  report->Set("dgnn.state_updates",
              per(static_cast<double>(
                  CounterValue("dgnn.memory.state_updates"))),
              "count");
}

void SetTraceShares(const TraceWindow& trace, double overhead_share,
                    Report* report) {
  const double unattributed =
      trace.TotalUs() > 0 ? trace.LayerUs(kUnattributed) / trace.TotalUs()
                          : 0.0;
  std::printf("  tracing overhead %+.1f%% against the untraced half; "
              "un-attributed %.1f%% of traced span time\n",
              100.0 * overhead_share, 100.0 * unattributed);
  report->Set("trace.overhead_share", overhead_share, "ratio");
  report->Set("trace.unattributed_share", unattributed, "ratio");
}

}  // namespace cpdg::perfbench
