// Training-pipeline benchmark: CPDG pre-training epoch throughput with the
// prefetching batch pipeline at depth 0 (serial) vs depth 4, and 1 vs 4
// producer threads, plus the batch-arena allocation win. Per setting it
// reports batches/s, the sampler-overlap ratio
// ((sample_seconds + compute_seconds) / wall_clock — > 1 means the prepare
// stage genuinely overlapped compute) and global operator-new calls per
// batch, into BENCH_train.json.
//
// The run doubles as an acceptance check and exits nonzero when:
//   - any prefetched setting's epoch losses are not bit-identical to the
//     serial (depth 0) run — the pipeline's determinism contract,
//   - allocations/batch with the arena enabled is not >= 5x lower than
//     with it disabled (measured at depth 0, where the count is
//     single-threaded and stable),
//   - depth 4 / 4 workers does not hide at least half of the prepare
//     stage from the consumer, or is slower than serial by wall clock
//     (medians over interleaved serial / pipelined pairs) — gated only
//     when the process may use >= 2 CPUs; on one CPU nothing can overlap.
//
// Sampling is a small share of a batch here (~8% at smoke size), so by
// Amdahl's law overlapping it can speed an epoch up by at most
// serial / (serial - sample_seconds), ~1.08x; a wall-clock bar above that
// cannot be met. The gate therefore checks the overlap itself: at depth 0
// the whole prepare time (sample_seconds) sits on the consumer's critical
// path; pipelined, only the consumer's waits for a batch that is not ready
// yet (train.prefetch.consumer_stall_seconds) are left of it. That figure
// leaves out the queue handoff and producers that take turns with the
// consumer on its CPU, so the median wall-clock speedup must also be at
// least 1.0x: a pipeline that makes training slower fails. Both medians
// and the Amdahl bound are printed.
//
// Usage:
//   bench_train_pipeline          full size:  2000 nodes, 20k events
//   bench_train_pipeline --smoke  CI-sized:   300 nodes, 4k events

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/pretrainer.h"
#include "dgnn/encoder.h"
#include "graph/temporal_graph.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

// Allocation probe (the obs_test pattern, widened to all threads): every
// global operator new in the process bumps one atomic, so the count covers
// prefetch workers as well as the consumer.
namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cpdg;

/// Interleaved serial / pipelined pairs behind the prefetch gate.
constexpr int kGateReps = 7;
/// Share of the serial prepare time the pipeline must hide.
constexpr double kMinHiddenShare = 0.5;
/// Wall-clock speedup over serial the pipeline must at least reach.
constexpr double kMinSpeedup = 1.0;

struct Sizes {
  int64_t num_nodes = 2000;
  int64_t num_events = 20000;
  int64_t batch_size = 200;
  int64_t epochs = 1;
};

struct Record {
  std::string scenario;
  int64_t depth = 0;
  int64_t workers = 0;
  bool arena = true;
  int64_t batches = 0;
  double seconds = 0.0;
  double batches_per_sec = 0.0;
  double sample_seconds = 0.0;
  double compute_seconds = 0.0;
  double overlap_ratio = 0.0;
  double allocs_per_batch = 0.0;
  double speedup_vs_serial = 1.0;
  bool bitwise_equal_to_serial = true;
  std::vector<double> losses;
};

graph::TemporalGraph MakeGraph(const Sizes& sizes) {
  Rng rng(11);
  int64_t half = sizes.num_nodes / 2;
  std::vector<graph::Event> events;
  events.reserve(static_cast<size_t>(sizes.num_events));
  for (int64_t i = 0; i < sizes.num_events; ++i) {
    auto a = static_cast<graph::NodeId>(rng.NextBounded(half));
    auto b = static_cast<graph::NodeId>(half + rng.NextBounded(half));
    events.push_back({a, b, static_cast<double>(i) * 0.001});
  }
  return graph::TemporalGraph::Create(sizes.num_nodes, events).ValueOrDie();
}

// One full pre-training run at the given pipeline setting; fresh model
// state and fixed seeds each time, so every setting must reproduce the
// same losses bit for bit.
Record RunOnce(const graph::TemporalGraph& graph, const Sizes& sizes,
               const char* scenario, int64_t depth, int64_t workers,
               bool arena) {
  setenv("CPDG_PREFETCH_DEPTH", std::to_string(depth).c_str(), 1);
  setenv("CPDG_PREFETCH_WORKERS", std::to_string(workers).c_str(), 1);
  tensor::SetArenaEnabledOverride(arena ? 1 : 0);

  Rng rng(13);
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, graph.num_nodes());
  config.memory_dim = 16;
  config.embed_dim = 16;
  config.time_dim = 8;
  config.num_neighbors = 5;
  dgnn::DgnnEncoder encoder(config, &graph, &rng);
  dgnn::LinkPredictor decoder(16, 16, &rng);

  core::CpdgConfig cpdg;
  cpdg.epochs = sizes.epochs;
  cpdg.batch_size = sizes.batch_size;
  cpdg.num_checkpoints = 4;
  cpdg.max_contrast_anchors = 32;
  cpdg.sample_width = 3;
  cpdg.sample_depth = 2;
  core::CpdgPretrainer pretrainer(cpdg, &rng);

  Record rec;
  rec.scenario = scenario;
  rec.depth = depth;
  rec.workers = workers;
  rec.arena = arena;
  rec.batches =
      sizes.epochs * ((sizes.num_events + sizes.batch_size - 1) /
                      sizes.batch_size);

  int64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  util::Timer timer;
  core::PretrainResult result = pretrainer.Pretrain(&encoder, &decoder, graph);
  rec.seconds = timer.ElapsedSeconds();
  int64_t allocs = g_alloc_count.load(std::memory_order_relaxed) -
                   allocs_before;

  if (!result.log.status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", scenario,
                 result.log.status.message().c_str());
    std::exit(1);
  }
  rec.losses = result.log.epoch_losses;
  for (const train::EpochTelemetry& et : result.log.epochs) {
    rec.sample_seconds += et.sample_seconds;
    rec.compute_seconds += et.compute_seconds;
  }
  rec.batches_per_sec = static_cast<double>(rec.batches) / rec.seconds;
  rec.overlap_ratio =
      (rec.sample_seconds + rec.compute_seconds) / rec.seconds;
  rec.allocs_per_batch =
      static_cast<double>(allocs) / static_cast<double>(rec.batches);
  return rec;
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void WriteJson(const std::vector<Record>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  const unsigned hw = std::thread::hardware_concurrency();
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "  {\"scenario\": \"%s\", \"depth\": %lld, \"workers\": %lld, "
        "\"arena\": %s, \"batches\": %lld, \"seconds\": %.6g, "
        "\"batches_per_sec\": %.6g, \"sample_seconds\": %.6g, "
        "\"compute_seconds\": %.6g, \"overlap_ratio\": %.4g, "
        "\"allocs_per_batch\": %.6g, \"speedup_vs_serial\": %.4g, "
        "\"bitwise_equal_to_serial\": %s, \"hardware_concurrency\": %u}%s\n",
        r.scenario.c_str(), static_cast<long long>(r.depth),
        static_cast<long long>(r.workers), r.arena ? "true" : "false",
        static_cast<long long>(r.batches), r.seconds, r.batches_per_sec,
        r.sample_seconds, r.compute_seconds, r.overlap_ratio,
        r.allocs_per_batch, r.speedup_vs_serial,
        r.bitwise_equal_to_serial ? "true" : "false", hw,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  Sizes sizes;
  if (smoke) {
    sizes.num_nodes = 300;
    sizes.num_events = 4000;
    sizes.batch_size = 100;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("train-pipeline bench: %lld nodes, %lld events, batch %lld, "
              "%u core(s)%s\n\n",
              static_cast<long long>(sizes.num_nodes),
              static_cast<long long>(sizes.num_events),
              static_cast<long long>(sizes.batch_size), hw,
              smoke ? " [smoke]" : "");
  obs::SetTraceEnabled(true);
  graph::TemporalGraph graph = MakeGraph(sizes);

  std::vector<Record> records;
  records.push_back(
      RunOnce(graph, sizes, "pretrain_serial", /*depth=*/0, /*workers=*/1,
              /*arena=*/true));
  const Record serial = records[0];  // copy: push_back reallocates
  records.push_back(RunOnce(graph, sizes, "pretrain_d1_w1", 1, 1, true));
  records.push_back(RunOnce(graph, sizes, "pretrain_d4_w1", 4, 1, true));
  records.push_back(RunOnce(graph, sizes, "pretrain_d4_w4", 4, 4, true));
  records.push_back(
      RunOnce(graph, sizes, "pretrain_serial_noarena", 0, 1, false));

  bool ok = true;
  for (size_t i = 1; i < records.size(); ++i) {
    Record& r = records[i];
    r.speedup_vs_serial = serial.seconds / r.seconds;
    r.bitwise_equal_to_serial = r.losses == serial.losses;
    if (!r.bitwise_equal_to_serial) {
      std::fprintf(stderr, "FAIL %s: losses diverge from serial run\n",
                   r.scenario.c_str());
      ok = false;
    }
  }

  std::printf("%-24s %7s %8s %11s %9s %13s\n", "scenario", "depth",
              "workers", "batches/s", "overlap", "allocs/batch");
  for (const Record& r : records) {
    std::printf("%-24s %7lld %8lld %11.1f %9.2f %13.1f\n",
                r.scenario.c_str(), static_cast<long long>(r.depth),
                static_cast<long long>(r.workers), r.batches_per_sec,
                r.overlap_ratio, r.allocs_per_batch);
  }
  std::printf("\n%s\n\n", util::ThreadPool::ReadMetrics().Summary().c_str());

  const Record& noarena = records.back();
  double alloc_reduction =
      noarena.allocs_per_batch / serial.allocs_per_batch;
  std::printf("arena allocation reduction: %.1fx (%0.f -> %0.f per batch)\n",
              alloc_reduction, noarena.allocs_per_batch,
              serial.allocs_per_batch);
  if (alloc_reduction < 5.0) {
    std::fprintf(stderr,
                 "FAIL arena reduces allocations only %.1fx (need 5x)\n",
                 alloc_reduction);
    ok = false;
  }

  const int cpus = util::ThreadPool::AllowedCpus();
  if (cpus >= 2) {
    // The trace keeps covering the five scenarios above only.
    obs::SetTraceEnabled(false);
    obs::Histogram& stall = obs::MetricsRegistry::Global().histogram(
        "train.prefetch.consumer_stall_seconds");
    std::vector<double> hidden, speedups, bounds;
    for (int rep = 0; rep < kGateReps; ++rep) {
      Record s = RunOnce(graph, sizes, "gate_serial", 0, 1, true);
      const double stall_before = stall.sum();
      Record d = RunOnce(graph, sizes, "gate_d4_w4", 4, 4, true);
      const double exposed = stall.sum() - stall_before;
      if (s.losses != serial.losses || d.losses != serial.losses) {
        std::fprintf(stderr, "FAIL gate rep %d: losses diverge from serial "
                     "run\n", rep);
        ok = false;
      }
      hidden.push_back(1.0 - exposed / s.sample_seconds);
      speedups.push_back(s.seconds / d.seconds);
      bounds.push_back(s.seconds / (s.seconds - s.sample_seconds));
    }
    const double hidden_share = MedianOf(hidden);
    const double speedup = MedianOf(speedups);
    std::printf("prefetch (d4/w4 vs serial, median of %d interleaved "
                "pairs): hides %.0f%% of the prepare stage; wall-clock "
                "speedup %.2fx, Amdahl bound %.2fx\n",
                kGateReps, 100.0 * hidden_share, speedup, MedianOf(bounds));
    if (hidden_share < kMinHiddenShare) {
      std::fprintf(stderr,
                   "FAIL prefetch hides %.0f%% of the prepare stage, below "
                   "the %.0f%% bar\n",
                   100.0 * hidden_share, 100.0 * kMinHiddenShare);
      ok = false;
    }
    if (speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "FAIL prefetch wall-clock speedup %.2fx, below the "
                   "%.2fx bar\n", speedup, kMinSpeedup);
      ok = false;
    }
  } else {
    std::printf("prefetch gate skipped: %d allowed CPU(s), overlap needs "
                ">= 2\n", cpus);
  }

  WriteJson(records, "BENCH_train.json");
  cpdg::Status status =
      obs::MetricsRegistry::Global().WriteJson("BENCH_train_metrics.json");
  if (status.ok()) std::printf("wrote BENCH_train_metrics.json\n");
  status = obs::Profiler::Global().WriteChromeTrace("BENCH_train_trace.json");
  if (status.ok()) std::printf("wrote BENCH_train_trace.json\n");
  return ok ? 0 : 1;
}
