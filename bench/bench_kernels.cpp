// Kernel-threading benchmark: times MatMul forward and forward+backward
// serial vs parallel across a thread sweep, plus one full link-prediction
// cell per thread count, and verifies every parallel result is bitwise
// identical to the serial run (the thread pool's static-partition
// contract). Results land in BENCH_kernels.json next to the binary.
//
// Measurement protocol: one untimed warm-up rep (first touch, pool
// spin-up, pack-buffer growth), then each rep timed individually;
// `seconds` is the best (minimum) rep and `spread_pct` is the max-vs-min
// run-to-run spread, so a noisy neighbour inflates the spread instead of
// silently corrupting the headline number. GFLOPS are derived from the
// same tensor.matmul.{fwd,bwd}_flops counters the trace/metrics export
// reads, so bench output and traces cannot disagree on the flop model.
//
// Usage:
//   bench_kernels          full sweep: 512x512x512, threads {1,2,4,8}
//   bench_kernels --smoke  CI-sized:   128x128x128, threads {1,2}
//
// Exits nonzero if any parallel result deviates from serial by a single
// bit, so the ctest `bench-smoke` registration doubles as a determinism
// check.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/experiment.h"
#include "data/transfer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cpdg;
namespace ts = cpdg::tensor;

struct Record {
  std::string name;
  int threads = 1;
  double seconds = 0.0;    // best (minimum) timed rep
  double spread_pct = 0.0; // (slowest - fastest) / fastest * 100
  double gflops = 0.0;
  double speedup_vs_1 = 0.0;
  bool bitwise_equal_to_serial = true;
};

/// Best-of-N reduction over individually timed reps.
struct RepStats {
  double best = 0.0;
  double spread_pct = 0.0;
};

RepStats Reduce(const std::vector<double>& rep_seconds) {
  RepStats stats;
  const auto [lo, hi] =
      std::minmax_element(rep_seconds.begin(), rep_seconds.end());
  stats.best = *lo;
  if (*lo > 0.0) stats.spread_pct = (*hi - *lo) / *lo * 100.0;
  return stats;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> Snapshot(const float* p, int64_t n) {
  return std::vector<float>(p, p + n);
}

// --- MatMul kernels -------------------------------------------------------

struct MatMulOutputs {
  std::vector<float> out, ga, gb;
};

MatMulOutputs TimeMatMul(int64_t m, int64_t k, int64_t n, int reps,
                         bool backward, RepStats* stats_out,
                         double* flops_per_rep_out) {
  Rng rng(42);
  ts::Tensor a = ts::Tensor::RandomUniform(m, k, 0.5f, &rng, backward);
  ts::Tensor b = ts::Tensor::RandomUniform(k, n, 0.5f, &rng, backward);
  MatMulOutputs outputs;
  obs::Counter& fwd_flops =
      obs::MetricsRegistry::Global().counter("tensor.matmul.fwd_flops");
  obs::Counter& bwd_flops =
      obs::MetricsRegistry::Global().counter("tensor.matmul.bwd_flops");
  // Warm-up rep excluded from timing (first touch, pool spin-up,
  // pack-buffer growth).
  {
    ts::Tensor out = ts::MatMul(a, b);
    if (backward) out.Backward();
  }
  if (backward) {
    std::memset(a.grad(), 0, sizeof(float) * static_cast<size_t>(a.size()));
    std::memset(b.grad(), 0, sizeof(float) * static_cast<size_t>(b.size()));
  }
  const int64_t flops_before = fwd_flops.value() + bwd_flops.value();
  std::vector<double> rep_seconds;
  rep_seconds.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    ts::Tensor out = ts::MatMul(a, b);
    if (backward) out.Backward();
    rep_seconds.push_back(timer.ElapsedSeconds());
    if (r == reps - 1) {
      outputs.out = Snapshot(out.data(), out.size());
      if (backward) {
        outputs.ga = Snapshot(a.grad(), a.size());
        outputs.gb = Snapshot(b.grad(), b.size());
      }
    }
  }
  // Flop model comes from the op counters themselves, not a local
  // re-derivation, so the bench and the metrics/trace export agree.
  *flops_per_rep_out = static_cast<double>(fwd_flops.value() +
                                           bwd_flops.value() - flops_before) /
                       reps;
  *stats_out = Reduce(rep_seconds);
  return outputs;
}

// --- Full bench cell ------------------------------------------------------

data::UniverseSpec CellUniverse() {
  data::UniverseSpec spec;
  spec.num_users = 50;
  data::FieldSpec a;
  a.name = "A";
  a.num_items = 30;
  a.num_communities = 4;
  a.num_events_early = 600;
  a.num_events_late = 400;
  data::FieldSpec pre = a;
  pre.name = "Pre";
  spec.fields = {a, pre};
  return spec;
}

bench::ExperimentScale CellScale() {
  bench::ExperimentScale scale;
  scale.num_seeds = 2;
  scale.pretrain_epochs = 1;
  scale.finetune_epochs = 1;
  scale.batch_size = 200;
  scale.num_neighbors = 5;
  return scale;
}

// --- JSON output ----------------------------------------------------------

void WriteJson(const std::vector<Record>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int allowed = util::ThreadPool::AllowedCpus();
  const char* simd = ts::simd::ModeName(ts::simd::ActiveMode());
  std::fputs("[\n", f);
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"threads\": %d, \"seconds\": %.6g, "
                 "\"spread_pct\": %.2f, \"gflops\": %.4g, "
                 "\"speedup_vs_1\": %.4g, \"bitwise_equal_to_serial\": %s, "
                 "\"hardware_concurrency\": %u, \"allowed_cpus\": %d, "
                 "\"simd\": \"%s\"}%s\n",
                 r.name.c_str(), r.threads, r.seconds, r.spread_pct, r.gflops,
                 r.speedup_vs_1, r.bitwise_equal_to_serial ? "true" : "false",
                 hw, allowed, simd, i + 1 < records.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int64_t dim = smoke ? 128 : 512;
  const int reps = smoke ? 3 : 5;
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::printf("kernel threading benchmark (%s): MatMul %lldx%lldx%lld, "
              "threads {",
              smoke ? "smoke" : "full", static_cast<long long>(dim),
              static_cast<long long>(dim), static_cast<long long>(dim));
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s%d", i != 0u ? "," : "", thread_counts[i]);
  }
  std::printf("}; hardware_concurrency=%u; allowed_cpus=%d; simd=%s\n\n",
              std::thread::hardware_concurrency(),
              util::ThreadPool::AllowedCpus(),
              ts::simd::ModeName(ts::simd::ActiveMode()));

  std::vector<Record> records;
  bool all_bitwise = true;

  for (bool backward : {false, true}) {
    const char* name = backward ? "matmul_fwd_bwd" : "matmul_fwd";
    MatMulOutputs serial;
    double serial_seconds = 0.0;
    for (int threads : thread_counts) {
      util::ThreadPool::SetGlobalNumThreads(threads);
      const util::ThreadPoolMetrics pool_before =
          util::ThreadPool::ReadMetrics();
      Record rec;
      rec.name = name;
      rec.threads = threads;
      RepStats stats;
      double flops_per_rep = 0.0;
      MatMulOutputs got =
          TimeMatMul(dim, dim, dim, reps, backward, &stats, &flops_per_rep);
      rec.seconds = stats.best;
      rec.spread_pct = stats.spread_pct;
      rec.gflops = flops_per_rep / rec.seconds * 1e-9;
      if (threads == 1) {
        serial = got;
        serial_seconds = rec.seconds;
        rec.speedup_vs_1 = 1.0;
      } else {
        rec.speedup_vs_1 = serial_seconds / rec.seconds;
        rec.bitwise_equal_to_serial =
            SameBits(serial.out, got.out) && SameBits(serial.ga, got.ga) &&
            SameBits(serial.gb, got.gb);
      }
      all_bitwise = all_bitwise && rec.bitwise_equal_to_serial;
      std::printf("%-16s threads=%d  %8.4f s (±%.1f%%)  %7.2f GFLOP/s  "
                  "speedup %.2fx  bitwise %s\n",
                  name, threads, rec.seconds, rec.spread_pct, rec.gflops,
                  rec.speedup_vs_1,
                  rec.bitwise_equal_to_serial ? "ok" : "MISMATCH");
      // Where this thread count's regions ran and how fast workers woke.
      std::printf("  %s\n", (util::ThreadPool::ReadMetrics() - pool_before).Summary().c_str());
      records.push_back(rec);
    }
  }

  // Full cell: pre-train + fine-tune + eval, per thread count. One untimed
  // warm-up run, then best-of-N like the kernels (the run is deterministic
  // per seed, so extra reps only tighten timing); bitwise check on the
  // AUC/AP doubles.
  {
    const int cell_reps = smoke ? 1 : 2;
    data::TransferBenchmarkBuilder builder(CellUniverse(), 77);
    data::TransferDataset ds = builder.Build(data::TransferSetting::kTime, 0);
    bench::LinkPredResult serial_cell;
    double serial_seconds = 0.0;
    for (int threads : thread_counts) {
      util::ThreadPool::SetGlobalNumThreads(threads);
      Record rec;
      rec.name = "link_pred_cell";
      rec.threads = threads;
      bench::RunLinkPrediction(bench::MethodSpec::Cpdg(), ds, CellScale(),
                               /*seed=*/1);
      std::vector<double> rep_seconds;
      bench::LinkPredResult cell;
      for (int r = 0; r < cell_reps; ++r) {
        util::Timer timer;
        cell = bench::RunLinkPrediction(bench::MethodSpec::Cpdg(), ds,
                                        CellScale(), /*seed=*/1);
        rep_seconds.push_back(timer.ElapsedSeconds());
      }
      const RepStats stats = Reduce(rep_seconds);
      rec.seconds = stats.best;
      rec.spread_pct = stats.spread_pct;
      if (threads == 1) {
        serial_cell = cell;
        serial_seconds = rec.seconds;
        rec.speedup_vs_1 = 1.0;
      } else {
        rec.speedup_vs_1 = serial_seconds / rec.seconds;
        rec.bitwise_equal_to_serial =
            cell.auc == serial_cell.auc && cell.ap == serial_cell.ap;
      }
      all_bitwise = all_bitwise && rec.bitwise_equal_to_serial;
      std::printf("%-16s threads=%d  %8.4f s (±%.1f%%)  %7s           "
                  "speedup %.2fx  bitwise %s\n",
                  "link_pred_cell", threads, rec.seconds, rec.spread_pct, "",
                  rec.speedup_vs_1,
                  rec.bitwise_equal_to_serial ? "ok" : "MISMATCH");
      records.push_back(rec);
    }
  }

  util::ThreadPool::SetGlobalNumThreads(util::ThreadPool::DefaultNumThreads());
  WriteJson(records, "BENCH_kernels.json");

  // Observability side channel next to the bench output: a flat metrics
  // snapshot always, plus the Chrome trace when CPDG_TRACE=1.
  {
    cpdg::Status status = obs::MetricsRegistry::Global().WriteJson(
        "BENCH_kernels_metrics.json");
    if (status.ok()) {
      std::printf("wrote BENCH_kernels_metrics.json\n");
    } else {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
    }
    if (obs::TraceEnabled()) {
      status = obs::Profiler::Global().WriteChromeTrace(
          "BENCH_kernels_trace.json");
      if (status.ok()) {
        std::printf("wrote BENCH_kernels_trace.json\n");
      } else {
        std::fprintf(stderr, "trace export failed: %s\n",
                     status.ToString().c_str());
      }
    }
  }

  if (!all_bitwise) {
    std::fprintf(stderr,
                 "FAIL: parallel result differs bitwise from serial\n");
    return 1;
  }
  return 0;
}
