// train_cell: the closed batch job of ROADMAP headline #1. One cell is
// CPDG pre-training of a TGN encoder on the Amazon-like time-transfer
// dataset, EIE fine-tuning on the downstream field, and streaming
// link-prediction evaluation. Cells alternate between 1 and nproc kernel
// threads until the run's time is spent; every cell of a run uses the same
// seed, so losses and AUC must match bit for bit across thread counts.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "core/finetuner.h"
#include "core/pretrainer.h"
#include "data/transfer.h"
#include "eval/evaluators.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace cpdg::perfbench {
namespace {

/// Dataset builds are short, so set-up repeats often enough for a steady
/// median.
constexpr int kSetupRepeats = 25;
/// One epoch each of pre-training and fine-tuning keeps a cell short, so a
/// run fits several cells per thread count.
constexpr int64_t kEpochs = 1;
constexpr int64_t kBatchSize = 200;
constexpr float kLearningRate = 5e-3f;
constexpr int64_t kDim = 32;
/// A model that learned separates true future links from random ones well
/// above chance; an untrained encoder scores 0.5-0.57 here.
constexpr double kAucFloor = 0.7;
/// Sampling period of the batch-step clock.
constexpr int64_t kPollUs = 200;
/// Timed metrics keep the less-stolen half of each thread count's cells
/// (and set-up repeats). A run has only about 15 cells per thread count,
/// and their times vary even when nothing is stolen, so a smaller share
/// would rest on too few of them.
constexpr double kKeep = 0.5;

data::TransferDataset BuildDataset(uint64_t seed) {
  data::TransferBenchmarkBuilder builder(data::MakeAmazonLike(), seed);
  return builder.Build(data::TransferSetting::kTime, /*downstream_field=*/0);
}

/// \brief Watches a registry counter from a side thread and records when it
/// advances: the per-batch step time of a training loop, measured without
/// tracing and without touching the loop.
class CounterClock {
 public:
  explicit CounterClock(const char* counter_name)
      : counter_(obs::MetricsRegistry::Global().counter(counter_name)),
        thread_([this] { Loop(); }) {}
  ~CounterClock() { Stop(); }
  CounterClock(const CounterClock&) = delete;
  CounterClock& operator=(const CounterClock&) = delete;

  /// Stops sampling; returns the gaps between consecutive advances (ms).
  std::vector<double> Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return gaps_ms_;
  }

 private:
  void Loop() {
    using Clock = std::chrono::steady_clock;
    int64_t last_value = counter_.value();
    Clock::time_point last_change{};
    bool seen_change = false;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      const int64_t value = counter_.value();
      if (value == last_value) continue;
      const Clock::time_point now = Clock::now();
      if (seen_change) {
        gaps_ms_.push_back(
            std::chrono::duration<double, std::milli>(now - last_change)
                .count());
      }
      seen_change = true;
      last_change = now;
      last_value = value;
    }
  }

  obs::Counter& counter_;
  std::atomic<bool> stop_{false};
  std::vector<double> gaps_ms_;
  std::thread thread_;  // last: starts after the members it uses
};

struct CellResult {
  double pretrain_s = 0.0;
  double finetune_s = 0.0;
  double eval_s = 0.0;
  int64_t pretrain_events = 0;
  int64_t finetune_events = 0;
  int64_t steps = 0;
  std::vector<double> losses;  // pre-training then fine-tuning epochs
  double auc = 0.0;
  std::vector<double> batch_ms;
  std::string error;
  /// Share of the machine's CPU time the hypervisor stole meanwhile.
  double steal_share = 0.0;
};

CellResult RunCell(const data::TransferDataset& ds, uint64_t seed) {
  CPDG_TRACE_SPAN("perfbench/train_cell");
  CellResult out;
  Rng rng(seed);
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, ds.num_nodes);
  config.memory_dim = kDim;
  config.embed_dim = kDim;
  config.time_dim = 8;
  config.num_neighbors = 10;
  Rng enc_rng = rng.Split();
  dgnn::DgnnEncoder encoder(config, &ds.pretrain_graph, &enc_rng);
  Rng dec_rng = rng.Split();
  dgnn::LinkPredictor pre_decoder(kDim, kDim, &dec_rng);

  core::CpdgConfig cpdg;
  cpdg.epochs = kEpochs;
  cpdg.batch_size = kBatchSize;
  cpdg.learning_rate = kLearningRate;
  cpdg.negative_pool = ds.pretrain_negative_pool;
  core::CpdgPretrainer pretrainer(cpdg, &rng);
  core::PretrainResult pre;
  {
    CPDG_TRACE_SPAN("perfbench/core_pretrain");
    CounterClock clock("dgnn.memory.messages_enqueued");
    util::Timer timer;
    pre = pretrainer.Pretrain(&encoder, &pre_decoder, ds.pretrain_graph);
    out.pretrain_s = timer.ElapsedSeconds();
    out.batch_ms = clock.Stop();
  }
  out.pretrain_events = kEpochs * ds.pretrain_graph.num_events();
  if (!pre.log.status.ok()) out.error = pre.log.status.ToString();

  encoder.AttachGraph(&ds.downstream_train_graph);
  core::FineTuneConfig ft;
  ft.train.epochs = kEpochs;
  ft.train.batch_size = kBatchSize;
  ft.train.learning_rate = kLearningRate;
  ft.train.negative_pool = ds.downstream_negative_pool;
  ft.use_eie = !pre.checkpoints.empty();
  ft.eie_variant = core::EieVariant::kGru;
  ft.eie_dim = kDim;
  ft.decoder_hidden = kDim;
  train::TrainTelemetry ft_log;
  std::unique_ptr<core::FineTunedModel> model;
  {
    CPDG_TRACE_SPAN("perfbench/core_finetune");
    util::Timer timer;
    model = std::make_unique<core::FineTunedModel>(core::FineTuneLinkPrediction(
        &encoder, ds.downstream_train_graph, ft,
        ft.use_eie ? &pre.checkpoints : nullptr, &rng, &ft_log));
    out.finetune_s = timer.ElapsedSeconds();
  }
  out.finetune_events = kEpochs * ds.downstream_train_graph.num_events();
  if (!ft_log.status.ok()) out.error = ft_log.status.ToString();
  for (const train::EpochTelemetry& e : pre.log.epochs) {
    out.steps += e.num_steps;
  }
  for (const train::EpochTelemetry& e : ft_log.epochs) {
    out.steps += e.num_steps;
  }
  out.losses = pre.log.epoch_losses;
  out.losses.insert(out.losses.end(), ft_log.epoch_losses.begin(),
                    ft_log.epoch_losses.end());

  {
    CPDG_TRACE_SPAN("perfbench/eval_link_prediction");
    util::Timer timer;
    eval::ScoreFn score = [&](const std::vector<graph::NodeId>& srcs,
                              const std::vector<graph::NodeId>& dsts,
                              const std::vector<double>& times) {
      return model->ScoreLogits(&encoder, srcs, dsts, times);
    };
    // Validation events only advance memory; test events are scored.
    eval::EvaluateDynamicLinkPrediction(&encoder, score,
                                        ds.downstream_val_events,
                                        ds.downstream_negative_pool,
                                        kBatchSize, &rng);
    out.auc = eval::EvaluateDynamicLinkPrediction(
                  &encoder, score, ds.downstream_test_events,
                  ds.downstream_negative_pool, kBatchSize, &rng)
                  .auc;
    out.eval_s = timer.ElapsedSeconds();
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

void RunTrainCell(const Args& args, Report* report) {
  const int nt = Nproc();
  std::vector<double> setup_s, setup_steal;
  data::TransferDataset ds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const StealMeter steal;
    util::Timer timer;
    ds = BuildDataset(args.seed);
    setup_s.push_back(timer.ElapsedSeconds());
    setup_steal.push_back(steal.Share());
  }
  std::printf("train_cell: %lld nodes, %lld pre-training / %lld fine-tuning "
              "events, %zu test events; threads 1 and %d\n",
              static_cast<long long>(ds.num_nodes),
              static_cast<long long>(ds.pretrain_graph.num_events()),
              static_cast<long long>(ds.downstream_train_graph.num_events()),
              ds.downstream_test_events.size(), nt);

  // The traced run measures untraced cells first (the overhead baseline),
  // then the same number of traced cells.
  std::unique_ptr<TraceWindow> trace;
  std::vector<CellResult> cells_1t, cells_nt, traced_nt;
  std::optional<CellResult> reference;  // the first cell
  util::Timer wall;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  int64_t attempted = 0, failed = 0;
  auto run = [&](int threads, std::vector<CellResult>* into) {
    util::ThreadPool::SetGlobalNumThreads(threads);
    const StealMeter steal;
    CellResult cell = RunCell(ds, args.seed);
    cell.steal_share = steal.Share();
    attempted += cell.steps;
    if (!cell.error.empty()) {
      ++failed;
      report->Fail("training halted: " + cell.error);
    }
    if (!reference.has_value()) {
      reference = cell;
    } else if (!SameBits(cell.losses, reference->losses) ||
               !SameBits({cell.auc}, {reference->auc})) {
      report->Fail("losses or link AUC differ bitwise between cells (" +
                   std::to_string(threads) + " threads)");
    }
    std::printf("  cell threads=%d pretrain %.3f s finetune %.3f s eval "
                "%.3f s auc %.4f step p50 %.2f p90 %.2f ms steal %.1f%%\n",
                threads, cell.pretrain_s, cell.finetune_s, cell.eval_s,
                cell.auc, Quantile(cell.batch_ms, 0.5),
                Quantile(cell.batch_ms, 0.9), 100.0 * cell.steal_share);
    into->push_back(std::move(cell));
  };
  for (int pair = 0; pair == 0 || wall.ElapsedSeconds() < budget; ++pair) {
    // Alternate which thread count goes first so drift hits both alike.
    if (pair % 2 == 0) {
      run(1, &cells_1t);
      run(nt, &cells_nt);
    } else {
      run(nt, &cells_nt);
      run(1, &cells_1t);
    }
  }
  if (args.trace) {
    trace = std::make_unique<TraceWindow>();
    for (size_t i = 0; i < cells_nt.size(); ++i) run(nt, &traced_nt);
    trace->Finish();
  }
  util::ThreadPool::SetGlobalNumThreads(nt);
  report->Count(attempted, failed);

  if (reference->auc < kAucFloor) {
    report->Fail("link AUC " + std::to_string(reference->auc) +
                 " is below the learned-model floor " +
                 std::to_string(kAucFloor));
  }
  for (double loss : reference->losses) {
    if (!std::isfinite(loss)) report->Fail("non-finite training loss");
  }

  // The timed metrics come from the less-stolen half of each thread
  // count's cells, so a burst of stolen CPU time on a shared machine moves
  // the cells it hits out of the estimate.
  auto less_stolen = [](const std::vector<CellResult>& cells) {
    std::vector<double> steal;
    for (const CellResult& c : cells) steal.push_back(c.steal_share);
    std::vector<const CellResult*> out;
    for (size_t i : LeastStolen(steal, kKeep)) out.push_back(&cells[i]);
    return out;
  };
  // Throughput: the cell's pre-training events over the median
  // pre-training time of the kept cells.
  auto rate = [&](const std::vector<CellResult>& cells) {
    std::vector<double> seconds;
    for (const CellResult* c : less_stolen(cells)) {
      seconds.push_back(c->pretrain_s);
    }
    return static_cast<double>(cells.front().pretrain_events) /
           Median(seconds);
  };
  // Step times come from the 1-thread cells, where no kernel pool thread
  // waits on another that the host has descheduled: the median over the
  // kept cells of each cell's step p50 and p90 (a cell times a couple of
  // dozen steps, so p90 is its third-slowest).
  auto step_ms = [&](double q) {
    std::vector<double> per_cell;
    for (const CellResult* c : less_stolen(cells_1t)) {
      per_cell.push_back(Quantile(c->batch_ms, q));
    }
    return Median(per_cell);
  };
  if (!args.trace) {
    report->Set("rate_1t", rate(cells_1t), "1/s");
    report->Set("rate_nt", rate(cells_nt), "1/s");
    report->Set("p50_ms", step_ms(0.5), "ms");
    report->Set("tail_ms", step_ms(0.9), "ms");
    report->Set("link_auc", reference->auc, "ratio");
    report->Set("success_share",
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(std::max<int64_t>(1, attempted)),
                "ratio");
    report->Set("setup_s", LessStolenMedian(setup_s, setup_steal, kKeep),
                "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  trace->PrintTable("train_cell, nproc threads");
  const double cells = static_cast<double>(traced_nt.size());
  SetProgramLayerMetrics(*trace, cells, report);
  auto median_of = [&](double CellResult::*field) {
    std::vector<double> v;
    for (const CellResult& c : cells_nt) v.push_back(c.*field);
    return Median(v);
  };
  report->Set("core.pretrain_s", median_of(&CellResult::pretrain_s), "s");
  report->Set("core.finetune_s", median_of(&CellResult::finetune_s), "s");
  report->Set("eval.s", median_of(&CellResult::eval_s), "s");
  // Overhead: traced against untraced pre-training time at nproc threads.
  std::vector<double> traced_pretrain;
  for (const CellResult& c : traced_nt) traced_pretrain.push_back(c.pretrain_s);
  SetTraceShares(*trace,
                 Median(traced_pretrain) /
                         median_of(&CellResult::pretrain_s) -
                     1.0,
                 report);
}

}  // namespace cpdg::perfbench
