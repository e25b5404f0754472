#include "train/prefetch.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/arena.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cpdg::train {

namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0) return fallback;
  return static_cast<int64_t>(parsed);
}

struct PrefetchMetrics {
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::Global().gauge("train.prefetch.queue_depth");
  obs::Histogram& producer_stall = obs::MetricsRegistry::Global().histogram(
      "train.prefetch.producer_stall_seconds");
  obs::Histogram& consumer_stall = obs::MetricsRegistry::Global().histogram(
      "train.prefetch.consumer_stall_seconds");
  obs::Counter& produced =
      obs::MetricsRegistry::Global().counter("train.prefetch.produced");
  obs::Counter& discarded =
      obs::MetricsRegistry::Global().counter("train.prefetch.discarded");

  static PrefetchMetrics& Get() {
    static PrefetchMetrics* metrics = new PrefetchMetrics();
    return *metrics;
  }
};

}  // namespace

PrefetchOptions PrefetchOptions::FromEnv() {
  PrefetchOptions options;
  options.depth = EnvInt64("CPDG_PREFETCH_DEPTH", 0);
  options.workers = std::max<int64_t>(1, EnvInt64("CPDG_PREFETCH_WORKERS", 1));
  return options;
}

PrefetchPipeline::PrefetchPipeline(const PrefetchOptions& options,
                                   int64_t first, int64_t num_batches,
                                   ProduceFn produce)
    : options_(options), num_batches_(num_batches),
      produce_(std::move(produce)) {
  CPDG_CHECK(produce_ != nullptr);
  CPDG_CHECK_GE(options_.depth, 0);
  CPDG_CHECK_GE(first, 0);
  CPDG_CHECK_LE(first, num_batches);
  next_ticket_ = first;
  consume_next_ = first;
  if (options_.depth == 0) return;
  slots_.resize(static_cast<size_t>(options_.depth) + 1);
  slot_ready_.assign(slots_.size(), 0);
  int64_t n = std::max<int64_t>(1, options_.workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    // Producers must overlap the consumer, not take turns on its CPU.
    util::ThreadPool::KeepOffCallerCpu(&workers_.back());
  }
}

PrefetchPipeline::~PrefetchPipeline() { Stop(); }

void PrefetchPipeline::WorkerLoop() {
  // Each producer thread keeps its own batch arena for the pipeline's
  // lifetime, so the prepare stage's sampling scratch recycles across the
  // batches this worker produces (see tensor/arena.h).
  tensor::ArenaScope arena_scope;
  PrefetchMetrics& metrics = PrefetchMetrics::Get();
  for (;;) {
    int64_t ticket = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      util::Timer stall;
      claimable_.wait(lock, [this] {
        return shutdown_ || next_ticket_ >= num_batches_ ||
               next_ticket_ <= consume_next_ + options_.depth;
      });
      // Only a real wait (window full) is a producer stall; instantaneous
      // claims would flood the histogram's low buckets.
      double stalled = stall.ElapsedSeconds();
      if (stalled > 0.0) metrics.producer_stall.Observe(stalled);
      if (shutdown_ || next_ticket_ >= num_batches_) return;
      ticket = next_ticket_++;
    }

    PreparedBatch batch = produce_(ticket);

    {
      std::unique_lock<std::mutex> lock(mu_);
      ++counters_.produced;
      metrics.produced.Add();
      if (shutdown_ || ticket < consume_next_) {
        // The consumer gave up on this epoch while we were producing.
        ++counters_.discarded;
        metrics.discarded.Add();
        continue;
      }
      int64_t slot = SlotOf(ticket);
      slots_[static_cast<size_t>(slot)] = std::move(batch);
      slot_ready_[static_cast<size_t>(slot)] = 1;
      ready_.notify_all();
    }
  }
}

PreparedBatch PrefetchPipeline::Next(int64_t index) {
  CPDG_CHECK_GE(index, 0);
  CPDG_CHECK_LT(index, num_batches_);
  if (options_.depth == 0) {
    CPDG_CHECK_EQ(index, consume_next_);
    consume_next_ = index + 1;
    PreparedBatch batch = produce_(index);
    ++counters_.produced;
    ++counters_.consumed;
    PrefetchMetrics::Get().produced.Add();
    return batch;
  }

  PrefetchMetrics& metrics = PrefetchMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  CPDG_CHECK_EQ(index, consume_next_)
      << "prefetch consumer must take batches in order";
  CPDG_CHECK(!shutdown_) << "Next() after Stop()";
  int64_t slot = SlotOf(index);
  util::Timer stall;
  ready_.wait(lock, [this, slot] {
    return slot_ready_[static_cast<size_t>(slot)] != 0;
  });
  double stalled = stall.ElapsedSeconds();
  if (stalled > 0.0) metrics.consumer_stall.Observe(stalled);

  PreparedBatch batch = std::move(slots_[static_cast<size_t>(slot)]);
  slot_ready_[static_cast<size_t>(slot)] = 0;
  slots_[static_cast<size_t>(slot)] = PreparedBatch();
  ++counters_.consumed;
  consume_next_ = index + 1;
  int64_t ready_count = 0;
  for (uint8_t r : slot_ready_) ready_count += r;
  metrics.queue_depth.Set(ready_count);
  claimable_.notify_all();
  return batch;
}

void PrefetchPipeline::Stop() {
  if (options_.depth == 0) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!shutdown_) shutdown_ = true;
    claimable_.notify_all();
    ready_.notify_all();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Workers are joined: ready-but-never-consumed slots are now discards.
  std::unique_lock<std::mutex> lock(mu_);
  PrefetchMetrics& metrics = PrefetchMetrics::Get();
  for (size_t i = 0; i < slot_ready_.size(); ++i) {
    if (slot_ready_[i] != 0) {
      slot_ready_[i] = 0;
      slots_[i] = PreparedBatch();
      ++counters_.discarded;
      metrics.discarded.Add();
    }
  }
  metrics.queue_depth.Set(0);
}

PrefetchPipeline::Counters PrefetchPipeline::counters() const {
  std::unique_lock<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace cpdg::train
