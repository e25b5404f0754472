// serve_read: traffic against serve::ServingEngine: open-loop reads at a
// fixed absolute rate for latency, and bursts of reads for throughput.
// Set-up pre-trains a CPDG checkpoint on the Amazon-like profile, builds
// the mmap ShardedGraphStore over the same events and loads a 2-shard
// engine from the checkpoint. Open-loop requests are timed from their
// scheduled send to the moment the client holds the answer, so a stall also
// charges the requests queued behind it. Every attempted request ends as
// answered or failed.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "core/pretrainer.h"
#include "data/transfer.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "obs/profiler.h"
#include "serve/serving_engine.h"
#include "storage/sharded_store.h"
#include "tensor/checkpoint_container.h"
#include "tensor/ops.h"
#include "tensor/serialization.h"
#include "train/checkpoint.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace cpdg::perfbench {
namespace {

namespace fs = std::filesystem;
namespace ts = cpdg::tensor;
using graph::Event;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

// Traffic, fixed in absolute terms so that a parent and a change under test
// receive the same offered load (stated again in BENCHMARK.json). Where
// each value comes from is listed in perfbench/README.md.
constexpr double kReferenceRps = 8000;
/// A run is kRounds rounds. Each round drives reference traffic for
/// kReferenceShareOfRun / kRounds of the run, at 1 kernel thread (where no
/// shard's forward waits on a kernel pool thread the host has descheduled),
/// and bursts at nproc and at 1 thread, in alternating order, for
/// kBurstShareOfRun / kRounds. A slow phase of a shared machine so hits a
/// few chunks of each.
constexpr int kRounds = 10;
constexpr double kReferenceShareOfRun = 0.4;
constexpr double kBurstShareOfRun = 0.4;
/// Requests of one throughput burst, all submitted at once: per shard an
/// eighth of the queue limit. Burst requests carry a deadline far beyond
/// the time a burst takes, so none is served stale.
constexpr int64_t kBurst = 4096;
/// Each half of a traced run (untraced, then traced) lasts this share of
/// the run: short enough that no thread's span buffer overflows at the
/// reference rate.
constexpr double kTracedShareOfRun = 0.2;
/// A window's latency quantiles are taken per slice of about this length;
/// a reported quantile is the median over the least-stolen kKeep share of
/// the slices (SliceMedian).
constexpr double kSliceS = 0.2;
/// Timed metrics keep the least-stolen quarter of their windows (in a 40-s
/// run, 20 of the 80 reference slices and about 25 bursts per thread
/// count). Busy
/// neighbours of a shared machine slow it for minutes at a time, through
/// most of a run, and the windows they spare are the few least stolen.
constexpr double kKeep = 0.25;
/// Set-up repeats are few: set-up time is the median of the less-stolen
/// half.
constexpr double kSetupKeep = 0.5;
/// Generous enough that no request fails in a healthy run.
constexpr int64_t kDeadlineUs = 1000000;
constexpr double kEmbedShare = 0.75;
constexpr int kScoreClients = 16;

// Engine and model.
constexpr int kShards = 2;
constexpr int64_t kQueueLimit = 16384;
constexpr int64_t kCacheRowsPerShard = 64;
constexpr int64_t kDim = 128;
constexpr int kSetupRepeats = 3;

// Checks.
constexpr int64_t kCheckPairs = 1000;
constexpr int64_t kParityNodes = 64;
constexpr double kServedAucFloor = 0.7;
constexpr int64_t kNeighborProbes = 4000;

void Require(const Status& status, const char* what) {
  CPDG_CHECK(status.ok()) << what << ": " << status.ToString();
}

dgnn::EncoderConfig ModelConfig(int64_t num_nodes) {
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, num_nodes);
  config.memory_dim = kDim;
  config.embed_dim = kDim;
  config.time_dim = 8;
  config.num_neighbors = 10;
  return config;
}

/// Everything set-up produces; the engine reads the store and checkpoint.
struct Fixture {
  std::string dir;
  int64_t num_nodes = 0;
  double horizon = 0.0;
  std::vector<NodeId> item_pool;
  /// The events the served graph holds; queries follow their endpoints.
  std::vector<Event> served;
  /// Events after the horizon, in time order: the positives of the
  /// served-AUC check.
  std::vector<Event> future;
  std::unique_ptr<storage::ShardedGraphStore> store;
  std::string checkpoint;
  std::unique_ptr<serve::ServingEngine> engine;
  double storage_build_s = 0.0;
  double load_checkpoint_s = 0.0;
};

/// Writes the pre-training result in the layout FromCheckpoint restores:
/// encoder parameters, then the decoder's, plus the memory section.
void WriteCheckpoint(const dgnn::DgnnEncoder& encoder,
                     const dgnn::LinkPredictor& decoder,
                     const std::string& path) {
  std::vector<ts::Tensor> params = encoder.Parameters();
  std::vector<ts::Tensor> dec = decoder.Parameters();
  params.insert(params.end(), dec.begin(), dec.end());
  ts::SectionWriter writer;
  writer.Add(ts::kParamsSection, ts::EncodeTensorList(params).ValueOrDie());
  std::string memory;
  encoder.memory().SerializeTo(&memory);
  writer.Add(train::kMemorySection, memory);
  Require(writer.WriteAtomic(path), "checkpoint write");
}

Fixture SetUp(uint64_t seed, const std::string& dir,
              const serve::ServingOptions& options) {
  Fixture fx;
  fx.dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  data::TransferBenchmarkBuilder builder(data::MakeAmazonLike(), seed);
  data::TransferDataset ds = builder.Build(data::TransferSetting::kTime, 0);
  fx.num_nodes = ds.num_nodes;
  fx.horizon = ds.pretrain_graph.max_time();
  fx.item_pool = ds.downstream_negative_pool;
  fx.served = ds.pretrain_graph.events();
  // The future continues the downstream field at its own event density.
  const data::UniverseSpec& spec = builder.universe().spec();
  const double density = static_cast<double>(spec.fields[0].num_events_late) /
                         (1.0 - spec.split_time);
  fx.future = builder.universe().GenerateEvents(
      0, spec.split_time,
      spec.split_time + static_cast<double>(kCheckPairs) / density,
      kCheckPairs);

  // One epoch of CPDG pre-training gives the served model its weights,
  // decoder and memory.
  {
    Rng rng(seed);
    Rng enc_rng = rng.Split();
    dgnn::DgnnEncoder encoder(ModelConfig(fx.num_nodes), &ds.pretrain_graph,
                              &enc_rng);
    Rng dec_rng = rng.Split();
    dgnn::LinkPredictor decoder(kDim, kDim, &dec_rng);
    core::CpdgConfig cpdg;
    cpdg.epochs = 1;
    cpdg.learning_rate = 5e-3f;
    cpdg.negative_pool = ds.pretrain_negative_pool;
    core::CpdgPretrainer pretrainer(cpdg, &rng);
    core::PretrainResult result =
        pretrainer.Pretrain(&encoder, &decoder, ds.pretrain_graph);
    CPDG_CHECK(result.log.status.ok()) << result.log.status.ToString();
    fx.checkpoint = dir + "/model.ckpt";
    WriteCheckpoint(encoder, decoder, fx.checkpoint);
  }

  {
    util::Timer timer;
    storage::StoreOptions store_options;
    store_options.shard_count = 2;
    store_options.verify_checksums = true;
    fx.store = storage::ShardedGraphStore::Build(dir + "/store", fx.num_nodes,
                                                 ds.pretrain_graph.events(),
                                                 store_options)
                   .TakeValue();
    fx.storage_build_s = timer.ElapsedSeconds();
  }
  {
    util::Timer timer;
    fx.engine = serve::ServingEngine::FromCheckpoint(
                    ModelConfig(fx.num_nodes), kDim, fx.store.get(),
                    fx.checkpoint, options)
                    .TakeValue();
    fx.load_checkpoint_s = timer.ElapsedSeconds();
  }
  return fx;
}

serve::ServingOptions EngineOptions() {
  serve::ServingOptions options;
  options.num_shards = kShards;
  options.max_batch = 64;
  options.max_wait_micros = 0;
  options.cache_capacity = kCacheRowsPerShard;
  options.queue_limit = kQueueLimit;
  options.overload = serve::OverloadPolicy::kReject;
  options.default_deadline_us = kDeadlineUs;
  return options;
}

/// Repeats set-up kSetupRepeats times and keeps the last fixture. setup_s
/// is the LessStolenMedian of the repeats.
Fixture SetUpRepeated(const Args& args, std::vector<double>* setup_s,
                      std::vector<double>* build_s,
                      std::vector<double>* load_s,
                      std::vector<double>* steal) {
  const std::string base =
      ".bench_work/serve_read-" + std::to_string(::getpid());
  Fixture fx;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fx.engine.reset();  // stops before the store it reads is replaced
    const std::string dir = base + "/setup" + std::to_string(i);
    const StealMeter meter;
    util::Timer timer;
    fx = SetUp(args.seed, dir, EngineOptions());
    setup_s->push_back(timer.ElapsedSeconds());
    steal->push_back(meter.Share());
    build_s->push_back(fx.storage_build_s);
    load_s->push_back(fx.load_checkpoint_s);
    if (i > 0) fs::remove_all(base + "/setup" + std::to_string(i - 1));
  }
  return fx;
}

/// \brief The direct frozen-encoder forward the served answers must match:
/// an encoder and decoder restored from the same checkpoint, over the same
/// store.
struct Reference {
  Rng rng{0x5e17f0u};
  std::unique_ptr<dgnn::DgnnEncoder> encoder;
  std::unique_ptr<dgnn::LinkPredictor> predictor;

  explicit Reference(const Fixture& fx) {
    encoder = std::make_unique<dgnn::DgnnEncoder>(ModelConfig(fx.num_nodes),
                                                  fx.store.get(), &rng);
    predictor = std::make_unique<dgnn::LinkPredictor>(kDim, kDim, &rng);
    ts::SectionReader reader = ts::SectionReader::Open(fx.checkpoint)
                                   .TakeValue();
    std::vector<ts::Tensor> params = encoder->Parameters();
    std::vector<ts::Tensor> dec = predictor->Parameters();
    params.insert(params.end(), dec.begin(), dec.end());
    Require(ts::RestoreTensorData(
                params, ts::DecodeTensorList(
                            reader.Find(ts::kParamsSection).ValueOrDie())
                            .ValueOrDie()),
            "reference parameter restore");
    Require(encoder->memory().DeserializeFrom(
                reader.Find(train::kMemorySection).ValueOrDie()),
            "reference memory restore");
  }

  ts::Tensor Embed(const std::vector<NodeId>& nodes, double t) {
    ts::InferenceModeGuard guard;
    encoder->BeginBatch();
    return encoder->ComputeEmbeddings(nodes,
                                      std::vector<double>(nodes.size(), t));
  }

  std::vector<double> Score(const std::vector<NodeId>& srcs,
                            const std::vector<NodeId>& dsts, double t) {
    ts::Tensor z_src = Embed(srcs, t);
    ts::Tensor z_dst = Embed(dsts, t);
    ts::InferenceModeGuard guard;
    ts::Tensor probs = ts::Sigmoid(predictor->ForwardLogits(z_src, z_dst));
    std::vector<double> out(srcs.size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<double>(probs.at(static_cast<int64_t>(i), 0));
    }
    return out;
  }
};

/// Served link scores for `pairs` positives (the next future events) and as
/// many negatives (random items), checked bit for bit against the reference
/// forward; returns the served AUC.
double CheckServedAnswers(const Fixture& fx, serve::ServingEngine* engine,
                          Reference* ref, const std::vector<Event>& positives,
                          double t, uint64_t seed, Report* report,
                          int64_t* attempted, int64_t* failed) {
  Rng rng(seed ^ 0xc4ec4ULL);
  std::vector<NodeId> srcs, dsts;
  for (const Event& e : positives) {
    srcs.push_back(e.src);
    dsts.push_back(e.dst);
  }
  for (const Event& e : positives) {
    srcs.push_back(e.src);
    dsts.push_back(fx.item_pool[rng.NextBounded(fx.item_pool.size())]);
  }
  ++*attempted;
  Result<serve::ScoreResponse> served =
      engine->ScoreLinksFull(srcs, dsts, t, /*deadline_us=*/10000000);
  if (!served.ok()) {
    ++*failed;
    report->Fail("served score check failed: " + served.status().ToString());
    return 0.5;
  }
  const std::vector<double> direct = ref->Score(srcs, dsts, t);
  if (served.value().probabilities.size() != direct.size() ||
      std::memcmp(served.value().probabilities.data(), direct.data(),
                  direct.size() * sizeof(double)) != 0) {
    report->Fail("served link scores differ bitwise from the direct "
                 "frozen-encoder forward");
  }

  std::vector<NodeId> probe;
  for (int64_t i = 0; i < kParityNodes; ++i) {
    probe.push_back(static_cast<NodeId>(rng.NextBounded(
        static_cast<uint64_t>(fx.num_nodes))));
  }
  ++*attempted;
  Result<serve::EmbedResponse> embedded =
      engine->EmbedFull(probe, t, /*deadline_us=*/10000000);
  if (!embedded.ok()) {
    ++*failed;
    report->Fail("served embed check failed: " +
                 embedded.status().ToString());
  } else {
    const ts::Tensor direct_z = ref->Embed(probe, t);
    const ts::Tensor& z = embedded.value().embeddings;
    if (z.size() != direct_z.size() ||
        std::memcmp(z.data(), direct_z.data(),
                    static_cast<size_t>(z.size()) * sizeof(float)) != 0) {
      report->Fail("served embeddings differ bitwise from the direct "
                   "frozen-encoder forward");
    }
  }

  std::vector<eval::ScoredLabel> samples;
  const std::vector<double>& p = served.value().probabilities;
  for (size_t i = 0; i < p.size(); ++i) {
    samples.push_back({p[i], i < positives.size() ? 1 : 0});
  }
  return eval::RocAuc(samples);
}

/// One request: when it was due (us from the window start) and its latency
/// from that moment (ms).
struct Sample {
  int64_t due_us = 0;
  double latency_ms = 0.0;
};

/// What one open-loop window observed. Every attempted request has a
/// latency from its scheduled send; a failed one counts as its deadline,
/// so it misses any latency limit.
struct Window {
  double rate = 0.0;
  double seconds = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t stale = 0;
  /// Share of the machine's CPU time the hypervisor stole meanwhile, over
  /// the whole window and per slice.
  double steal_share = 0.0;
  std::vector<double> slice_steal;
  std::vector<Sample> samples;  // sorted by due time after the window
  std::vector<double> lateness_ms;
  std::vector<NodeId> nodes;  // every node queried, for storage probes
  std::string first_error;

  std::vector<double> Latencies(size_t begin, size_t end) const {
    std::vector<double> out;
    for (size_t i = begin; i < end; ++i) out.push_back(samples[i].latency_ms);
    return out;
  }
  double P(double q) const { return Quantile(Latencies(0, samples.size()), q); }

  /// Equal slices of about kSliceS, by due time.
  int Slices() const {
    return std::max(1, static_cast<int>(seconds / kSliceS));
  }
  /// Appends quantile q of each non-empty slice to `values` and the steal
  /// share measured during that slice to `steal`.
  void AddSlices(double q, std::vector<double>* values,
                 std::vector<double>* steal) const {
    const int parts = Slices();
    size_t begin = 0;
    for (int k = 1; k <= parts; ++k) {
      const int64_t edge = static_cast<int64_t>(seconds * 1e6 * k / parts);
      size_t end = begin;
      while (end < samples.size() &&
             (samples[end].due_us < edge || k == parts)) {
        ++end;
      }
      if (end > begin) {
        values->push_back(Quantile(Latencies(begin, end), q));
        steal->push_back(slice_steal[static_cast<size_t>(k - 1)]);
      }
      begin = end;
    }
  }
};

/// Who is queried and when: nodes by their activity in the served graph,
/// at one fixed query time.
struct Traffic {
  Traffic(const std::vector<Event>& served, double t)
      : nodes(served), time(t) {}
  ActivitySampler nodes;
  double time;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// What one load-generator thread observed; merged into the Window.
struct Observed {
  std::vector<Sample> samples;
  std::vector<double> lateness_ms;
  int64_t failed = 0;
  int64_t stale = 0;
  std::string first_error;

  void Answer(int64_t due_us, Clock::time_point due, bool stale_answer) {
    samples.push_back({due_us, Ms(Clock::now() - due)});
    if (stale_answer) ++stale;
  }
  void Failure(int64_t due_us, const Status& status) {
    ++failed;
    if (first_error.empty()) first_error = status.ToString();
    samples.push_back({due_us, static_cast<double>(kDeadlineUs) / 1e3});
  }
  void MergeInto(Window* w) const {
    w->samples.insert(w->samples.end(), samples.begin(), samples.end());
    w->lateness_ms.insert(w->lateness_ms.end(), lateness_ms.begin(),
                          lateness_ms.end());
    w->failed += failed;
    w->stale += stale;
    if (w->first_error.empty()) w->first_error = first_error;
  }
};

/// \brief Completes one shard's EmbedAsync futures in send order on its own
/// thread and stamps each answer when get() returns. A shard serves its
/// queue first in, first out, so that stamp is the answer's completion.
class Collector {
 public:
  struct Pending {
    int64_t due_us;
    Clock::time_point due;
    std::future<Result<serve::EmbedResponse>> future;
  };

  Collector() : thread_([this] { Loop(); }) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  /// Waits for every pushed answer; the result is then complete.
  const Observed& Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
    return observed_;
  }

 private:
  void Loop() {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Result<serve::EmbedResponse> r = p.future.get();
      if (r.ok()) {
        observed_.Answer(p.due_us, p.due, r.value().stale);
      } else {
        observed_.Failure(p.due_us, r.status());
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool done_ = false;
  Observed observed_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Drives `seconds` of Poisson traffic at `rate` requests/s: single-node
/// EmbedAsync calls sent from this thread, and single-pair ScoreLinksFull
/// calls made by kScoreClients client threads that take the next due pair
/// of one shared schedule. Every request is timed from its scheduled send
/// to the moment its answer reaches the client.
Window DriveWindow(serve::ServingEngine* engine, const Traffic& traffic,
                   double rate, double seconds, uint64_t seed) {
  const StealMeter steal;
  Window w;
  w.rate = rate;
  w.seconds = seconds;
  Rng rng(seed);
  const std::vector<int64_t> embed_at =
      PoissonArrivalsUs(rate * kEmbedShare, seconds, &rng);
  const std::vector<int64_t> score_at =
      PoissonArrivalsUs(rate * (1.0 - kEmbedShare), seconds, &rng);
  for (size_t i = 0; i < embed_at.size() + 2 * score_at.size(); ++i) {
    w.nodes.push_back(traffic.nodes.Sample(&rng));
  }
  w.attempted = static_cast<int64_t>(embed_at.size() + score_at.size());

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  std::thread steal_sampler([&w, start] {
    const int parts = w.Slices();
    StealMeter slice;
    for (int k = 1; k <= parts; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(
                      static_cast<int64_t>(w.seconds * 1e6 * k / parts)));
      w.slice_steal.push_back(slice.Share());
      slice = StealMeter();
    }
  });
  std::vector<Observed> clients(kScoreClients);
  std::atomic<size_t> next_score{0};
  std::vector<std::thread> threads;
  for (Observed& c : clients) {
    threads.emplace_back([&, start] {
      for (size_t i = next_score++; i < score_at.size(); i = next_score++) {
        const Clock::time_point due =
            start + std::chrono::microseconds(score_at[i]);
        std::this_thread::sleep_until(due);
        c.lateness_ms.push_back(Ms(Clock::now() - due));
        const size_t pair = embed_at.size() + 2 * i;
        Result<serve::ScoreResponse> r = engine->ScoreLinksFull(
            {w.nodes[pair]}, {w.nodes[pair + 1]}, traffic.time);
        if (r.ok()) {
          c.Answer(score_at[i], due, r.value().stale);
        } else {
          c.Failure(score_at[i], r.status());
        }
      }
    });
  }

  std::array<Collector, kShards> collectors;
  Observed sender;
  for (size_t i = 0; i < embed_at.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::microseconds(embed_at[i]);
    std::this_thread::sleep_until(due);
    sender.lateness_ms.push_back(Ms(Clock::now() - due));
    Result<std::future<Result<serve::EmbedResponse>>> submitted =
        Status::Internal("not submitted");
    {
      // Submission runs on this thread: the part of a read the traced run
      // can see outside the engine's executor spans.
      CPDG_TRACE_SPAN("perfbench/embed_async");
      submitted = engine->EmbedAsync({w.nodes[i]}, traffic.time);
    }
    if (submitted.ok()) {
      collectors[static_cast<size_t>(w.nodes[i] % kShards)].Push(
          {embed_at[i], due, submitted.TakeValue()});
    } else {
      sender.Failure(embed_at[i], submitted.status());
    }
  }
  sender.MergeInto(&w);
  for (Collector& c : collectors) c.Finish().MergeInto(&w);
  for (std::thread& t : threads) t.join();
  for (const Observed& c : clients) c.MergeInto(&w);
  steal_sampler.join();
  std::sort(w.samples.begin(), w.samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.due_us < b.due_us;
            });
  w.steal_share = steal.Share();
  return w;
}

/// A reported latency quantile of `windows`: quantile q of each slice, and
/// the median over the least-stolen kKeep share of all their slices, so
/// that a burst of stolen CPU time moves the slices it hits out of the
/// estimate.
double SliceMedian(const std::vector<Window>& windows, double q) {
  std::vector<double> values, steal;
  for (const Window& w : windows) w.AddSlices(q, &values, &steal);
  return LessStolenMedian(values, steal, kKeep);
}

void PrintWindow(const char* label, const Window& w) {
  std::printf("  %-10s offered %7.0f/s  attempted %6lld  failed %5lld  "
              "stale %5lld  p50 %7.3f ms  p99 %8.3f ms (sliced %8.3f)  "
              "late-p99 %6.3f ms  steal %4.1f%%\n",
              label, w.rate, static_cast<long long>(w.attempted),
              static_cast<long long>(w.failed),
              static_cast<long long>(w.stale), w.P(0.5), w.P(0.99),
              SliceMedian({w}, 0.99),
              Quantile(w.lateness_ms, 0.99), 100.0 * w.steal_share);
  if (!w.first_error.empty()) {
    std::printf("             first failure: %s\n", w.first_error.c_str());
  }
}

/// Throughput of bursts: requests answered per second, and the steal share
/// of the machine's CPU time, per burst.
struct Bursts {
  std::vector<double> rps;
  std::vector<double> steal;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
};

/// Submits bursts of kBurst single-node EmbedAsync requests at once, nodes
/// drawn as for the reference traffic, and times each from its first
/// submission until its last answer, for `seconds` (at least one burst).
/// The shards then coalesce full batches back to back: this is the rate
/// the engine answers at when requests wait for it, not the generator.
void DrainBursts(serve::ServingEngine* engine, const Traffic& traffic,
                 double seconds, uint64_t seed, Bursts* out) {
  Rng rng(seed);
  std::vector<NodeId> nodes(kBurst);
  std::vector<std::future<Result<serve::EmbedResponse>>> answers;
  util::Timer window;
  do {
    for (NodeId& n : nodes) n = traffic.nodes.Sample(&rng);
    answers.clear();
    int64_t failed = 0;
    const StealMeter steal;
    util::Timer timer;
    for (NodeId n : nodes) {
      Result<std::future<Result<serve::EmbedResponse>>> submitted =
          engine->EmbedAsync({n}, traffic.time, 10 * kDeadlineUs);
      if (submitted.ok()) {
        answers.push_back(submitted.TakeValue());
      } else {
        ++failed;
        if (out->first_error.empty()) {
          out->first_error = submitted.status().ToString();
        }
      }
    }
    for (auto& answer : answers) {
      Result<serve::EmbedResponse> r = answer.get();
      if (!r.ok()) {
        ++failed;
        if (out->first_error.empty()) out->first_error = r.status().ToString();
      }
    }
    out->rps.push_back(static_cast<double>(kBurst) / timer.ElapsedSeconds());
    out->steal.push_back(steal.Share());
    out->attempted += kBurst;
    out->failed += failed;
  } while (window.ElapsedSeconds() < seconds);
}

/// Mean microseconds of one NeighborsBefore over the queried nodes.
double NeighborQueryUs(const storage::ShardedGraphStore& store,
                       const std::vector<NodeId>& nodes, double t) {
  graph::NeighborScratch scratch;
  int64_t sink = 0;
  const size_t n = std::min<size_t>(nodes.size(), kNeighborProbes);
  util::Timer timer;
  for (size_t i = 0; i < n; ++i) {
    sink += store.NeighborsBefore(nodes[i], t, &scratch).count;
  }
  const double us = timer.ElapsedSeconds() * 1e6 / std::max<size_t>(1, n);
  std::printf("  storage: %zu NeighborsBefore queries returned %lld "
              "neighbors, %.3f us each\n",
              n, static_cast<long long>(sink), us);
  return us;
}

void SetServeLayerMetrics(const TraceWindow& trace, const Window& w,
                          serve::ServingEngine* engine, Report* report) {
  SetProgramLayerMetrics(trace, 1.0, report);
  const double hits = static_cast<double>(CounterValue("serve.cache.hits"));
  const double misses =
      static_cast<double>(CounterValue("serve.cache.misses"));
  report->Set("serve.batch_size_mean",
              HistogramMean("serve.batch.coalesced_requests"), "count");
  report->Set("serve.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Set("serve.queue_peak_depth",
              static_cast<double>(engine->queue_peak_depth()), "count");
  const double computed = HistogramSum("serve.batch.nodes_computed");
  report->Set("serve.forward_ms_per_node",
              computed > 0 ? trace.DurUs("serve/forward") / 1e3 / computed
                           : 0.0,
              "ms");
  report->Set("gen.lateness_p99_ms", Quantile(w.lateness_ms, 0.99), "ms");
}

/// Set-up, served-answer checks and clean-up of a serving run.
class ServeRun {
 public:
  explicit ServeRun(const Args& args)
      : args_(args),
        fx_(SetUpRepeated(args, &setup_s_, &build_s_, &load_s_,
                          &setup_steal_)) {
    std::printf("set-up: %.3f s (less-stolen median of %d repeats), peak "
                "RSS %.1f MB\n",
                Setup(setup_s_), kSetupRepeats, PeakRssMb());
  }
  ~ServeRun() {
    fx_.engine.reset();  // stops before the store it reads goes
    fx_.store.reset();
    fs::remove_all(fs::path(fx_.dir).parent_path());
  }
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  Fixture& fx() { return fx_; }
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Count(const Window& w) { Count(w.attempted, w.failed); }

  /// Set-up timings of the traced run.
  void SetSetupLayerMetrics(Report* report) const {
    report->Set("storage.build_s", Setup(build_s_), "s");
    report->Set("serve.load_checkpoint_ms", Setup(load_s_) * 1e3, "ms");
  }

  /// Checks served answers against `ref` on the `kCheckPairs` future links,
  /// asked at the time of the first of them so the model predicts the next
  /// links from the memory it has. Returns the served AUC.
  double Check(Reference* ref, Report* report) {
    const std::vector<Event>& positives = fx_.future;
    const double auc = CheckServedAnswers(
        fx_, fx_.engine.get(), ref, positives, positives.front().time,
        args_.seed, report, &attempted_, &failed_);
    std::printf("  served AUC on %lld future links: %.4f\n",
                static_cast<long long>(kCheckPairs), auc);
    return auc;
  }

  /// Fails the run when the served AUC of the loaded model is below the
  /// floor, then reports the shared metrics.
  void Finish(double auc, Report* report) {
    if (auc < kServedAucFloor) {
      report->Fail("served link AUC " + std::to_string(auc) +
                   " is below the floor " + std::to_string(kServedAucFloor));
    }
    report->Count(attempted_, failed_);
    if (args_.trace) return;
    report->Set("link_auc", auc, "ratio");
    report->Set("success_share",
                1.0 - static_cast<double>(failed_) /
                          static_cast<double>(std::max<int64_t>(1, attempted_)),
                "ratio");
    report->Set("setup_s", Setup(setup_s_), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
  }

 private:
  const Args& args_;
  /// A set-up time over the repeats: their LessStolenMedian.
  double Setup(const std::vector<double>& seconds) const {
    return LessStolenMedian(seconds, setup_steal_, kSetupKeep);
  }

  std::vector<double> setup_s_, build_s_, load_s_, setup_steal_;
  Fixture fx_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace

void RunServeRead(const Args& args, Report* report) {
  const int nt = Nproc();
  // Set-up, reference traffic and the traced run use 1 kernel thread; only
  // the nproc bursts use the pool.
  util::ThreadPool::SetGlobalNumThreads(1);
  ServeRun run(args);
  Fixture& fx = run.fx();
  const Traffic traffic(fx.served, fx.horizon);
  std::printf("serve_read: %lld queried nodes, %d shards, %lld cache rows "
              "per shard, reference %.0f/s, bursts of %lld\n",
              static_cast<long long>(traffic.nodes.distinct()), kShards,
              static_cast<long long>(kCacheRowsPerShard), kReferenceRps,
              static_cast<long long>(kBurst));
  const double S = args.seconds;
  // Warm-up: fills the caches and finishes lazy set-up; not measured.
  DriveWindow(fx.engine.get(), traffic, kReferenceRps, 0.5, args.seed + 1);

  if (!args.trace) {
    std::vector<Window> chunks;
    Bursts bursts[2];  // nproc, 1 thread
    const int threads[2] = {nt, 1};
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t seed =
          args.seed + 2 + 0x100 * static_cast<uint64_t>(round);
      chunks.push_back(DriveWindow(fx.engine.get(), traffic, kReferenceRps,
                                   kReferenceShareOfRun * S / kRounds, seed));
      PrintWindow("reference", chunks.back());
      run.Count(chunks.back());
      for (int k = 0; k < 2; ++k) {
        const int which = round % 2 == 0 ? k : 1 - k;
        util::ThreadPool::SetGlobalNumThreads(threads[which]);
        DrainBursts(fx.engine.get(), traffic,
                    kBurstShareOfRun * S / (2 * kRounds), seed + 1 + which,
                    &bursts[which]);
      }
      util::ThreadPool::SetGlobalNumThreads(1);
    }
    for (int which = 0; which < 2; ++which) {
      const Bursts& b = bursts[which];
      std::printf("  bursts at %d threads: %zu, median %.0f/s, less-stolen "
                  "median %.0f/s\n",
                  threads[which], b.rps.size(), Median(b.rps),
                  LessStolenMedian(b.rps, b.steal, kKeep));
      if (!b.first_error.empty()) {
        std::printf("  first burst failure: %s\n", b.first_error.c_str());
      }
      run.Count(b.attempted, b.failed);
    }
    std::printf("  reference slices: p50 %.3f  p90 %.3f  p99 %.3f ms\n",
                SliceMedian(chunks, 0.5), SliceMedian(chunks, 0.9),
                SliceMedian(chunks, 0.99));

    report->Set("rate_nt",
                LessStolenMedian(bursts[0].rps, bursts[0].steal, kKeep),
                "1/s");
    report->Set("rate_1t",
                LessStolenMedian(bursts[1].rps, bursts[1].steal, kKeep),
                "1/s");
    report->Set("p50_ms", SliceMedian(chunks, 0.5), "ms");
    // The tail is p90: a slice's p99 rests on its 16 slowest requests, and
    // between calm runs of different seeds it moved by a factor of 1.5,
    // against 1.2 for p90.
    report->Set("tail_ms", SliceMedian(chunks, 0.9), "ms");
  } else {
    const double half = kTracedShareOfRun * S;
    const Window untraced = DriveWindow(fx.engine.get(), traffic,
                                        kReferenceRps, half, args.seed + 2);
    PrintWindow("untraced", untraced);
    run.Count(untraced);
    TraceWindow trace;
    const Window traced = DriveWindow(fx.engine.get(), traffic, kReferenceRps,
                                      half, args.seed + 2);
    trace.Finish();
    PrintWindow("traced", traced);
    run.Count(traced);
    trace.PrintTable("serve_read at the reference rate");
    SetServeLayerMetrics(trace, traced, fx.engine.get(), report);
    run.SetSetupLayerMetrics(report);
    report->Set("storage.neighbor_query_us",
                NeighborQueryUs(*fx.store, traced.nodes, fx.horizon), "us");
    report->Set("serve.stale_share",
                static_cast<double>(traced.stale) /
                    std::max<double>(1, traced.attempted - traced.failed),
                "ratio");
    SetTraceShares(trace,
                   SliceMedian({traced}, 0.5) / SliceMedian({untraced}, 0.5) -
                       1.0,
                   report);
  }
  util::ThreadPool::SetGlobalNumThreads(nt);
  Reference ref(fx);
  run.Finish(run.Check(&ref, report), report);
}

std::string ConfigJson() {
  // Each string must appear verbatim in the workload's BENCHMARK.json
  // description (checked by run.py --selftest).
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"serve_read\": [\"ref %g/s\", \"bursts of %lld\"]}",
      kReferenceRps, static_cast<long long>(kBurst));
  return buf;
}

}  // namespace cpdg::perfbench
