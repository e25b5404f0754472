// Open-loop serving load generator: drives the multi-worker engine with
// Poisson arrivals at fixed offered rates (fractions and multiples of the
// measured saturation throughput) and reports, per rate, the achieved
// throughput, p50/p95/p99 latency of admitted requests, and the overload
// verdict counts (rejected / shed / stale / deadline-exceeded), into
// BENCH_serving_load.json.
//
// Open loop means arrivals do not wait for completions — exactly the
// regime where an unbounded queue melts down. The run doubles as an
// overload acceptance check and exits nonzero when robustness invariants
// break at any offered rate, including 2x saturation:
//   - the queue stays bounded (peak depth <= the configured limit),
//   - p99 latency of admitted (successful) requests stays within the
//     configured deadline — late requests must be expired, not served late,
//   - every submitted request is accounted for: answered, rejected, shed,
//     or expired; nothing lost, no aborts.
//
// A final live-feed scenario exercises serving under churn: a feeder
// thread streams freshly generated events through Advance (one replay,
// then a snapshot swap) at a configurable rate (CPDG_BENCH_FEED_EPS
// events/sec) while Poisson query load runs, reporting how memory churn
// interacts with latency and staleness (stale-served counts, cache
// invalidations) on top of the same robustness gates.
//
// Usage:
//   bench_serving_load          full size:  600 nodes, 3 s per rate
//   bench_serving_load --smoke  CI-sized:   200 nodes, 1.2 s per rate

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dgnn/encoder.h"
#include "graph/temporal_graph.h"
#include "obs/metrics.h"
#include "serve/request_queue.h"
#include "serve/serving_engine.h"
#include "tensor/checkpoint_container.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cpdg;
namespace ts = cpdg::tensor;

constexpr int64_t kPredictorHidden = 32;
constexpr int64_t kQueueLimit = 64;
constexpr int64_t kDeadlineUs = 200000;  // 200 ms per-request budget

struct Record {
  std::string scenario;
  double offered_rps = 0.0;
  int64_t requests = 0;  // arrivals submitted
  double seconds = 0.0;  // arrival window + drain
  double rps = 0.0;      // successfully answered per second
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int64_t answered = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t stale = 0;
  int64_t deadline_exceeded = 0;
  int64_t peak_queue_depth = 0;
  // Live-feed extras (zero for query-only scenarios).
  int64_t events_fed = 0;
  int64_t advances = 0;
  int64_t cache_invalidations = 0;
};

struct Workload {
  int64_t num_nodes = 0;
  double seconds_per_rate = 0.0;
  graph::TemporalGraph graph;
  std::string checkpoint_path;
  std::unique_ptr<Rng> rng;
};

dgnn::EncoderConfig BenchConfig(int64_t num_nodes) {
  dgnn::EncoderConfig config;
  config.num_nodes = num_nodes;
  config.memory_dim = 32;
  config.embed_dim = 32;
  config.time_dim = 8;
  config.num_neighbors = 10;
  return config;
}

Workload BuildWorkload(bool smoke) {
  Workload w;
  w.num_nodes = smoke ? 200 : 600;
  w.seconds_per_rate = smoke ? 1.2 : 3.0;

  Rng event_rng(7);
  std::vector<graph::Event> events;
  const size_t num_events = smoke ? 800 : 3000;
  double t = 0.0;
  for (size_t i = 0; i < num_events; ++i) {
    graph::Event e;
    e.src = static_cast<graph::NodeId>(
        event_rng.NextBounded(static_cast<uint64_t>(w.num_nodes)));
    e.dst = static_cast<graph::NodeId>(
        event_rng.NextBounded(static_cast<uint64_t>(w.num_nodes)));
    if (e.dst == e.src) e.dst = (e.src + 1) % w.num_nodes;
    t += event_rng.NextUniform(0.05, 1.0);
    e.time = t;
    events.push_back(e);
  }
  w.graph = graph::TemporalGraph::Create(w.num_nodes, std::move(events))
                .ValueOrDie();

  w.rng = std::make_unique<Rng>(42);
  dgnn::DgnnEncoder reference(BenchConfig(w.num_nodes), &w.graph,
                              w.rng.get());
  dgnn::LinkPredictor predictor(BenchConfig(w.num_nodes).embed_dim,
                                kPredictorHidden, w.rng.get());
  {
    ts::InferenceModeGuard guard;
    reference.ReplayEvents(w.graph.events(), /*batch_size=*/200);
  }
  std::vector<ts::Tensor> params = reference.Parameters();
  std::vector<ts::Tensor> dec = predictor.Parameters();
  params.insert(params.end(), dec.begin(), dec.end());
  ts::SectionWriter writer;
  writer.Add(ts::kParamsSection, ts::EncodeTensorList(params).ValueOrDie());
  std::string memory_bytes;
  reference.memory().SerializeTo(&memory_bytes);
  writer.Add(train::kMemorySection, memory_bytes);
  w.checkpoint_path = "BENCH_serving_load_ckpt.bin";
  cpdg::Status status = writer.WriteAtomic(w.checkpoint_path);
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint write failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return w;
}

graph::NodeId PickNode(int64_t i, int64_t num_nodes) {
  return static_cast<graph::NodeId>((i * 7 + 13) % num_nodes);
}

/// Closed-loop blast from a few client threads: the engine's saturation
/// throughput, anchoring the open-loop offered rates.
double MeasureSaturation(serve::ServingEngine* engine, const Workload& w,
                         double t_query, std::vector<Record>* records) {
  const int clients = 8;
  const int64_t per_client = 200;
  util::Timer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int64_t i = 0; i < per_client; ++i) {
        auto result =
            engine->Embed({PickNode(c * per_client + i, w.num_nodes)},
                          t_query);
        if (!result.ok()) {
          std::fprintf(stderr, "saturation probe failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Record rec;
  rec.scenario = "closed_loop_saturation";
  rec.requests = static_cast<int64_t>(clients) * per_client;
  rec.answered = rec.requests;
  rec.seconds = wall.ElapsedSeconds();
  rec.rps = static_cast<double>(rec.requests) / rec.seconds;
  rec.offered_rps = rec.rps;
  std::printf("%-24s %6lld requests in %6.3f s -> %8.1f req/s\n",
              rec.scenario.c_str(), static_cast<long long>(rec.requests),
              rec.seconds, rec.rps);
  records->push_back(rec);
  return rec.rps;
}

/// One open-loop run: Poisson arrivals at `offered_rps` for the workload's
/// window, harvested after the arrival window closes.
Record DriveOpenLoop(serve::ServingEngine* engine, const Workload& w,
                     double t_query, double offered_rps,
                     const std::string& scenario, Rng* rng) {
  Record rec;
  rec.scenario = scenario;
  rec.offered_rps = offered_rps;

  const int64_t arrivals = std::max<int64_t>(
      50, static_cast<int64_t>(offered_rps * w.seconds_per_rate));
  std::vector<std::future<Result<serve::EmbedResponse>>> futures;
  futures.reserve(static_cast<size_t>(arrivals));

  const int64_t base_rejected = engine->rejected_count();
  const int64_t base_shed = engine->shed_count();
  const int64_t base_stale = engine->stale_served_count();
  const int64_t base_deadline = engine->deadline_exceeded_count();

  util::Timer wall;
  const auto start = std::chrono::steady_clock::now();
  auto next = start;
  int64_t submit_errors = 0;
  for (int64_t i = 0; i < arrivals; ++i) {
    // Exponential inter-arrival times make the offered stream Poisson —
    // bursty, the way open-loop clients actually arrive.
    double u = rng->NextUniform(1e-12, 1.0);
    next += std::chrono::microseconds(static_cast<int64_t>(
        -std::log(u) / offered_rps * 1e6));
    std::this_thread::sleep_until(next);
    auto submitted = engine->EmbedAsync({PickNode(i, w.num_nodes)}, t_query,
                                        kDeadlineUs);
    if (submitted.ok()) {
      futures.push_back(submitted.TakeValue());
    } else {
      ++submit_errors;  // admission rejection; counted via engine totals
    }
  }

  // Harvest: every admitted request resolves — answered, shed after
  // admission, expired, or failed — or the accounting gate below trips.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  int64_t failed_other = 0;
  for (auto& future : futures) {
    auto result = future.get();
    if (result.ok()) {
      ++rec.answered;
      if (result.value().stale) ++rec.stale;
      latencies_ms.push_back(
          static_cast<double>(result.value().latency_us) / 1000.0);
    } else if (result.status().code() == StatusCode::kDeadlineExceeded ||
               result.status().code() == StatusCode::kResourceExhausted) {
      // expired in queue / shed after admission: counted via engine totals
    } else {
      std::fprintf(stderr, "unexpected failure: %s\n",
                   result.status().ToString().c_str());
      ++failed_other;
    }
  }
  rec.seconds = wall.ElapsedSeconds();
  rec.requests = arrivals;
  rec.rps = static_cast<double>(rec.answered) / rec.seconds;
  rec.rejected = engine->rejected_count() - base_rejected;
  rec.shed = engine->shed_count() - base_shed;
  rec.stale = engine->stale_served_count() - base_stale;
  rec.deadline_exceeded = engine->deadline_exceeded_count() - base_deadline;
  rec.peak_queue_depth = engine->queue_peak_depth();

  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    rec.p50_ms = latencies_ms[latencies_ms.size() / 2];
    rec.p95_ms = latencies_ms[latencies_ms.size() * 95 / 100];
    rec.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  }
  if (failed_other > 0) {
    std::fprintf(stderr, "FAIL: %lld requests failed outside the overload "
                 "protocol at %.1f req/s offered\n",
                 static_cast<long long>(failed_other), offered_rps);
    std::exit(1);
  }
  // Conservation: every arrival either produced a future (which resolved
  // above — answered, expired, or shed) or was turned away at admission.
  const int64_t accounted =
      static_cast<int64_t>(futures.size()) + submit_errors;
  if (accounted != arrivals) {
    std::fprintf(stderr, "FAIL: %lld arrivals but %lld accounted\n",
                 static_cast<long long>(arrivals),
                 static_cast<long long>(accounted));
    std::exit(1);
  }

  std::printf("%-24s offered %8.1f req/s  answered %8.1f req/s  "
              "p50 %7.2f ms  p95 %7.2f ms  p99 %7.2f ms  "
              "rej %lld shed %lld stale %lld expired %lld  peak-q %lld\n",
              rec.scenario.c_str(), rec.offered_rps, rec.rps, rec.p50_ms,
              rec.p95_ms, rec.p99_ms, static_cast<long long>(rec.rejected),
              static_cast<long long>(rec.shed),
              static_cast<long long>(rec.stale),
              static_cast<long long>(rec.deadline_exceeded),
              static_cast<long long>(rec.peak_queue_depth));
  return rec;
}

void WriteJson(const std::vector<Record>& records, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fputs("[\n", f);
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "  {\"scenario\": \"%s\", \"offered_rps\": %.6g, "
        "\"requests\": %lld, \"seconds\": %.6g, \"rps\": %.6g, "
        "\"p50_ms\": %.6g, \"p95_ms\": %.6g, \"p99_ms\": %.6g, "
        "\"answered\": %lld, \"rejected\": %lld, \"shed\": %lld, "
        "\"stale\": %lld, \"deadline_exceeded\": %lld, "
        "\"peak_queue_depth\": %lld, \"events_fed\": %lld, "
        "\"advances\": %lld, \"cache_invalidations\": %lld}%s\n",
        r.scenario.c_str(), r.offered_rps,
        static_cast<long long>(r.requests), r.seconds, r.rps, r.p50_ms,
        r.p95_ms, r.p99_ms, static_cast<long long>(r.answered),
        static_cast<long long>(r.rejected), static_cast<long long>(r.shed),
        static_cast<long long>(r.stale),
        static_cast<long long>(r.deadline_exceeded),
        static_cast<long long>(r.peak_queue_depth),
        static_cast<long long>(r.events_fed),
        static_cast<long long>(r.advances),
        static_cast<long long>(r.cache_invalidations),
        i + 1 < records.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  std::printf("open-loop serving load benchmark (%s); "
              "hardware_concurrency=%d, kernel threads=%d\n\n",
              smoke ? "smoke" : "full",
              std::thread::hardware_concurrency(),
              util::ThreadPool::DefaultNumThreads());

  Workload w = BuildWorkload(smoke);
  const double t_query = w.graph.max_time() + 1.0;

  serve::ServingOptions options;
  options.max_batch = 64;
  options.cache_capacity = 0;  // every request computes: honest service time
  options.num_shards = 2;
  options.queue_limit = kQueueLimit;
  options.overload = serve::OverloadPolicy::kReject;
  options.default_deadline_us = kDeadlineUs;
  auto engine = serve::ServingEngine::FromCheckpoint(
                    BenchConfig(w.num_nodes), kPredictorHidden, &w.graph,
                    w.checkpoint_path, options)
                    .TakeValue();
  std::printf("engine: %d workers, queue limit %lld (%s), deadline %lld us\n",
              engine->num_shards(), static_cast<long long>(kQueueLimit),
              serve::OverloadPolicyName(options.overload),
              static_cast<long long>(kDeadlineUs));

  std::vector<Record> records;
  const double saturation =
      MeasureSaturation(engine.get(), w, t_query, &records);

  Rng arrival_rng(0xa11ce);
  bool ok = true;
  for (double multiple : {0.5, 1.0, 2.0}) {
    char label[32];
    std::snprintf(label, sizeof(label), "load_%.2gx", multiple);
    Record rec = DriveOpenLoop(engine.get(), w, t_query,
                               multiple * saturation, label, &arrival_rng);
    // Robustness gates, enforced at every offered rate including 2x
    // saturation:
    if (rec.peak_queue_depth > kQueueLimit) {
      std::fprintf(stderr,
                   "FAIL: %s peak queue depth %lld exceeds limit %lld\n",
                   rec.scenario.c_str(),
                   static_cast<long long>(rec.peak_queue_depth),
                   static_cast<long long>(kQueueLimit));
      ok = false;
    }
    if (rec.answered > 0 && rec.p99_ms > kDeadlineUs / 1000.0) {
      std::fprintf(stderr,
                   "FAIL: %s p99 %.2f ms of admitted requests exceeds the "
                   "%.0f ms deadline\n",
                   rec.scenario.c_str(), rec.p99_ms, kDeadlineUs / 1000.0);
      ok = false;
    }
    records.push_back(rec);
  }

  // --- live feed: event churn through Advance while query load runs ---
  //
  // A feeder thread streams generated events through Advance at a fixed
  // events/sec rate while Poisson queries run at half the
  // closed-loop saturation. Two cache configurations, because the engine
  // deliberately treats churn differently by deadline mode:
  //   live_feed       — deadline set, so keep_stale_entries is forced on:
  //                     advances keep old cache generations around for
  //                     deadline-pressed stale serving. Reports the
  //                     staleness/latency interaction.
  //   live_feed_inval — no default deadline: every advance eagerly
  //                     invalidates the cache; gates that churn actually
  //                     exercised invalidation.
  {
    double feed_eps = smoke ? 400.0 : 800.0;
    if (const char* v = std::getenv("CPDG_BENCH_FEED_EPS")) {
      char* end = nullptr;
      const double parsed = std::strtod(v, &end);
      if (end != v && *end == '\0' && parsed > 0.0) feed_eps = parsed;
    }
    constexpr int64_t kFeedBatch = 20;  // events per Advance

    // Query far enough ahead that fed event times (+1 ms per event) never
    // pass the query horizon inside any plausible run length.
    const double t_far = w.graph.max_time() + 1000.0;

    struct LiveFeedCase {
      const char* scenario;
      int64_t default_deadline_us;
    };
    for (const LiveFeedCase& lf_case :
         {LiveFeedCase{"live_feed", kDeadlineUs},
          LiveFeedCase{"live_feed_inval", 0}}) {
      serve::ServingOptions lf_options;
      lf_options.max_batch = 64;
      lf_options.cache_capacity = 4 * w.num_nodes;
      lf_options.num_shards = 2;
      lf_options.queue_limit = kQueueLimit;
      lf_options.overload = serve::OverloadPolicy::kReject;
      lf_options.default_deadline_us = lf_case.default_deadline_us;
      auto lf_engine = serve::ServingEngine::FromCheckpoint(
                           BenchConfig(w.num_nodes), kPredictorHidden,
                           &w.graph, w.checkpoint_path, lf_options)
                           .TakeValue();
      const uint64_t version_before = lf_engine->memory_version();

      std::atomic<bool> stop{false};
      std::atomic<bool> feeder_ok{true};
      std::atomic<int64_t> events_fed{0};
      std::atomic<int64_t> advances{0};
      std::thread feeder([&] {
        Rng feed_rng(0xfeedd);
        double t_event = w.graph.max_time() + 1.0;
        auto next = std::chrono::steady_clock::now();
        while (!stop.load(std::memory_order_relaxed)) {
          std::vector<graph::Event> batch;
          batch.reserve(kFeedBatch);
          for (int64_t i = 0; i < kFeedBatch; ++i) {
            graph::Event e;
            e.src = static_cast<graph::NodeId>(
                feed_rng.NextBounded(static_cast<uint64_t>(w.num_nodes)));
            e.dst = static_cast<graph::NodeId>(
                feed_rng.NextBounded(static_cast<uint64_t>(w.num_nodes)));
            if (e.dst == e.src) e.dst = (e.src + 1) % w.num_nodes;
            t_event += 0.001;
            e.time = t_event;
            batch.push_back(e);
          }
          cpdg::Status status = lf_engine->Advance(std::move(batch));
          if (!status.ok()) {
            std::fprintf(stderr, "live-feed advance failed: %s\n",
                         status.ToString().c_str());
            feeder_ok.store(false);
            return;
          }
          events_fed.fetch_add(kFeedBatch, std::memory_order_relaxed);
          advances.fetch_add(1, std::memory_order_relaxed);
          next += std::chrono::microseconds(
              static_cast<int64_t>(kFeedBatch / feed_eps * 1e6));
          std::this_thread::sleep_until(next);
        }
      });

      Record rec = DriveOpenLoop(lf_engine.get(), w, t_far,
                                 0.5 * saturation, lf_case.scenario,
                                 &arrival_rng);
      stop.store(true);
      feeder.join();
      rec.events_fed = events_fed.load();
      rec.advances = advances.load();
      rec.cache_invalidations = lf_engine->cache_invalidations();
      std::printf("%s: %lld events in %lld advances (%.0f ev/s offered), "
                  "%lld cache invalidations, %lld stale-served\n",
                  lf_case.scenario, static_cast<long long>(rec.events_fed),
                  static_cast<long long>(rec.advances), feed_eps,
                  static_cast<long long>(rec.cache_invalidations),
                  static_cast<long long>(rec.stale));

      if (!feeder_ok.load()) ok = false;
      if (rec.advances == 0 ||
          lf_engine->memory_version() <= version_before) {
        std::fprintf(stderr,
                     "FAIL: %s produced no memory churn (advances %lld, "
                     "version %llu -> %llu)\n",
                     lf_case.scenario, static_cast<long long>(rec.advances),
                     static_cast<unsigned long long>(version_before),
                     static_cast<unsigned long long>(
                         lf_engine->memory_version()));
        ok = false;
      }
      if (lf_case.default_deadline_us == 0 &&
          rec.cache_invalidations == 0) {
        std::fprintf(stderr,
                     "FAIL: %s advanced %lld times but never invalidated "
                     "the cache\n",
                     lf_case.scenario,
                     static_cast<long long>(rec.advances));
        ok = false;
      }
      if (rec.peak_queue_depth > kQueueLimit) {
        std::fprintf(stderr,
                     "FAIL: %s peak queue depth %lld exceeds limit %lld\n",
                     lf_case.scenario,
                     static_cast<long long>(rec.peak_queue_depth),
                     static_cast<long long>(kQueueLimit));
        ok = false;
      }
      if (rec.answered > 0 && rec.p99_ms > kDeadlineUs / 1000.0) {
        std::fprintf(stderr,
                     "FAIL: %s p99 %.2f ms of admitted requests exceeds "
                     "the %.0f ms deadline\n",
                     lf_case.scenario, rec.p99_ms, kDeadlineUs / 1000.0);
        ok = false;
      }
      records.push_back(rec);
      lf_engine->Shutdown();
    }
  }

  WriteJson(records, "BENCH_serving_load.json");
  {
    cpdg::Status status = obs::MetricsRegistry::Global().WriteJson(
        "BENCH_serving_load_metrics.json");
    if (status.ok()) std::printf("wrote BENCH_serving_load_metrics.json\n");
  }
  engine->Shutdown();
  std::remove(w.checkpoint_path.c_str());

  if (!ok) return 1;
  std::printf("\nall overload invariants held at up to 2x saturation\n");
  return 0;
}
