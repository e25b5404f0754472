// Overload-robustness and fault-recovery tests for the multi-worker serving
// engine: bounded-queue admission (reject / shed-oldest / block), deadline
// expiry and stale degradation, reads racing snapshot-publishing advances,
// and watchdog-driven worker restart under injected executor stalls.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dgnn/encoder.h"
#include "graph/temporal_graph.h"
#include "gtest/gtest.h"
#include "serve/embedding_cache.h"
#include "serve/journal.h"
#include "serve/request_queue.h"
#include "serve/serving_engine.h"
#include "tensor/checkpoint_container.h"
#include "tensor/ops.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cpdg {
namespace {

namespace ts = tensor;

constexpr int64_t kNumNodes = 30;
constexpr int64_t kPredictorHidden = 16;
/// Below serve::kAdvanceReplayBatch so a reference ReplayEvents over the
/// same events is trivially batched identically.
constexpr size_t kAdvanceEvents = 40;

dgnn::EncoderConfig SmallConfig() {
  dgnn::EncoderConfig config;
  config.num_nodes = kNumNodes;
  config.memory_dim = 8;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.num_neighbors = 3;
  return config;
}

std::vector<graph::Event> MakeEvents(uint64_t seed, size_t count, double t0) {
  Rng rng(seed);
  std::vector<graph::Event> events;
  events.reserve(count);
  double t = t0;
  for (size_t i = 0; i < count; ++i) {
    graph::Event e;
    e.src = static_cast<graph::NodeId>(rng.NextBounded(kNumNodes));
    e.dst = static_cast<graph::NodeId>(rng.NextBounded(kNumNodes));
    if (e.dst == e.src) e.dst = (e.src + 1) % kNumNodes;
    t += rng.NextUniform(0.1, 2.0);
    e.time = t;
    events.push_back(e);
  }
  return events;
}

/// Reference model pair with warm memory plus the checkpoint the serving
/// engine loads (same construction as serving_test.cc).
struct Fixture {
  graph::TemporalGraph graph;
  Rng rng{42};
  std::unique_ptr<dgnn::DgnnEncoder> encoder;
  std::unique_ptr<dgnn::LinkPredictor> predictor;
  std::string checkpoint_path;

  explicit Fixture(const std::string& name) {
    graph = graph::TemporalGraph::Create(kNumNodes, MakeEvents(7, 120, 0.0))
                .ValueOrDie();
    encoder =
        std::make_unique<dgnn::DgnnEncoder>(SmallConfig(), &graph, &rng);
    predictor = std::make_unique<dgnn::LinkPredictor>(
        SmallConfig().embed_dim, kPredictorHidden, &rng);
    {
      ts::InferenceModeGuard guard;
      encoder->ReplayEvents(graph.events(), /*batch_size=*/16);
    }
    checkpoint_path = ::testing::TempDir() + "serve_robust_" + name + ".ckpt";
    WriteCheckpoint(checkpoint_path);
  }

  void WriteCheckpoint(const std::string& path) const {
    std::vector<ts::Tensor> params = encoder->Parameters();
    std::vector<ts::Tensor> dec = predictor->Parameters();
    params.insert(params.end(), dec.begin(), dec.end());
    ts::SectionWriter writer;
    writer.Add(ts::kParamsSection,
               ts::EncodeTensorList(params).ValueOrDie());
    std::string memory_bytes;
    encoder->memory().SerializeTo(&memory_bytes);
    writer.Add(train::kMemorySection, memory_bytes);
    ASSERT_TRUE(writer.WriteAtomic(path).ok());
  }

  ts::Tensor DirectEmbed(const std::vector<graph::NodeId>& nodes,
                         double time) {
    ts::InferenceModeGuard guard;
    encoder->BeginBatch();
    return encoder->ComputeEmbeddings(
        nodes, std::vector<double>(nodes.size(), time));
  }
};

void ExpectBitIdentical(const ts::Tensor& a, const ts::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.size()) * sizeof(float)));
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Deletes any journal entries a previous test-binary run left behind —
/// TempDir persists across runs, and a stale journal would replay into
/// the fresh fixture.
void ClearJournalDir(const std::string& dir) {
  for (int64_t seq = 0;; ++seq) {
    if (std::remove(serve::JournalEntryPath(dir, seq).c_str()) != 0) break;
  }
}

std::unique_ptr<serve::Request> MakeEmbedRequest(graph::NodeId node) {
  auto request = std::make_unique<serve::Request>();
  request->kind = serve::Request::Kind::kEmbed;
  request->nodes = {node};
  return request;
}

// ---------------------------------------------------------------------------
// Admission-policy state machines on the bare queue.
// ---------------------------------------------------------------------------

TEST(RequestQueueTest, RejectPolicyFillRejectDrainAccept) {
  serve::RequestQueue::Options options;
  options.limit = 2;
  options.policy = serve::OverloadPolicy::kReject;
  serve::RequestQueue queue(options);

  auto r1 = MakeEmbedRequest(1);
  auto r2 = MakeEmbedRequest(2);
  auto r3 = MakeEmbedRequest(3);
  EXPECT_EQ(queue.Push(r1), serve::PushOutcome::kAccepted);
  EXPECT_EQ(queue.Push(r2), serve::PushOutcome::kAccepted);
  EXPECT_EQ(queue.Push(r3), serve::PushOutcome::kRejected);
  ASSERT_NE(r3, nullptr);  // rejected request stays with the caller
  EXPECT_EQ(queue.depth(), 2);
  EXPECT_EQ(queue.peak_depth(), 2);

  auto batch = queue.PopBatch(10, std::chrono::microseconds(0));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.Push(r3), serve::PushOutcome::kAccepted);
  EXPECT_EQ(queue.depth(), 1);
}

TEST(RequestQueueTest, ShedOldestReturnsVictims) {
  serve::RequestQueue::Options options;
  options.limit = 2;
  options.policy = serve::OverloadPolicy::kShedOldest;
  serve::RequestQueue queue(options);

  auto r1 = MakeEmbedRequest(1);
  auto r2 = MakeEmbedRequest(2);
  auto r3 = MakeEmbedRequest(3);
  EXPECT_EQ(queue.Push(r1), serve::PushOutcome::kAccepted);
  EXPECT_EQ(queue.Push(r2), serve::PushOutcome::kAccepted);
  std::vector<std::unique_ptr<serve::Request>> shed;
  EXPECT_EQ(queue.Push(r3, &shed), serve::PushOutcome::kAccepted);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0]->nodes[0], 1);  // oldest victim
  EXPECT_EQ(queue.depth(), 2);
}

TEST(RequestQueueTest, BlockPolicyWaitsForSpaceAndShutdownUnblocks) {
  serve::RequestQueue::Options options;
  options.limit = 1;
  options.policy = serve::OverloadPolicy::kBlock;
  serve::RequestQueue queue(options);

  auto r1 = MakeEmbedRequest(1);
  ASSERT_EQ(queue.Push(r1), serve::PushOutcome::kAccepted);

  std::atomic<int> state{0};  // 0 = blocked, 1 = accepted
  std::thread producer([&] {
    auto r2 = MakeEmbedRequest(2);
    if (queue.Push(r2) == serve::PushOutcome::kAccepted) state.store(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(state.load(), 0);  // still blocked at capacity
  auto batch = queue.PopBatch(1, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  producer.join();
  EXPECT_EQ(state.load(), 1);
  EXPECT_EQ(queue.depth(), 1);

  // A producer blocked at capacity is released by Shutdown with kShutdown.
  std::atomic<bool> got_shutdown{false};
  std::thread blocked([&] {
    auto r3 = MakeEmbedRequest(3);
    got_shutdown.store(queue.Push(r3) == serve::PushOutcome::kShutdown);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Shutdown();
  blocked.join();
  EXPECT_TRUE(got_shutdown.load());
}

TEST(RequestQueueTest, RacingPushersAgainstShutdownLoseNoRequest) {
  serve::RequestQueue::Options options;
  options.limit = 8;
  options.policy = serve::OverloadPolicy::kReject;
  serve::RequestQueue queue(options);

  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> consumed{0};
  std::vector<std::thread> pushers;
  for (int t = 0; t < 4; ++t) {
    pushers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        auto r = MakeEmbedRequest((t * 200 + i) % kNumNodes);
        if (queue.Push(r) == serve::PushOutcome::kAccepted) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  std::thread consumer([&] {
    while (true) {
      auto batch = queue.PopBatch(4, std::chrono::microseconds(100));
      if (batch.empty()) return;  // shutdown and drained
      consumed.fetch_add(static_cast<int64_t>(batch.size()));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Shutdown();
  for (auto& p : pushers) p.join();
  consumer.join();
  consumed.fetch_add(static_cast<int64_t>(queue.DrainAll().size()));
  // Every accepted request was either consumed or drained — none dropped.
  EXPECT_EQ(accepted.load(), consumed.load());
}

TEST(RequestQueueTest, DrainAllEmptiesTheQueue) {
  serve::RequestQueue queue;
  for (graph::NodeId v : {1, 2, 3}) {
    auto r = MakeEmbedRequest(v);
    ASSERT_EQ(queue.Push(r), serve::PushOutcome::kAccepted);
  }
  auto drained = queue.DrainAll();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.peak_depth(), 3);
}

// ---------------------------------------------------------------------------
// Pure policy units.
// ---------------------------------------------------------------------------

TEST(AdmissionTest, DecideAdmissionBudgetThresholds) {
  using serve::AdmissionDecision;
  // No deadline: always compute.
  EXPECT_EQ(serve::DecideAdmission(1000, 0, 0), AdmissionDecision::kCompute);
  // Already expired (at or past the deadline): never computed.
  EXPECT_EQ(serve::DecideAdmission(1000, 0, 1000),
            AdmissionDecision::kExpire);
  EXPECT_EQ(serve::DecideAdmission(1500, 0, 1000),
            AdmissionDecision::kExpire);
  // Under half the budget burned: compute fresh.
  EXPECT_EQ(serve::DecideAdmission(499, 0, 1000),
            AdmissionDecision::kCompute);
  // Half or more burned: prefer a stale cache hit.
  EXPECT_EQ(serve::DecideAdmission(500, 0, 1000),
            AdmissionDecision::kTryStale);
  EXPECT_EQ(serve::DecideAdmission(999, 0, 1000),
            AdmissionDecision::kTryStale);
  // Thresholds are relative to enqueue, not epoch.
  EXPECT_EQ(serve::DecideAdmission(1100, 1000, 2000),
            AdmissionDecision::kCompute);
  EXPECT_EQ(serve::DecideAdmission(1600, 1000, 2000),
            AdmissionDecision::kTryStale);
}

TEST(AdmissionTest, ParseOverloadPolicyVocabulary) {
  EXPECT_EQ(serve::ParseOverloadPolicy("reject").ValueOrDie(),
            serve::OverloadPolicy::kReject);
  EXPECT_EQ(serve::ParseOverloadPolicy("shed-oldest").ValueOrDie(),
            serve::OverloadPolicy::kShedOldest);
  EXPECT_EQ(serve::ParseOverloadPolicy("block").ValueOrDie(),
            serve::OverloadPolicy::kBlock);
  EXPECT_FALSE(serve::ParseOverloadPolicy("drop-newest").ok());
  EXPECT_FALSE(serve::ParseOverloadPolicy("").ok());
}

TEST(EmbeddingCacheTest, AnyVersionLookupServesStaleGenerations) {
  serve::EmbeddingCache cache(4);
  cache.Insert({5, 1.0, /*version=*/7}, {1.0f, 2.0f});
  std::vector<float> row;
  // Exact lookup at a newer version misses…
  EXPECT_FALSE(cache.Lookup({5, 1.0, 8}, &row));
  // …but the degraded lookup returns the stale generation and its version.
  uint64_t version = 0;
  ASSERT_TRUE(cache.LookupAnyVersion(5, 1.0, &row, &version));
  EXPECT_EQ(version, 7u);
  EXPECT_EQ(row[0], 1.0f);
  // A fresh insert for the same (node, time) supersedes in place.
  cache.Insert({5, 1.0, 8}, {3.0f, 4.0f});
  EXPECT_EQ(cache.size(), 1);
  ASSERT_TRUE(cache.LookupAnyVersion(5, 1.0, &row, &version));
  EXPECT_EQ(version, 8u);
  EXPECT_EQ(row[0], 3.0f);
}

// ---------------------------------------------------------------------------
// Engine-level overload behavior.
// ---------------------------------------------------------------------------

TEST(ServeRobustnessTest, OverloadRejectsWithResourceExhausted) {
  Fixture fx("overload_reject");
  serve::ServingOptions options;
  options.max_batch = 1;
  options.queue_limit = 4;
  options.overload = serve::OverloadPolicy::kReject;
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path, options)
                    .TakeValue();
  const double t = fx.graph.max_time() + 1.0;

  util::FaultInjector::Scope stall([] {
    util::FaultInjector::Config c;
    c.serve_stall_millis = 800;
    return c;
  }());
  std::vector<std::future<Result<serve::EmbedResponse>>> accepted;
  int64_t rejected = 0;
  for (int i = 0; i < 11; ++i) {
    // Same node: everything lands on one worker queue.
    auto r = engine->EmbedAsync({0}, t);
    if (r.ok()) {
      accepted.push_back(r.TakeValue());
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << r.status().ToString();
      ++rejected;
    }
  }
  // One request in flight (stalled) + 4 queued at the limit; the rest of
  // the 11 must have been turned away at admission.
  EXPECT_GE(rejected, 6);
  EXPECT_EQ(engine->rejected_count(), rejected);
  EXPECT_LE(engine->queue_peak_depth(), options.queue_limit);
  for (auto& future : accepted) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response.value().stale);
    EXPECT_GE(response.value().latency_us, 0);
  }
}

TEST(ServeRobustnessTest, ExpiredDeadlineFailsInsteadOfComputing) {
  Fixture fx("deadline");
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path)
                    .TakeValue();
  const double t = fx.graph.max_time() + 1.0;

  util::FaultInjector::Scope stall([] {
    util::FaultInjector::Config c;
    c.serve_stall_millis = 800;
    return c;
  }());
  // No deadline: survives the stall. 200 ms deadline: expires behind it.
  auto patient = engine->EmbedAsync({0}, t);
  ASSERT_TRUE(patient.ok());
  auto hurried = engine->EmbedAsync({0}, t, /*deadline_us=*/200000);
  ASSERT_TRUE(hurried.ok());

  auto hurried_result = hurried.TakeValue().get();
  ASSERT_FALSE(hurried_result.ok());
  EXPECT_EQ(hurried_result.status().code(), StatusCode::kDeadlineExceeded)
      << hurried_result.status().ToString();
  EXPECT_GE(engine->deadline_exceeded_count(), 1);

  auto patient_result = patient.TakeValue().get();
  ASSERT_TRUE(patient_result.ok()) << patient_result.status().ToString();
  ExpectBitIdentical(patient_result.value().embeddings,
                     fx.DirectEmbed({0}, t));
}

TEST(ServeRobustnessTest, DeadlinePressureServesStaleCacheHit) {
  Fixture fx("stale");
  serve::ServingOptions options;
  options.default_deadline_us = 2000000;  // 2 s budget
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path, options)
                    .TakeValue();
  ASSERT_TRUE(engine->options().keep_stale_entries);  // forced by deadline
  const double t = fx.graph.max_time() + 50.0;

  // Warm the cache at the current version.
  auto warm = engine->EmbedFull({0}, t);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_FALSE(warm.value().stale);
  const uint64_t v0 = engine->memory_version();

  // Advance moves the fleet version; stale entries survive (keep mode).
  ASSERT_TRUE(
      engine->Advance(MakeEvents(99, kAdvanceEvents, fx.graph.max_time()))
          .ok());
  ASSERT_GT(engine->memory_version(), v0);

  // Burn >half the budget behind an injected stall; the executor should
  // degrade to the cached pre-advance row rather than compute or expire.
  util::FaultInjector::Scope stall([] {
    util::FaultInjector::Config c;
    c.serve_stall_millis = 1200;
    return c;
  }());
  auto pressed = engine->EmbedFull({0}, t);
  ASSERT_TRUE(pressed.ok()) << pressed.status().ToString();
  EXPECT_TRUE(pressed.value().stale);
  EXPECT_EQ(engine->stale_served_count(), 1);
  // The stale answer is the pre-advance generation, bit for bit.
  ExpectBitIdentical(pressed.value().embeddings, warm.value().embeddings);

  // Unpressed requests compute fresh at the new version.
  auto fresh = engine->EmbedFull({0}, t);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().stale);
  EXPECT_EQ(fresh.value().memory_version, engine->memory_version());
}

// ---------------------------------------------------------------------------
// Multi-worker consistency.
// ---------------------------------------------------------------------------

TEST(ServeRobustnessTest, MultiShardServingIsBitIdenticalAcrossAdvance) {
  Fixture fx("multishard");
  serve::ServingOptions options;
  options.num_shards = 3;
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path, options)
                    .TakeValue();
  ASSERT_EQ(engine->num_shards(), 3);
  const double t = fx.graph.max_time() + 5.0;

  std::vector<graph::NodeId> all_nodes;
  for (graph::NodeId v = 0; v < kNumNodes; ++v) all_nodes.push_back(v);
  ts::Tensor direct = fx.DirectEmbed(all_nodes, t);

  // Single-node requests spread over all three workers by node affinity;
  // every row must match the direct forward bit for bit.
  for (graph::NodeId v = 0; v < kNumNodes; ++v) {
    auto r = engine->EmbedFull({v}, t);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().stale);
    ASSERT_EQ(0, std::memcmp(r.value().embeddings.data(),
                             direct.data() + v * direct.cols(),
                             static_cast<size_t>(direct.cols()) *
                                 sizeof(float)))
        << "row " << v << " differs from the direct forward";
  }

  // After an advance every worker answers from the one new snapshot.
  std::vector<graph::Event> fresh =
      MakeEvents(99, kAdvanceEvents, fx.graph.max_time() + 1.0);
  ASSERT_TRUE(engine->Advance(fresh).ok());

  {
    ts::InferenceModeGuard guard;
    fx.encoder->ReplayEvents(fresh, /*batch_size=*/128);
  }
  const double t2 = t + 60.0;
  ts::Tensor direct_after = fx.DirectEmbed(all_nodes, t2);
  for (graph::NodeId v = 0; v < kNumNodes; ++v) {
    auto r = engine->EmbedFull({v}, t2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().memory_version, engine->memory_version());
    ASSERT_EQ(0, std::memcmp(r.value().embeddings.data(),
                             direct_after.data() + v * direct_after.cols(),
                             static_cast<size_t>(direct_after.cols()) *
                                 sizeof(float)))
        << "post-advance row " << v << " differs";
  }
}

TEST(ServeRobustnessTest, ReadsRacingAdvancesMatchReferenceAtTheirVersion) {
  Fixture fx("racing");
  serve::ServingOptions options;
  options.num_shards = 4;
  options.max_batch = 8;
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path, options)
                    .TakeValue();
  const double t = fx.graph.max_time() + 500.0;
  constexpr int kAdvances = 5;

  // One reference memory per published version, built by replaying the
  // same advances (same batching) onto copies of the loaded snapshot.
  std::vector<std::vector<graph::Event>> feeds;
  std::map<uint64_t, dgnn::Memory> reference;
  {
    dgnn::Memory memory = *engine->memory_snapshot();
    reference.emplace(memory.version(), memory);
    ts::InferenceModeGuard guard;
    for (int k = 0; k < kAdvances; ++k) {
      feeds.push_back(MakeEvents(200 + static_cast<uint64_t>(k), 30,
                                 fx.graph.max_time() + 1.0 + 60.0 * k));
      fx.encoder->ReplayEvents(&memory, feeds.back(),
                               serve::kAdvanceReplayBatch);
      reference.emplace(memory.version(), memory);
    }
  }

  struct Seen {
    std::vector<graph::NodeId> nodes;
    uint64_t version;
    ts::Tensor rows;
  };
  std::atomic<bool> done{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::vector<Seen>> seen(4);
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; !done.load() || i < 20; ++i) {
        std::vector<graph::NodeId> nodes = {
            static_cast<graph::NodeId>((r + 4 * i) % kNumNodes),
            static_cast<graph::NodeId>((7 * i + r) % kNumNodes)};
        auto response = engine->EmbedFull(nodes, t);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_FALSE(response.value().stale);
        seen[static_cast<size_t>(r)].push_back(
            {nodes, response.value().memory_version,
             response.value().embeddings});
        answered.fetch_add(1);
      }
    });
  }
  // Each advance lands while reads are in flight, and some reads are
  // answered between consecutive advances.
  const auto await_reads = [&] {
    const int64_t mark = answered.load();
    ASSERT_TRUE(WaitFor([&] { return answered.load() >= mark + 8; },
                        /*timeout_ms=*/10000));
  };
  for (int k = 0; k < kAdvances; ++k) {
    await_reads();
    ASSERT_TRUE(engine->Advance(feeds[static_cast<size_t>(k)]).ok());
  }
  await_reads();
  done.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(engine->memory_version(), reference.rbegin()->first);

  ts::InferenceModeGuard guard;
  dgnn::ForwardScratch scratch;
  std::set<uint64_t> versions;
  for (const std::vector<Seen>& mine : seen) {
    uint64_t last = 0;
    for (const Seen& s : mine) {
      EXPECT_GE(s.version, last) << "a reader saw its version go down";
      last = s.version;
      versions.insert(s.version);
      auto it = reference.find(s.version);
      ASSERT_NE(it, reference.end())
          << "response reports unpublished version " << s.version;
      scratch.Clear();
      ExpectBitIdentical(
          s.rows, fx.encoder->ComputeEmbeddings(
                      it->second, &scratch, s.nodes,
                      std::vector<double>(s.nodes.size(), t)));
    }
  }
  // Each reader has at most one read in flight, so of the 8 reads awaited
  // between two advances at least 4 were submitted, and answered, at the
  // version in between: every published version is seen.
  EXPECT_EQ(versions.size(), reference.size());
}

// ---------------------------------------------------------------------------
// Fault-injected recovery.
// ---------------------------------------------------------------------------

serve::ServingOptions FastWatchdogOptions() {
  serve::ServingOptions options;
  options.watchdog_interval_ms = 25;
  options.watchdog_max_missed = 4;  // wedge declared after ~100 ms
  return options;
}

TEST(ServeRobustnessTest, WatchdogRestartsWedgedShard) {
  Fixture fx("wedge");
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path, FastWatchdogOptions())
                    .TakeValue();
  const double t = fx.graph.max_time() + 1.0;

  util::FaultInjector::Scope stall([] {
    util::FaultInjector::Config c;
    c.serve_stall_millis = 2500;
    return c;
  }());
  // The victim request wedges the executor mid-flight.
  auto victim = engine->EmbedAsync({0}, t);
  ASSERT_TRUE(victim.ok());

  ASSERT_TRUE(WaitFor([&] { return engine->watchdog_restarts() >= 1; },
                      /*timeout_ms=*/10000))
      << "watchdog did not restart the wedged worker";

  // The fresh worker answers immediately — bitwise-identical to the
  // reference — while the zombie executor is still sleeping.
  auto probe = engine->EmbedFull({0}, t);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  ExpectBitIdentical(probe.value().embeddings, fx.DirectEmbed({0}, t));

  // The wedged request itself still completes (late, but correct): its
  // executor finishes the in-flight batch before retiring.
  auto victim_result = victim.TakeValue().get();
  ASSERT_TRUE(victim_result.ok()) << victim_result.status().ToString();
  ExpectBitIdentical(victim_result.value().embeddings,
                     fx.DirectEmbed({0}, t));
}

// ---------------------------------------------------------------------------
// Recoverable load errors and shutdown semantics.
// ---------------------------------------------------------------------------

TEST(ServeRobustnessTest, FromCheckpointRejectsBadOptionsPerReason) {
  Fixture fx("badopts");
  const auto config = SmallConfig();
  const auto expect_invalid = [&](const serve::ServingOptions& options) {
    auto r = serve::ServingEngine::FromCheckpoint(
        config, kPredictorHidden, &fx.graph, fx.checkpoint_path, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  };
  {
    serve::ServingOptions o;
    o.num_shards = 0;
    expect_invalid(o);
  }
  {
    serve::ServingOptions o;
    o.num_shards = 1000;
    expect_invalid(o);
  }
  {
    serve::ServingOptions o;
    o.max_batch = 0;
    expect_invalid(o);
  }
  {
    serve::ServingOptions o;
    o.queue_limit = -1;
    expect_invalid(o);
  }
  {
    serve::ServingOptions o;
    o.default_deadline_us = -5;
    expect_invalid(o);
  }
  {
    serve::ServingOptions o;
    o.watchdog_max_missed = 0;
    expect_invalid(o);
  }
  // Null graph is a recoverable error, not an abort.
  auto null_graph = serve::ServingEngine::FromCheckpoint(
      config, kPredictorHidden, nullptr, fx.checkpoint_path);
  ASSERT_FALSE(null_graph.ok());
  EXPECT_EQ(null_graph.status().code(), StatusCode::kInvalidArgument);
  // Missing checkpoint file surfaces as an I/O-class status.
  auto missing = serve::ServingEngine::FromCheckpoint(
      config, kPredictorHidden, &fx.graph,
      ::testing::TempDir() + "does_not_exist.ckpt");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().code(), StatusCode::kInternal);
}

TEST(ServeRobustnessTest, ShutdownFailsRequestsWithExplicitStatus) {
  Fixture fx("shutdown_status");
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path)
                    .TakeValue();
  ASSERT_TRUE(engine->EmbedFull({0}, 1.0).ok());
  engine->Shutdown();
  engine->Shutdown();  // idempotent

  auto embed = engine->EmbedFull({0}, 1.0);
  ASSERT_FALSE(embed.ok());
  EXPECT_EQ(embed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(embed.status().message().find("shut down"), std::string::npos);

  auto score = engine->ScoreLinksFull({0}, {1}, 1.0);
  ASSERT_FALSE(score.ok());
  EXPECT_EQ(score.status().code(), StatusCode::kFailedPrecondition);

  Status advance = engine->Advance(MakeEvents(5, 3, 100.0));
  ASSERT_FALSE(advance.ok());
  EXPECT_EQ(advance.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// On-disk advance journal (CPDG_SERVE_JOURNAL_DIR): process-restart
// recovery, corruption handling, and entry-sequence semantics.
// ---------------------------------------------------------------------------

TEST(JournalTest, RoundTripStopsAtFirstMissingEntry) {
  const std::string dir = ::testing::TempDir() + "journal_roundtrip";
  ClearJournalDir(dir);
  std::vector<graph::Event> batch0 = MakeEvents(1, 5, 10.0);
  std::vector<graph::Event> batch1 = MakeEvents(2, 3, 50.0);
  std::vector<graph::Event> batch2 = MakeEvents(3, 4, 90.0);
  ASSERT_TRUE(serve::AppendJournalEntry(dir, 0, kNumNodes, batch0).ok());
  ASSERT_TRUE(serve::AppendJournalEntry(dir, 1, kNumNodes, batch1).ok());
  ASSERT_TRUE(serve::AppendJournalEntry(dir, 2, kNumNodes, batch2).ok());

  auto all = serve::LoadJournal(dir, kNumNodes);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all.value().size(), 3u);
  ASSERT_EQ(all.value()[1].size(), batch1.size());
  EXPECT_EQ(all.value()[1][0].src, batch1[0].src);
  EXPECT_EQ(all.value()[1][0].dst, batch1[0].dst);
  EXPECT_EQ(all.value()[1][0].time, batch1[0].time);

  // The sequence is contiguous-from-0: removing entry 1 hides entry 2.
  ASSERT_EQ(std::remove(serve::JournalEntryPath(dir, 1).c_str()), 0);
  auto truncated = serve::LoadJournal(dir, kNumNodes);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_EQ(truncated.value().size(), 1u);

  // A journal written for one graph does not load against another size.
  auto wrong_size = serve::LoadJournal(dir, kNumNodes + 1);
  EXPECT_FALSE(wrong_size.ok());

  // A missing directory is an empty journal, not an error.
  auto missing = serve::LoadJournal(dir + "_nonexistent", kNumNodes);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_TRUE(missing.value().empty());
}

TEST(ServeRobustnessTest, JournaledAdvancesSurviveProcessRestart) {
  Fixture fx("journal_restart");
  serve::ServingOptions options;
  options.journal_dir = ::testing::TempDir() + "journal_restart_dir";
  ClearJournalDir(options.journal_dir);
  std::vector<graph::Event> fresh =
      MakeEvents(88, kAdvanceEvents, fx.graph.max_time() + 1.0);
  {
    auto engine = serve::ServingEngine::FromCheckpoint(
                      SmallConfig(), kPredictorHidden, &fx.graph,
                      fx.checkpoint_path, options)
                      .TakeValue();
    const uint64_t v0 = engine->memory_version();
    ASSERT_TRUE(engine->Advance(fresh).ok());
    EXPECT_GT(engine->memory_version(), v0);
    engine->Shutdown();
  }
  // The advance left a durable entry behind.
  std::ifstream entry(serve::JournalEntryPath(options.journal_dir, 0),
                      std::ios::binary);
  ASSERT_TRUE(entry.good());

  // A new process over the same checkpoint + journal dir resumes past the
  // journaled advance and serves the advanced state, bit-for-bit equal to
  // a reference encoder that replayed the same events.
  auto restarted = serve::ServingEngine::FromCheckpoint(
                       SmallConfig(), kPredictorHidden, &fx.graph,
                       fx.checkpoint_path, options)
                       .TakeValue();
  EXPECT_GT(restarted->memory_version(), 0u);
  {
    ts::InferenceModeGuard guard;
    fx.encoder->ReplayEvents(fresh, /*batch_size=*/128);
  }
  const double t = fx.graph.max_time() + 60.0;
  const std::vector<graph::NodeId> probe = {0, 1, 2, 3, 4};
  ExpectBitIdentical(restarted->Embed(probe, t).ValueOrDie(),
                     fx.DirectEmbed(probe, t));

  // New advances append at the recovered sequence position rather than
  // overwriting history.
  ASSERT_TRUE(
      restarted->Advance(MakeEvents(89, 8, fx.graph.max_time() + 100.0))
          .ok());
  std::ifstream next(serve::JournalEntryPath(options.journal_dir, 1),
                     std::ios::binary);
  EXPECT_TRUE(next.good());
  restarted->Shutdown();
}

TEST(ServeRobustnessTest, CorruptJournalEntryFailsLoadRecoverably) {
  Fixture fx("journal_corrupt");
  serve::ServingOptions options;
  options.journal_dir = ::testing::TempDir() + "journal_corrupt_dir";
  ClearJournalDir(options.journal_dir);
  {
    auto engine = serve::ServingEngine::FromCheckpoint(
                      SmallConfig(), kPredictorHidden, &fx.graph,
                      fx.checkpoint_path, options)
                      .TakeValue();
    ASSERT_TRUE(
        engine
            ->Advance(MakeEvents(91, kAdvanceEvents,
                                 fx.graph.max_time() + 1.0))
            .ok());
    engine->Shutdown();
  }
  // Flip one payload byte mid-file; the CRC must catch it.
  const std::string path = serve::JournalEntryPath(options.journal_dir, 0);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(f.tellg());
    ASSERT_GT(size, 0);
    f.seekg(size / 2);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  auto reloaded = serve::ServingEngine::FromCheckpoint(
      SmallConfig(), kPredictorHidden, &fx.graph, fx.checkpoint_path,
      options);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kIoError)
      << reloaded.status().ToString();
}

}  // namespace
}  // namespace cpdg
