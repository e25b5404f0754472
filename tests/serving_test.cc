// Tests for the frozen-encoder serving engine: checkpoint loading and
// rejection, batch-coalescing bit-determinism against a direct encoder
// forward, cache eviction/invalidation, and link scoring.

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dgnn/encoder.h"
#include "graph/temporal_graph.h"
#include "gtest/gtest.h"
#include "serve/embedding_cache.h"
#include "serve/serving_engine.h"
#include "tensor/checkpoint_container.h"
#include "tensor/ops.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpdg {
namespace {

namespace ts = tensor;

constexpr int64_t kNumNodes = 30;
constexpr int64_t kPredictorHidden = 16;
/// Must stay below the engine's internal advance replay batch (128) so a
/// reference ReplayEvents over the same events is trivially batched
/// identically.
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

std::vector<graph::Event> MakeEvents(uint64_t seed, size_t count,
                                     double t0) {
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

/// Reference model pair with warm memory, plus the checkpoint the serving
/// engine loads. The reference encoder is left exactly in the serialized
/// state, so its forwards are the ground truth for the engine's answers.
struct Fixture {
  graph::TemporalGraph graph;
  Rng rng{42};
  std::unique_ptr<dgnn::DgnnEncoder> encoder;
  std::unique_ptr<dgnn::LinkPredictor> predictor;
  std::string checkpoint_path;

  explicit Fixture(const std::string& name, bool with_memory = true) {
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
    checkpoint_path = ::testing::TempDir() + "serving_" + name + ".ckpt";
    WriteCheckpoint(checkpoint_path, with_memory);
  }

  void WriteCheckpoint(const std::string& path, bool with_memory) const {
    std::vector<ts::Tensor> params = encoder->Parameters();
    std::vector<ts::Tensor> dec = predictor->Parameters();
    params.insert(params.end(), dec.begin(), dec.end());
    ts::SectionWriter writer;
    writer.Add(ts::kParamsSection,
               ts::EncodeTensorList(params).ValueOrDie());
    if (with_memory) {
      std::string memory_bytes;
      encoder->memory().SerializeTo(&memory_bytes);
      writer.Add(train::kMemorySection, memory_bytes);
    }
    ASSERT_TRUE(writer.WriteAtomic(path).ok());
  }

  /// Direct (unserved) forward over the reference encoder.
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

TEST(EmbeddingCacheTest, LruEvictionAndInvalidation) {
  serve::EmbeddingCache cache(2);
  std::vector<float> row;
  cache.Insert({1, 0.0, 0}, {1.0f});
  cache.Insert({2, 0.0, 0}, {2.0f});
  ASSERT_TRUE(cache.Lookup({1, 0.0, 0}, &row));  // 1 now most recent
  cache.Insert({3, 0.0, 0}, {3.0f});             // evicts 2 (LRU)
  EXPECT_FALSE(cache.Lookup({2, 0.0, 0}, &row));
  ASSERT_TRUE(cache.Lookup({3, 0.0, 0}, &row));
  EXPECT_EQ(row[0], 3.0f);
  EXPECT_EQ(cache.evictions(), 1);
  // Distinct time or version is a distinct key.
  EXPECT_FALSE(cache.Lookup({3, 1.0, 0}, &row));
  EXPECT_FALSE(cache.Lookup({3, 0.0, 1}, &row));
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_FALSE(cache.Lookup({1, 0.0, 0}, &row));
}

TEST(EmbeddingCacheTest, ZeroCapacityDisables) {
  serve::EmbeddingCache cache(0);
  std::vector<float> row;
  cache.Insert({1, 0.0, 0}, {1.0f});
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Lookup({1, 0.0, 0}, &row));
}

TEST(ServingEngineTest, LoadsParamsAndMemoryFrozen) {
  Fixture fx("load");
  auto result = serve::ServingEngine::FromCheckpoint(
      SmallConfig(), kPredictorHidden, &fx.graph, fx.checkpoint_path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto& engine = *result.value();

  std::vector<ts::Tensor> expected = fx.encoder->Parameters();
  std::vector<ts::Tensor> actual = engine.encoder().Parameters();
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectBitIdentical(expected[i], actual[i]);
    EXPECT_FALSE(actual[i].requires_grad());
  }
  EXPECT_DOUBLE_EQ(engine.memory_snapshot()->StateNorm(),
                   fx.encoder->memory().StateNorm());
  EXPECT_TRUE(engine.has_predictor());
}

TEST(ServingEngineTest, RejectsMismatchedCheckpoints) {
  Fixture fx("reject");

  // Architecture mismatch: different memory width.
  dgnn::EncoderConfig wrong = SmallConfig();
  wrong.memory_dim = 16;
  auto r1 = serve::ServingEngine::FromCheckpoint(
      wrong, kPredictorHidden, &fx.graph, fx.checkpoint_path);
  EXPECT_FALSE(r1.ok());

  // Parameter-count mismatch: checkpoint carries a predictor, engine
  // built without one.
  auto r2 = serve::ServingEngine::FromCheckpoint(
      SmallConfig(), /*predictor_hidden=*/0, &fx.graph, fx.checkpoint_path);
  EXPECT_FALSE(r2.ok());

  // Corrupt container.
  const std::string garbage = ::testing::TempDir() + "serving_garbage.ckpt";
  std::ofstream(garbage, std::ios::binary) << "not a checkpoint";
  auto r3 = serve::ServingEngine::FromCheckpoint(
      SmallConfig(), kPredictorHidden, &fx.graph, garbage);
  EXPECT_FALSE(r3.ok());

  // Valid params section but truncated memory section.
  std::vector<ts::Tensor> params = fx.encoder->Parameters();
  std::vector<ts::Tensor> dec = fx.predictor->Parameters();
  params.insert(params.end(), dec.begin(), dec.end());
  std::string memory_bytes;
  fx.encoder->memory().SerializeTo(&memory_bytes);
  ts::SectionWriter writer;
  writer.Add(ts::kParamsSection, ts::EncodeTensorList(params).ValueOrDie());
  writer.Add(train::kMemorySection,
             memory_bytes.substr(0, memory_bytes.size() / 2));
  const std::string truncated =
      ::testing::TempDir() + "serving_truncated_mem.ckpt";
  ASSERT_TRUE(writer.WriteAtomic(truncated).ok());
  auto r4 = serve::ServingEngine::FromCheckpoint(
      SmallConfig(), kPredictorHidden, &fx.graph, truncated);
  EXPECT_FALSE(r4.ok());
}

// The acceptance bar of the serving engine: coalesced, cached, concurrent
// serving answers are bit-identical to a direct encoder forward — at one
// and at four kernel threads, cold cache and warm.
TEST(ServingEngineTest, BitIdenticalToDirectForwardAcrossThreadCounts) {
  Fixture fx("bitident");
  const double t_query = fx.graph.max_time() + 5.0;
  const std::vector<graph::NodeId> all_nodes = [] {
    std::vector<graph::NodeId> v;
    for (graph::NodeId i = 0; i < kNumNodes; ++i) v.push_back(i);
    return v;
  }();
  ts::Tensor direct = fx.DirectEmbed(all_nodes, t_query);

  for (int num_threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    util::ThreadPool::SetGlobalNumThreads(num_threads);

    serve::ServingOptions options;
    options.max_batch = 8;
    options.max_wait_micros = 2000;  // encourage coalescing
    auto engine = serve::ServingEngine::FromCheckpoint(
                      SmallConfig(), kPredictorHidden, &fx.graph,
                      fx.checkpoint_path, options)
                      .TakeValue();

    // Four client threads race single-node requests; the executor is free
    // to coalesce them into arbitrary batch compositions.
    for (int round = 0; round < 2; ++round) {  // round 1 hits a warm cache
      SCOPED_TRACE("round=" + std::to_string(round));
      std::vector<ts::Tensor> rows(static_cast<size_t>(kNumNodes));
      std::vector<std::thread> clients;
      for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
          for (graph::NodeId v = c; v < kNumNodes; v += 4) {
            auto r = engine->Embed({v}, t_query);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            rows[static_cast<size_t>(v)] = r.TakeValue();
          }
        });
      }
      for (auto& c : clients) c.join();
      for (graph::NodeId v = 0; v < kNumNodes; ++v) {
        const ts::Tensor& row = rows[static_cast<size_t>(v)];
        ASSERT_EQ(row.rows(), 1);
        EXPECT_FALSE(row.requires_grad());
        ASSERT_EQ(0, std::memcmp(row.data(),
                                 direct.data() + v * direct.cols(),
                                 static_cast<size_t>(direct.cols()) *
                                     sizeof(float)))
            << "row " << v << " differs from the direct forward";
      }
    }
    EXPECT_GT(engine->cache_hits(), 0);  // round 2 came from the cache

    // One multi-node request must equal the same direct forward too.
    auto batched = engine->Embed(all_nodes, t_query);
    ASSERT_TRUE(batched.ok());
    ExpectBitIdentical(batched.value(), direct);
  }
  util::ThreadPool::SetGlobalNumThreads(1);
}

TEST(ServingEngineTest, ScoreLinksMatchesDirectPredictor) {
  Fixture fx("score");
  const double t_query = fx.graph.max_time() + 1.0;
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path)
                    .TakeValue();
  const std::vector<graph::NodeId> srcs = {0, 3, 7, 7};
  const std::vector<graph::NodeId> dsts = {1, 4, 8, 2};
  auto probs = engine->ScoreLinks(srcs, dsts, t_query);
  ASSERT_TRUE(probs.ok()) << probs.status().ToString();
  ASSERT_EQ(probs.value().size(), srcs.size());

  ts::InferenceModeGuard guard;
  ts::Tensor z_src = fx.DirectEmbed(srcs, t_query);
  ts::Tensor z_dst = fx.DirectEmbed(dsts, t_query);
  ts::Tensor expected =
      ts::Sigmoid(fx.predictor->ForwardLogits(z_src, z_dst));
  for (size_t i = 0; i < srcs.size(); ++i) {
    EXPECT_EQ(probs.value()[i],
              static_cast<double>(expected.at(static_cast<int64_t>(i), 0)));
    EXPECT_GT(probs.value()[i], 0.0);
    EXPECT_LT(probs.value()[i], 1.0);
  }

  // Mis-shaped and out-of-range inputs are rejected up front.
  EXPECT_FALSE(engine->ScoreLinks({0, 1}, {2}, t_query).ok());
  EXPECT_FALSE(engine->ScoreLinks({kNumNodes}, {0}, t_query).ok());

  // An engine without a predictor refuses to score.
  Fixture fx2("score_nopred");
  ts::SectionWriter writer;
  writer.Add(ts::kParamsSection,
             ts::EncodeTensorList(fx2.encoder->Parameters()).ValueOrDie());
  const std::string enc_only =
      ::testing::TempDir() + "serving_enc_only.ckpt";
  ASSERT_TRUE(writer.WriteAtomic(enc_only).ok());
  auto bare = serve::ServingEngine::FromCheckpoint(
                  SmallConfig(), /*predictor_hidden=*/0, &fx2.graph,
                  enc_only)
                  .TakeValue();
  EXPECT_FALSE(bare->has_predictor());
  EXPECT_FALSE(bare->ScoreLinks({0}, {1}, t_query).ok());
}

TEST(ServingEngineTest, AdvanceInvalidatesCacheAndMatchesReplayedEncoder) {
  Fixture fx("advance");
  const double t0 = fx.graph.max_time();
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path)
                    .TakeValue();

  const std::vector<graph::NodeId> probe = {0, 1, 2, 3};
  const double t_query = t0 + 50.0;
  ts::Tensor before = engine->Embed(probe, t_query).TakeValue();
  ExpectBitIdentical(before, fx.DirectEmbed(probe, t_query));

  const uint64_t version_before = engine->memory_version();
  EXPECT_TRUE(engine->Advance({}).ok());  // no-op advance
  EXPECT_EQ(engine->memory_version(), version_before);

  std::vector<graph::Event> fresh = MakeEvents(99, kAdvanceEvents, t0 + 1.0);
  ASSERT_TRUE(engine->Advance(fresh).ok());
  EXPECT_GT(engine->memory_version(), version_before);

  // Out-of-range events are rejected without touching memory.
  graph::Event bad;
  bad.src = kNumNodes;
  bad.dst = 0;
  bad.time = t0 + 100.0;
  const uint64_t version_mid = engine->memory_version();
  EXPECT_FALSE(engine->Advance({bad}).ok());
  EXPECT_EQ(engine->memory_version(), version_mid);

  // Post-advance embeddings match a reference encoder that replayed the
  // same events (kAdvanceEvents < 128, so replay batching is identical),
  // and are served fresh, not from the stale cache.
  {
    ts::InferenceModeGuard guard;
    fx.encoder->ReplayEvents(fresh, /*batch_size=*/128);
  }
  ts::Tensor after = engine->Embed(probe, t_query).TakeValue();
  // The worker drops its cache when its first batch sees the new version.
  EXPECT_GT(engine->cache_invalidations(), 0);
  ExpectBitIdentical(after, fx.DirectEmbed(probe, t_query));
  EXPECT_NE(0, std::memcmp(before.data(), after.data(),
                           static_cast<size_t>(before.size()) *
                               sizeof(float)))
      << "advance should change the probe nodes' embeddings";
}

TEST(ServingEngineTest, CacheEvictionUnderTinyCapacity) {
  Fixture fx("evict");
  serve::ServingOptions options;
  options.cache_capacity = 2;
  options.max_batch = 1;  // no coalescing: one node per executor batch
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path, options)
                    .TakeValue();
  const double t = fx.graph.max_time() + 1.0;
  for (graph::NodeId v : {0, 1, 2, 0}) {  // 0 evicted by 2, recomputed
    ASSERT_TRUE(engine->Embed({v}, t).ok());
  }
  EXPECT_GT(engine->cache_evictions(), 0);
  EXPECT_EQ(engine->cache_hits(), 0);
  EXPECT_EQ(engine->cache_misses(), 4);
}

TEST(ServingEngineTest, ShutdownRejectsNewRequestsAndIsIdempotent) {
  Fixture fx("shutdown");
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path)
                    .TakeValue();
  ASSERT_TRUE(engine->Embed({0}, 1.0).ok());
  engine->Shutdown();
  engine->Shutdown();  // idempotent
  EXPECT_FALSE(engine->Embed({0}, 1.0).ok());
  EXPECT_FALSE(engine->ScoreLinks({0}, {1}, 1.0).ok());
  EXPECT_FALSE(engine->Advance(MakeEvents(5, 3, 100.0)).ok());
}

TEST(ServingEngineTest, ServingRetainsNoAutogradGraph) {
  Fixture fx("noleak");
  auto engine = serve::ServingEngine::FromCheckpoint(
                    SmallConfig(), kPredictorHidden, &fx.graph,
                    fx.checkpoint_path)
                    .TakeValue();
  const double t = fx.graph.max_time() + 1.0;
  ASSERT_TRUE(engine->Embed({0, 1}, t).ok());  // warm caches
  const int64_t live_before = ts::LiveTensorCount();
  for (int i = 0; i < 3; ++i) {
    auto r = engine->Embed({0, 1}, t);  // cache hits: no new retained state
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(ts::LiveTensorCount(), live_before);
}

}  // namespace
}  // namespace cpdg
