// int8 quantized inference suite (tensor/quant.h, DESIGN.md §14):
// quantize/round-trip bounds and packed-layout structure, bitwise parity
// across the scalar / AVX2 / AVX-VNNI backends and across thread counts,
// the MatMul frozen-weight hook, and engine-level fp32-vs-int8 accuracy
// (cosine + link-score agreement) including under live advance churn.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dgnn/encoder.h"
#include "graph/temporal_graph.h"
#include "obs/metrics.h"
#include "serve/serving_engine.h"
#include "tensor/checkpoint_container.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/serialization.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpdg {
namespace {

namespace ts = cpdg::tensor;

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) {
    util::ThreadPool::SetGlobalNumThreads(n);
  }
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalNumThreads(
        util::ThreadPool::DefaultNumThreads());
  }
};

struct SimdModeGuard {
  explicit SimdModeGuard(ts::simd::Mode m) { ts::simd::ForceModeForTest(m); }
  ~SimdModeGuard() { ts::simd::ResetModeForTest(); }
};

/// Pins AvxVnniSupported() == false for the scope so the AVX2 int16
/// backend runs even on VNNI hardware.
struct VnniDisableGuard {
  VnniDisableGuard() { ts::simd::DisableAvxVnniForTest(true); }
  ~VnniDisableGuard() { ts::simd::DisableAvxVnniForTest(false); }
};

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->NextUniform(-1.0, 1.0));
  return v;
}

double Cosine(const float* a, const float* b, int64_t n) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return na == nb ? 1.0 : 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

TEST(QuantizeTest, RoundTripBoundAndGridRange) {
  Rng rng(101);
  const int64_t rows = 7, cols = 33;
  std::vector<float> src = RandomVec(rows * cols, &rng);
  src[5] = 0.0f;  // exercise exact-zero elements alongside a zero row
  ts::QuantizedMatrix q = ts::QuantizeRowsInt8(src.data(), rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  ASSERT_EQ(q.wide.size(), static_cast<size_t>(rows * cols));
  ASSERT_EQ(q.scales.size(), static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const float s = q.scales[static_cast<size_t>(r)];
    ASSERT_GT(s, 0.0f);
    for (int64_t c = 0; c < cols; ++c) {
      const int16_t v = q.wide[static_cast<size_t>(r * cols + c)];
      EXPECT_GE(v, -127);
      EXPECT_LE(v, 127);
      // Symmetric round-to-nearest: reconstruction error is at most half
      // a quantization step.
      const float err =
          std::fabs(src[static_cast<size_t>(r * cols + c)] - v * s);
      EXPECT_LE(err, s * 0.5f + 1e-7f);
    }
  }
}

TEST(QuantizeTest, ZeroRowHasZeroScaleAndZeroCodes) {
  const int64_t rows = 3, cols = 9;
  std::vector<float> src(static_cast<size_t>(rows * cols), 0.0f);
  src[0] = 0.5f;  // row 0 non-zero; rows 1 and 2 all-zero
  ts::QuantizedMatrix q = ts::QuantizeRowsInt8(src.data(), rows, cols);
  EXPECT_GT(q.scales[0], 0.0f);
  for (int64_t r = 1; r < rows; ++r) {
    EXPECT_EQ(q.scales[static_cast<size_t>(r)], 0.0f);
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(q.wide[static_cast<size_t>(r * cols + c)], 0);
    }
  }
}

TEST(QuantizeTest, WidePackedAndBiasMirrorValues) {
  Rng rng(77);
  const int64_t rows = 19, cols = 13;  // odd on purpose: padding in play
  std::vector<float> src = RandomVec(rows * cols, &rng);
  ts::QuantizedMatrix q = ts::QuantizeRowsInt8(src.data(), rows, cols);
  ASSERT_EQ(q.kpad, (cols + 3) & ~int64_t{3});
  ASSERT_EQ(q.wide.size(), static_cast<size_t>(rows * cols));
  const int64_t nblk = (rows + 7) / 8;
  ASSERT_EQ(q.packed.size(), static_cast<size_t>(nblk * q.kpad * 8));
  ASSERT_EQ(q.bias.size(), static_cast<size_t>(rows));
  // Every packed byte either mirrors its source element (per the indexing
  // documented on QuantizedMatrix::packed) or is padding and must be zero.
  for (int64_t jb = 0; jb < nblk; ++jb) {
    for (int64_t kb = 0; kb < q.kpad / 4; ++kb) {
      for (int64_t l = 0; l < 8; ++l) {
        for (int64_t t = 0; t < 4; ++t) {
          const int8_t b =
              q.packed[static_cast<size_t>(jb * q.kpad * 8 + kb * 32 +
                                           l * 4 + t)];
          const int64_t r = jb * 8 + l, c = kb * 4 + t;
          if (r < rows && c < cols) {
            EXPECT_EQ(b, q.wide[static_cast<size_t>(r * cols + c)]);
          } else {
            EXPECT_EQ(b, 0);
          }
        }
      }
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    int32_t sum = 0;
    for (int64_t c = 0; c < cols; ++c) {
      sum += q.wide[static_cast<size_t>(r * cols + c)];
    }
    EXPECT_EQ(q.bias[static_cast<size_t>(r)], 128 * sum);
  }
}

TEST(QuantizeTest, TransposeQuantMatchesQuantOfTranspose) {
  Rng rng(5);
  const int64_t rows = 11, cols = 6;
  std::vector<float> src = RandomVec(rows * cols, &rng);
  std::vector<float> t(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      t[static_cast<size_t>(c * rows + r)] =
          src[static_cast<size_t>(r * cols + c)];
    }
  }
  ts::QuantizedMatrix a = ts::QuantizeTransposeInt8(src.data(), rows, cols);
  ts::QuantizedMatrix b = ts::QuantizeRowsInt8(t.data(), cols, rows);
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.wide, b.wide);
  EXPECT_EQ(a.scales, b.scales);
  EXPECT_EQ(a.packed, b.packed);
  EXPECT_EQ(a.bias, b.bias);
}

std::vector<float> QuantGemmAt(ts::simd::Mode mode, bool vnni,
                               const std::vector<float>& a,
                               const ts::QuantizedMatrix& bt, int64_t m,
                               int64_t k, int64_t n) {
  SimdModeGuard guard(mode);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  if (vnni) {
    ts::QuantGemmTransposedB(a.data(), m, k, bt, c.data());
  } else {
    VnniDisableGuard off;
    ts::QuantGemmTransposedB(a.data(), m, k, bt, c.data());
  }
  return c;
}

TEST(QuantGemmTest, BackendsAreBitwiseIdentical) {
  Rng rng(31);
  const struct {
    int64_t m, k, n;
  } shapes[] = {{1, 5, 1},   {3, 32, 9},  {7, 63, 32},
                {8, 8, 8},   {64, 128, 100}, {5, 1, 3}};
  for (const auto& s : shapes) {
    std::vector<float> a = RandomVec(s.m * s.k, &rng);
    std::vector<float> b = RandomVec(s.k * s.n, &rng);
    ts::QuantizedMatrix bt = ts::QuantizeTransposeInt8(b.data(), s.k, s.n);
    std::vector<float> scalar =
        QuantGemmAt(ts::simd::Mode::kScalar, false, a, bt, s.m, s.k, s.n);
    if (ts::simd::Avx2Supported()) {
      std::vector<float> avx2 =
          QuantGemmAt(ts::simd::Mode::kAvx2, false, a, bt, s.m, s.k, s.n);
      EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(),
                               scalar.size() * sizeof(float)))
          << "scalar vs avx2 at m=" << s.m << " k=" << s.k << " n=" << s.n;
      if (ts::simd::AvxVnniSupported()) {
        std::vector<float> vnni =
            QuantGemmAt(ts::simd::Mode::kAvx2, true, a, bt, s.m, s.k, s.n);
        EXPECT_EQ(0, std::memcmp(scalar.data(), vnni.data(),
                                 scalar.size() * sizeof(float)))
            << "scalar vs vnni at m=" << s.m << " k=" << s.k
            << " n=" << s.n;
      }
    }
  }
}

TEST(QuantGemmTest, ThreadCountDoesNotChangeBits) {
  Rng rng(13);
  // Products on both sides of the work floor: below it the kernel stays on
  // the calling thread, above it row tiles fan out to 2..4 participants.
  const int64_t floor = ts::kGemmMinFlopsPerParticipant;
  const struct {
    int64_t m, k, n;
  } shapes[] = {{64, 128, 128}, {200, 72, 32}, {7, 63, 33}, {96, 300, 40}};
  bool below = false, above = false;
  for (const auto& s : shapes) {
    below = below || s.m * s.k * s.n < 2 * floor;
    above = above || s.m * s.k * s.n >= 4 * floor;
    std::vector<float> a = RandomVec(s.m * s.k, &rng);
    std::vector<float> b = RandomVec(s.k * s.n, &rng);
    ts::QuantizedMatrix bt = ts::QuantizeTransposeInt8(b.data(), s.k, s.n);
    auto run = [&](int threads) {
      ThreadCountGuard guard(threads);
      std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
      ts::QuantGemmTransposedB(a.data(), s.m, s.k, bt, c.data());
      return c;
    };
    const std::vector<float> serial = run(1);
    for (int threads : {2, 3, 4}) {
      const std::vector<float> got = run(threads);
      EXPECT_EQ(0, std::memcmp(serial.data(), got.data(),
                               serial.size() * sizeof(float)))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << threads;
    }
  }
  EXPECT_TRUE(below && above);
}

TEST(QuantGemmTest, AccumulatesIntoExistingOutput) {
  Rng rng(3);
  const int64_t m = 2, k = 8, n = 3;
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  ts::QuantizedMatrix bt = ts::QuantizeTransposeInt8(b.data(), k, n);
  std::vector<float> zero(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> seeded(static_cast<size_t>(m * n), 2.5f);
  ts::QuantGemmTransposedB(a.data(), m, k, bt, zero.data());
  ts::QuantGemmTransposedB(a.data(), m, k, bt, seeded.data());
  for (size_t i = 0; i < zero.size(); ++i) {
    EXPECT_FLOAT_EQ(seeded[i], zero[i] + 2.5f);
  }
}

TEST(QuantGemmTest, TracksFp32ProductClosely) {
  Rng rng(909);
  const int64_t m = 16, k = 96, n = 48;
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  ts::QuantizedMatrix bt = ts::QuantizeTransposeInt8(b.data(), k, n);
  std::vector<float> cq(static_cast<size_t>(m * n), 0.0f);
  ts::QuantGemmTransposedB(a.data(), m, k, bt, cq.data());
  std::vector<float> cf(static_cast<size_t>(m * n), 0.0f);
  ts::GemmAccumulate({a.data(), m, k, k, 1}, {b.data(), k, n, n, 1},
                     cf.data());
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_GT(Cosine(cq.data() + i * n, cf.data() + i * n, n), 0.999);
  }
}

TEST(QuantModeTest, MatMulHookRoutesFrozenWeightOnly) {
  Rng rng(55);
  ts::Tensor a = ts::Tensor::RandomUniform(6, 32, 1.0f, &rng);
  ts::Tensor w = ts::Tensor::RandomUniform(32, 16, 1.0f, &rng);
  ts::QuantizedParamSet set;
  set.AddWeight(w.data(), w.rows(), w.cols());
  EXPECT_EQ(set.weight_count(), 1);
  EXPECT_GT(set.quantized_bytes(), 0);

  obs::Counter& int8_calls =
      obs::MetricsRegistry::Global().counter("tensor.matmul.int8_calls");
  ts::InferenceModeGuard inference;
  ts::Tensor fp32 = ts::MatMul(a, w);

  const int64_t before = int8_calls.value();
  ts::Tensor quant = [&] {
    ts::QuantModeGuard quant_mode(&set);
    EXPECT_TRUE(ts::QuantModeEnabled());
    EXPECT_EQ(ts::ActiveQuantizedWeight(w.data()), set.Find(w.data()));
    EXPECT_EQ(ts::ActiveQuantizedWeight(a.data()), nullptr);
    return ts::MatMul(a, w);
  }();
  EXPECT_EQ(int8_calls.value(), before + 1);
  EXPECT_FALSE(ts::QuantModeEnabled());
  EXPECT_EQ(ts::ActiveQuantizedWeight(w.data()), nullptr);

  // The quantized answer is approximate but close; outside the guard the
  // very same product is exact fp32 again.
  for (int64_t i = 0; i < quant.rows(); ++i) {
    EXPECT_GT(Cosine(quant.data() + i * quant.cols(),
                     fp32.data() + i * fp32.cols(), quant.cols()),
              0.999);
  }
  ts::Tensor fp32_again = ts::MatMul(a, w);
  EXPECT_EQ(0, std::memcmp(fp32.data(), fp32_again.data(),
                           static_cast<size_t>(fp32.size()) * sizeof(float)));
  EXPECT_EQ(int8_calls.value(), before + 1);
}

TEST(QuantModeTest, NullGuardForcesFp32Scope) {
  Rng rng(56);
  ts::Tensor a = ts::Tensor::RandomUniform(3, 8, 1.0f, &rng);
  ts::Tensor w = ts::Tensor::RandomUniform(8, 4, 1.0f, &rng);
  ts::QuantizedParamSet set;
  set.AddWeight(w.data(), w.rows(), w.cols());
  ts::InferenceModeGuard inference;
  ts::Tensor fp32 = ts::MatMul(a, w);
  ts::QuantModeGuard outer(&set);
  {
    ts::QuantModeGuard escape(nullptr);
    EXPECT_FALSE(ts::QuantModeEnabled());
    ts::Tensor inner = ts::MatMul(a, w);
    EXPECT_EQ(0,
              std::memcmp(fp32.data(), inner.data(),
                          static_cast<size_t>(fp32.size()) * sizeof(float)));
  }
  EXPECT_TRUE(ts::QuantModeEnabled());  // nesting restored the outer set
}

// ---------------------------------------------------------------------------
// Engine-level: fp32 vs int8 over the same checkpoint.

constexpr int64_t kNumNodes = 40;
constexpr int64_t kPredictorHidden = 32;

dgnn::EncoderConfig EngineConfig() {
  dgnn::EncoderConfig config;
  config.num_nodes = kNumNodes;
  // Wide enough that every frozen weight clears the engine's
  // rows >= 2 quantization floor and the kernels run real tiles.
  config.memory_dim = 32;
  config.embed_dim = 32;
  config.time_dim = 8;
  config.num_neighbors = 5;
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

/// Warm reference model + checkpoint, mirroring the serving_test fixture
/// but sized for the quantized kernels.
struct EngineFixture {
  graph::TemporalGraph graph;
  Rng rng{42};
  std::unique_ptr<dgnn::DgnnEncoder> encoder;
  std::unique_ptr<dgnn::LinkPredictor> predictor;
  std::string checkpoint_path;

  explicit EngineFixture(const std::string& name) {
    graph = graph::TemporalGraph::Create(kNumNodes, MakeEvents(7, 160, 0.0))
                .ValueOrDie();
    encoder =
        std::make_unique<dgnn::DgnnEncoder>(EngineConfig(), &graph, &rng);
    predictor = std::make_unique<dgnn::LinkPredictor>(
        EngineConfig().embed_dim, kPredictorHidden, &rng);
    {
      ts::InferenceModeGuard guard;
      encoder->ReplayEvents(graph.events(), /*batch_size=*/16);
    }
    checkpoint_path = ::testing::TempDir() + "quant_" + name + ".ckpt";
    std::vector<ts::Tensor> params = encoder->Parameters();
    std::vector<ts::Tensor> dec = predictor->Parameters();
    params.insert(params.end(), dec.begin(), dec.end());
    ts::SectionWriter writer;
    writer.Add(ts::kParamsSection,
               ts::EncodeTensorList(params).ValueOrDie());
    std::string memory_bytes;
    encoder->memory().SerializeTo(&memory_bytes);
    writer.Add(train::kMemorySection, memory_bytes);
    EXPECT_TRUE(writer.WriteAtomic(checkpoint_path).ok());
  }

  std::unique_ptr<serve::ServingEngine> MakeEngine(
      serve::ServePrecision precision) const {
    serve::ServingOptions options;
    options.precision = precision;
    options.cache_capacity = 0;  // cache off: every embed runs the kernels
    auto engine = serve::ServingEngine::FromCheckpoint(
        EngineConfig(), kPredictorHidden, &graph, checkpoint_path, options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine.value());
  }
};

std::vector<graph::NodeId> AllNodes() {
  std::vector<graph::NodeId> nodes(kNumNodes);
  for (int64_t i = 0; i < kNumNodes; ++i) {
    nodes[static_cast<size_t>(i)] = static_cast<graph::NodeId>(i);
  }
  return nodes;
}

void ExpectEnginesAgree(serve::ServingEngine* fp32,
                        serve::ServingEngine* int8, double min_cosine) {
  const std::vector<graph::NodeId> nodes = AllNodes();
  const double t = 1000.0;
  ts::Tensor a = fp32->Embed(nodes, t).ValueOrDie();
  ts::Tensor b = int8->Embed(nodes, t).ValueOrDie();
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    EXPECT_GT(Cosine(a.data() + i * a.cols(), b.data() + i * b.cols(),
                     a.cols()),
              min_cosine)
        << "node " << nodes[static_cast<size_t>(i)];
  }
  // Link scores must rank the same way they do in fp32 to a loose absolute
  // tolerance — this is the quantity the AUC gate in bench_serving holds.
  std::vector<graph::NodeId> srcs(nodes.begin(), nodes.begin() + 10);
  std::vector<graph::NodeId> dsts(nodes.begin() + 10, nodes.begin() + 20);
  std::vector<double> sa = fp32->ScoreLinks(srcs, dsts, t).ValueOrDie();
  std::vector<double> sb = int8->ScoreLinks(srcs, dsts, t).ValueOrDie();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 0.05);
  }
}

TEST(QuantServingTest, Int8EngineTracksFp32AcrossThreadCounts) {
  EngineFixture fixture("accuracy");
  auto fp32 = fixture.MakeEngine(serve::ServePrecision::kFp32);
  auto int8 = fixture.MakeEngine(serve::ServePrecision::kInt8);
  obs::Counter& int8_calls =
      obs::MetricsRegistry::Global().counter("tensor.matmul.int8_calls");
  const int64_t before = int8_calls.value();
  {
    ThreadCountGuard threads(1);
    ExpectEnginesAgree(fp32.get(), int8.get(), 0.99);
  }
  {
    ThreadCountGuard threads(4);
    ExpectEnginesAgree(fp32.get(), int8.get(), 0.99);
  }
  // The int8 engine actually took the quantized path (and the fp32 engine
  // alone would not have moved the counter).
  EXPECT_GT(int8_calls.value(), before);
  fp32->Shutdown();
  int8->Shutdown();
}

TEST(QuantServingTest, Int8EmbedsAreBitDeterministicAcrossThreadCounts) {
  EngineFixture fixture("determinism");
  auto engine = fixture.MakeEngine(serve::ServePrecision::kInt8);
  const std::vector<graph::NodeId> nodes = AllNodes();
  ts::Tensor one, four;
  {
    ThreadCountGuard threads(1);
    one = engine->Embed(nodes, 500.0).ValueOrDie();
  }
  {
    ThreadCountGuard threads(4);
    four = engine->Embed(nodes, 500.0).ValueOrDie();
  }
  EXPECT_EQ(0, std::memcmp(one.data(), four.data(),
                           static_cast<size_t>(one.size()) * sizeof(float)));
  engine->Shutdown();
}

TEST(QuantServingTest, PrecisionParsing) {
  EXPECT_EQ(serve::ParseServePrecision("fp32").ValueOrDie(),
            serve::ServePrecision::kFp32);
  EXPECT_EQ(serve::ParseServePrecision("int8").ValueOrDie(),
            serve::ServePrecision::kInt8);
  EXPECT_FALSE(serve::ParseServePrecision("int4").ok());
  EXPECT_STREQ(serve::ServePrecisionName(serve::ServePrecision::kFp32),
               "fp32");
  EXPECT_STREQ(serve::ServePrecisionName(serve::ServePrecision::kInt8),
               "int8");
}

TEST(QuantServingTest, LiveFeedAdvanceRacesInt8Queries) {
  EngineFixture fixture("livefeed");
  auto engine = fixture.MakeEngine(serve::ServePrecision::kInt8);
  const int64_t version_before = engine->memory_version();

  std::atomic<bool> stop{false};
  std::atomic<bool> feeder_ok{true};
  std::thread feeder([&] {
    double t = 10000.0;
    for (int batch = 0; batch < 8 && !stop.load(); ++batch) {
      std::vector<graph::Event> events =
          MakeEvents(0x900d + static_cast<uint64_t>(batch), 12, t);
      t = events.back().time + 1.0;
      if (!engine->Advance(events).ok()) {
        feeder_ok.store(false);
        return;
      }
    }
  });

  // Queries race the feeder; every one must succeed (fresh recompute after
  // each invalidation), and the engine must still answer coherently after
  // the churn settles.
  const std::vector<graph::NodeId> nodes = AllNodes();
  for (int i = 0; i < 30; ++i) {
    auto result = engine->Embed(nodes, 50000.0);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ASSERT_EQ(result.ValueOrDie().rows(),
              static_cast<int64_t>(nodes.size()));
  }
  stop.store(true);
  feeder.join();
  EXPECT_TRUE(feeder_ok.load());
  EXPECT_GT(engine->memory_version(), version_before);

  // Post-churn embeds are reproducible: same query twice, same bits.
  ts::Tensor a = engine->Embed(nodes, 60000.0).ValueOrDie();
  ts::Tensor b = engine->Embed(nodes, 60000.0).ValueOrDie();
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.size()) * sizeof(float)));
  engine->Shutdown();
}

}  // namespace
}  // namespace cpdg
