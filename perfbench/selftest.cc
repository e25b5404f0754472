// Tests of the benchmark's own helpers: the span self-time fold behind the
// per-layer table, the seeded traffic generators, quantiles and the result
// line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "harness.h"
#include "loadgen.h"

namespace cpdg::perfbench {
namespace {

obs::SpanEvent Span(const char* name, int64_t start, int64_t dur, int32_t tid,
                    int32_t depth) {
  obs::SpanEvent e;
  e.name = name;
  e.start_us = start;
  e.dur_us = dur;
  e.tid = tid;
  e.depth = depth;
  return e;
}

TEST(SelfTimeTest, FoldsHandBuiltNestedSpans) {
  // Thread 1: root [0,100) holds a [10,40) (which holds leaf [15,25)) and
  // b [50,90). Thread 2: root [0,50) whose child [5,60) overruns it by 10.
  // Input deliberately out of order.
  std::vector<obs::SpanEvent> spans = {
      Span("layer/b", 50, 40, 1, 1),        Span("layer/leaf", 15, 10, 1, 2),
      Span("perfbench/root", 0, 100, 1, 0), Span("layer/a", 10, 30, 1, 1),
      Span("layer/a", 5, 55, 2, 1),         Span("perfbench/root", 0, 50, 2, 0),
  };
  const std::map<std::string, int64_t> self = SelfTimeByName(spans);
  // root: 100 - 30 - 40 on thread 1, plus 50 - 45 (clipped child) on 2.
  EXPECT_EQ(self.at("perfbench/root"), 30 + 5);
  // a: 30 - 10 on thread 1, plus the whole 55 on thread 2.
  EXPECT_EQ(self.at("layer/a"), 20 + 55);
  EXPECT_EQ(self.at("layer/leaf"), 10);
  EXPECT_EQ(self.at("layer/b"), 40);

  const std::map<std::string, int64_t> layers = SelfTimeByLayer(self);
  EXPECT_EQ(layers.at("layer"), 75 + 10 + 40);
  EXPECT_EQ(layers.at(kUnattributed), 35);
}

TEST(SelfTimeTest, SiblingsAndThreadsDoNotNest) {
  // Back-to-back siblings at one depth, and a span on another thread that
  // overlaps in time, are never children of each other.
  std::vector<obs::SpanEvent> spans = {
      Span("x/first", 0, 10, 1, 0), Span("x/second", 10, 10, 1, 0),
      Span("x/other", 2, 30, 2, 0), Span("x/inner", 12, 3, 1, 1),
  };
  const std::map<std::string, int64_t> self = SelfTimeByName(spans);
  EXPECT_EQ(self.at("x/first"), 10);
  EXPECT_EQ(self.at("x/second"), 7);
  EXPECT_EQ(self.at("x/other"), 30);
  EXPECT_EQ(self.at("x/inner"), 3);
}

TEST(SelfTimeTest, LayerNamesComeFromTheSpanPrefix) {
  EXPECT_EQ(LayerOf("tensor/matmul_fwd"), "tensor");
  EXPECT_EQ(LayerOf("serve/advance_barrier"), "serve");
  EXPECT_EQ(LayerOf("perfbench/core_pretrain"), kUnattributed);
  EXPECT_EQ(LayerOf("no_prefix"), kUnattributed);
}

std::vector<graph::Event> ChainEvents(int64_t n) {
  // Node k (0 <= k < n) is both endpoints of k + 1 events (k, k).
  std::vector<graph::Event> events;
  for (int64_t k = 0; k < n; ++k) {
    for (int64_t i = 0; i <= k; ++i) {
      graph::Event e;
      e.src = k;
      e.dst = k;
      e.time = static_cast<double>(events.size());
      events.push_back(e);
    }
  }
  return events;
}

TEST(ActivitySamplerTest, SameSeedSameDraws) {
  const ActivitySampler sampler(ChainEvents(50));
  Rng a(3), b(3), c(4);
  int differ = 0;
  for (int i = 0; i < 2000; ++i) {
    const graph::NodeId x = sampler.Sample(&a);
    ASSERT_EQ(x, sampler.Sample(&b));
    differ += x != sampler.Sample(&c);
  }
  EXPECT_GT(differ, 1000);
}

TEST(ActivitySamplerTest, FrequenciesFollowActivity) {
  const int64_t n = 20;
  const ActivitySampler sampler(ChainEvents(n));
  EXPECT_EQ(sampler.distinct(), n);
  Rng rng(5);
  std::vector<int64_t> counts(n, 0);
  const int draws = 210000;
  for (int i = 0; i < draws; ++i) {
    const graph::NodeId id = sampler.Sample(&rng);
    ASSERT_GE(id, 0);
    ASSERT_LT(id, n);
    ++counts[static_cast<size_t>(id)];
  }
  // Node k takes (k + 1) / (n (n + 1) / 2) of the draws.
  const double total = static_cast<double>(n * (n + 1) / 2);
  for (int64_t k : {int64_t{0}, int64_t{9}, n - 1}) {
    EXPECT_NEAR(counts[static_cast<size_t>(k)] / static_cast<double>(draws),
                static_cast<double>(k + 1) / total, 0.004);
  }
}

TEST(LeastStolenTest, KeepsTheLeastStolenShareInOrder) {
  EXPECT_EQ(LeastStolen({0.05, 0.0, 0.2, 0.01, 0.0}, 0.5),
            (std::vector<size_t>{1, 3, 4}));
  EXPECT_EQ(LeastStolen({0.0, 0.0, 0.0, 0.0}, 0.5),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(LeastStolen({0.05, 0.0, 0.2, 0.01, 0.0, 0.3, 0.1, 0.02}, 0.25),
            (std::vector<size_t>{1, 4}));
  EXPECT_EQ(LeastStolen({0.3, 0.1, 0.2}, 0.25), (std::vector<size_t>{1}));
  EXPECT_EQ(LeastStolen({0.3}, 0.25), (std::vector<size_t>{0}));
  EXPECT_TRUE(LeastStolen({}, 0.5).empty());
}

TEST(PoissonTest, SameSeedSameSchedule) {
  Rng a(42), b(42), c(43);
  const std::vector<int64_t> x = PoissonArrivalsUs(5000, 2.0, &a);
  EXPECT_EQ(x, PoissonArrivalsUs(5000, 2.0, &b));
  EXPECT_NE(x, PoissonArrivalsUs(5000, 2.0, &c));
}

TEST(PoissonTest, RateAndOrder) {
  Rng rng(9);
  const double rate = 8000, seconds = 5.0;
  const std::vector<int64_t> at = PoissonArrivalsUs(rate, seconds, &rng);
  const double expected = rate * seconds;
  EXPECT_NEAR(static_cast<double>(at.size()), expected,
              5 * std::sqrt(expected));
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
  EXPECT_GE(at.front(), 0);
  EXPECT_LT(at.back(), static_cast<int64_t>(seconds * 1e6));
  // Exponential gaps: the coefficient of variation is 1.
  double sum = 0, sq = 0;
  for (size_t i = 1; i < at.size(); ++i) {
    const double gap = static_cast<double>(at[i] - at[i - 1]);
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(at.size() - 1);
  const double mean = sum / n;
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean) / mean, 1.0, 0.05);
}

TEST(HarnessTest, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({0, 10}, 0.99), 9.9);
}

TEST(HarnessTest, ResultLineHasTheFourKeys) {
  Report report;
  report.Set("p50_ms", 0.25, "ms");
  report.Set("p50_ms", 0.5, "ms");  // overwrites in place
  report.Count(10, 1);
  EXPECT_EQ(report.ToJson(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"p50_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}}");
  report.Fail("check");
  EXPECT_FALSE(report.correct());
}

}  // namespace
}  // namespace cpdg::perfbench
