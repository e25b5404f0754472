#include "util/thread_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cpdg::util {
namespace {

using ChunkList = std::vector<std::pair<int64_t, int64_t>>;

ChunkList CollectChunks(ThreadPool* pool, int64_t begin, int64_t end,
                        int64_t grain) {
  std::mutex mu;
  ChunkList chunks;
  pool->ParallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Each element belongs to exactly one chunk, and chunks own disjoint
  // ranges, so plain int increments are race-free by construction.
  std::vector<int> counts(1000, 0);
  pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
  });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnGrain) {
  ChunkList expected;
  for (int64_t lo = 3; lo < 100; lo += 7) {
    expected.emplace_back(lo, std::min<int64_t>(100, lo + 7));
  }
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(CollectChunks(&pool, 3, 100, 7), expected)
        << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, SerialFallbackIteratesChunksInOrder) {
  ThreadPool pool(1);
  ChunkList chunks;
  pool.ParallelFor(0, 20, 6, [&](int64_t lo, int64_t hi) {
    chunks.emplace_back(lo, hi);
  });
  EXPECT_EQ(chunks, (ChunkList{{0, 6}, {6, 12}, {12, 18}, {18, 20}}));
}

TEST(ThreadPoolTest, EmptyRangeInvokesNothing) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<int64_t> inner_sums(8, 0);
  pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t slot = lo; slot < hi; ++slot) {
      // The nested call degrades to the serial fallback on this worker;
      // its chunks still cover the range exactly once.
      pool.ParallelFor(0, 100, 9, [&, slot](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) {
          inner_sums[static_cast<size_t>(slot)] += i;
        }
      });
    }
  });
  for (int64_t s : inner_sums) EXPECT_EQ(s, 99 * 100 / 2);
}

TEST(ThreadPoolTest, PerChunkReductionMergesIdenticallyAcrossThreadCounts) {
  // The canonical deterministic-reduction pattern: accumulate per chunk
  // (chunk id = lo / grain), then merge in chunk order. Since chunk
  // boundaries are thread-count independent, the merged float result must
  // be bitwise identical for every pool size.
  constexpr int64_t kN = 10000;
  constexpr int64_t kGrain = 128;
  auto reduce = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<float> partial((kN + kGrain - 1) / kGrain, 0.0f);
    pool.ParallelFor(0, kN, kGrain, [&](int64_t lo, int64_t hi) {
      float acc = 0.0f;
      for (int64_t i = lo; i < hi; ++i) {
        acc += 1.0f / (1.0f + static_cast<float>(i));
      }
      partial[static_cast<size_t>(lo / kGrain)] = acc;
    });
    float total = 0.0f;
    for (float p : partial) total += p;
    return total;
  };
  float serial = reduce(1);
  for (int threads : {2, 4, 8}) {
    float parallel = reduce(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, DefaultNumThreadsHonorsEnvKnob) {
  const char* old = std::getenv("CPDG_NUM_THREADS");
  std::string saved = old != nullptr ? old : "";
  setenv("CPDG_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3);
  setenv("CPDG_NUM_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);
  unsetenv("CPDG_NUM_THREADS");
  // Without the knob the pool is sized by the affinity mask, so `taskset`
  // shrinks it.
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), ThreadPool::AllowedCpus());
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  if (old != nullptr) setenv("CPDG_NUM_THREADS", saved.c_str(), 1);
}

TEST(ThreadPoolTest, GlobalPoolCanBeResized) {
  ThreadPool::SetGlobalNumThreads(2);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 2);
  std::vector<int> counts(64, 0);
  ThreadPool::Global().ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
  });
  for (int c : counts) EXPECT_EQ(c, 1);
  ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
}

/// Restores the calling thread's affinity mask on scope exit.
class AffinityGuard {
 public:
  AffinityGuard() {
    CPU_ZERO(&saved_);
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ~AffinityGuard() {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  bool PinTo(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  }

 private:
  cpu_set_t saved_;
};

/// Runs a region of `n` single-element chunks whose bodies wait until all
/// `n` have started, so each of the pool's `n` threads runs exactly one
/// (a thread holds one chunk at a time). Returns each chunk's CPU.
std::vector<int> RunBarrierRegion(ThreadPool* pool, int n) {
  std::atomic<int> started{0};
  std::vector<int> cpus(static_cast<size_t>(n), -1);
  pool->ParallelFor(0, n, 1, [&](int64_t lo, int64_t) {
    cpus[static_cast<size_t>(lo)] = sched_getcpu();
    started.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (started.load() < n && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(started.load(), n);
  return cpus;
}

TEST(ThreadPoolTest, StripesOfALongRegionRunOnDistinctCpus) {
  constexpr int kThreads = 4;
  if (ThreadPool::AllowedCpus() < kThreads) {
    GTEST_SKIP() << "affinity mask has " << ThreadPool::AllowedCpus()
                 << " CPUs, fewer than " << kThreads;
  }
  AffinityGuard affinity;
  ThreadPool pool(kThreads);
  const std::vector<int>& workers = pool.worker_cpus();
  ASSERT_EQ(workers.size(), static_cast<size_t>(kThreads - 1));
  // The caller runs stripe 0; hold it on a CPU no worker owns (the pool
  // skipped the one it was built on) so migration cannot blur the check.
  int caller_cpu = -1;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  for (int c = 0; c < CPU_SETSIZE && caller_cpu < 0; ++c) {
    if (CPU_ISSET(c, &allowed) &&
        std::find(workers.begin(), workers.end(), c) == workers.end()) {
      caller_cpu = c;
    }
  }
  ASSERT_GE(caller_cpu, 0);
  ASSERT_TRUE(affinity.PinTo(caller_cpu));

  const std::vector<int> cpus = RunBarrierRegion(&pool, kThreads);
  EXPECT_EQ(std::set<int>(cpus.begin(), cpus.end()).size(),
            static_cast<size_t>(kThreads));
  EXPECT_EQ(std::count(cpus.begin(), cpus.end(), caller_cpu), 1);
}

TEST(ThreadPoolTest, KeepOffCallerCpuDropsOnlyTheCallersCpu) {
  const int allowed = ThreadPool::AllowedCpus();
  if (allowed < 2) {
    GTEST_SKIP() << "affinity mask has one CPU; nothing to keep off";
  }
  std::atomic<bool> go{false};
  int helper_cpu = -1;
  std::thread helper([&] {
    while (!go.load()) std::this_thread::yield();
    helper_cpu = sched_getcpu();
  });
  const int before = sched_getcpu();
  ThreadPool::KeepOffCallerCpu(&helper);
  const int after = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  const int got = pthread_getaffinity_np(helper.native_handle(), sizeof(set),
                                         &set);
  go.store(true);
  helper.join();
  ASSERT_EQ(got, 0);
  EXPECT_EQ(CPU_COUNT(&set), allowed - 1);
  EXPECT_TRUE(CPU_ISSET(helper_cpu, &set));
  // The caller may migrate during the call; when it did not, its CPU is
  // the one left out.
  if (before == after) EXPECT_FALSE(CPU_ISSET(before, &set));
}

TEST(ThreadPoolTest, WorkUnitsCapParticipants) {
  // No HotScope, so the workers park between regions and a participant
  // costs kColdFloorFactor work units.
  ThreadPool pool(4);
  for (int cap : {1, 2, 3, 4}) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    std::vector<int> counts(64, 0);
    const ThreadPoolMetrics before = ThreadPool::ReadMetrics();
    pool.ParallelFor(
        0, 64, 1,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
          std::lock_guard<std::mutex> lk(mu);
          threads.insert(std::this_thread::get_id());
        },
        cap * ThreadPool::kColdFloorFactor);
    const ThreadPoolMetrics after = ThreadPool::ReadMetrics();
    for (int c : counts) EXPECT_EQ(c, 1);
    EXPECT_LE(threads.size(), static_cast<size_t>(cap)) << "cap=" << cap;
    if (cap == 1) {
      EXPECT_EQ(after.regions_inline - before.regions_inline, 1);
      EXPECT_EQ(after.regions_dispatched, before.regions_dispatched);
    } else {
      // Workers that wake after the caller claimed every chunk stay out.
      EXPECT_EQ(after.regions_dispatched - before.regions_dispatched, 1);
      EXPECT_GE(after.participants - before.participants, 1);
      EXPECT_LE(after.participants - before.participants, cap);
    }
  }
}

// Hot workers spin between regions; the waits must still hand every chunk
// over exactly once, whether a region arrives within the spin window, after
// the workers parked, or while the pool is torn down.
TEST(ThreadPoolTest, BackToBackRegionsComplete) {
  ThreadPool::HotScope hot;
  ThreadPool pool(4);
  std::vector<int64_t> sums(4, 0);
  for (int r = 0; r < 2000; ++r) {
    pool.ParallelFor(0, 4, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) sums[static_cast<size_t>(i)] += i;
    });
  }
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sums[static_cast<size_t>(i)], 2000 * i);
  }
}

TEST(ThreadPoolTest, RegionAfterIdleCompletes) {
  for (bool hot : {false, true}) {
    std::optional<ThreadPool::HotScope> scope;
    if (hot) scope.emplace();
    ThreadPool pool(4);
    const ThreadPoolMetrics before = ThreadPool::ReadMetrics();
    for (int r = 0; r < 3; ++r) {
      // Longer than the spin window, so every worker has parked.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      RunBarrierRegion(&pool, 4);
    }
    const ThreadPoolMetrics after = ThreadPool::ReadMetrics();
    EXPECT_GT(after.parks, before.parks) << "hot=" << hot;
    int64_t wakes = 0;
    for (int b = 0; b < ThreadPoolMetrics::kWakeBuckets; ++b) {
      wakes += after.wake_us[b] - before.wake_us[b];
    }
    // One timed wake per worker stripe: 3 regions x 3 workers.
    EXPECT_EQ(wakes, 9) << "hot=" << hot;
  }
}

TEST(ThreadPoolTest, DestroyingAPoolWithAwakeWorkersCompletes) {
  ThreadPool::HotScope hot;
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    int calls = 0;
    std::mutex mu;
    pool.ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
      std::lock_guard<std::mutex> lk(mu);
      ++calls;
    });
    EXPECT_EQ(calls, 4);
    // The destructor runs while the workers are still spinning.
  }
}

}  // namespace
}  // namespace cpdg::util
