#include "util/thread_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/check.h"

namespace cpdg::util {
namespace {

// gen_: (launch count << kParticipantBits) | participants.
constexpr int kParticipantBits = 16;
constexpr uint64_t kParticipantMask = (uint64_t{1} << kParticipantBits) - 1;
// entry_: (low 32 bits of the launch count << kTagShift) | kClosed |
// number of workers inside the region.
constexpr int kTagShift = 32;
constexpr uint64_t kTagMask = 0xffffffffu;
constexpr uint64_t kClosed = uint64_t{1} << 31;
constexpr uint64_t kCountMask = kClosed - 1;

/// True on pool worker threads, and on the calling thread while it runs
/// its share of a region (its stripe): any ParallelFor issued from such a
/// context runs serially inline instead of re-entering the pool.
thread_local bool tls_inside_parallel_region = false;

std::atomic<int> g_hot_scopes{0};

/// Relaxed process-wide counters behind ThreadPool::ReadMetrics().
struct Stats {
  std::atomic<int64_t> regions_dispatched{0};
  std::atomic<int64_t> regions_inline{0};
  std::atomic<int64_t> participants{0};
  std::atomic<int64_t> spin_hits{0};
  std::atomic<int64_t> parks{0};
  std::atomic<int64_t> late_arrivals{0};
  std::atomic<int64_t> wake_us[ThreadPoolMetrics::kWakeBuckets] = {};
  std::atomic<int64_t> stripes_by_cpu[ThreadPoolMetrics::kMaxCpus] = {};
};

Stats& GlobalStats() {
  static Stats stats;
  return stats;
}

void Bump(std::atomic<int64_t>& counter, int64_t delta = 1) {
  counter.fetch_add(delta, std::memory_order_relaxed);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

void RecordStripeStart() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  Bump(GlobalStats().stripes_by_cpu[std::min(
      cpu, ThreadPoolMetrics::kMaxCpus - 1)]);
}

void RecordWake(int64_t ns) {
  const int64_t us = (ns + 999) / 1000;
  int bucket = 0;
  while (bucket + 1 < ThreadPoolMetrics::kWakeBuckets &&
         (int64_t{1} << bucket) < us) {
    ++bucket;
  }
  Bump(GlobalStats().wake_us[bucket]);
}

std::vector<int> AllowedCpuList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool PinThread(std::thread* t, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(t->native_handle(), sizeof(set), &set) == 0;
}

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::HotScope::HotScope() {
  g_hot_scopes.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::HotScope::~HotScope() {
  g_hot_scopes.fetch_sub(1, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads),
      slots_(std::make_unique<Slot[]>(static_cast<size_t>(num_threads))) {
  CPDG_CHECK_GE(num_threads, 1);
  CPDG_CHECK_LE(num_threads, static_cast<int>(kParticipantMask));
  const int num_workers = num_threads_ - 1;
  std::vector<int> cpus = AllowedCpuList();
  if (num_workers > 0 && cpus.size() > 1) {
    // The building thread usually issues the regions and runs its stripe
    // where it is now, so its CPU goes to no worker.
    const int self = sched_getcpu();
    auto it = std::find(cpus.begin(), cpus.end(), self);
    if (it != cpus.end()) cpus.erase(it);
    for (int w = 0; w < num_workers; ++w) {
      worker_cpus_.push_back(cpus[static_cast<size_t>(w) % cpus.size()]);
    }
    exclusive_cpus_.store(num_workers <= static_cast<int>(cpus.size()),
                          std::memory_order_relaxed);
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
    if (!worker_cpus_.empty() &&
        !PinThread(&workers_.back(),
                   worker_cpus_[static_cast<size_t>(w - 1)])) {
      // A cpuset refused the CPU: never spin.
      exclusive_cpus_.store(false, std::memory_order_relaxed);
    }
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  for (int w = 1; w < num_threads_; ++w) {
    std::lock_guard<std::mutex> lk(slots_[w].mu);
    slots_[w].cv.notify_one();
  }
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::SpinAllowed() const {
  return exclusive_cpus_.load(std::memory_order_relaxed) &&
         g_hot_scopes.load(std::memory_order_relaxed) > 0;
}

void ThreadPool::RunChunks(Region* region) {
  for (int64_t c;
       (c = region->next_chunk.fetch_add(1, std::memory_order_relaxed)) <
       region->num_chunks;) {
    const int64_t chunk_begin = region->begin + c * region->grain;
    (*region->fn)(chunk_begin,
                  std::min(region->end, chunk_begin + region->grain));
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const ChunkFn& fn, int64_t work_units) {
  CPDG_CHECK_GE(grain, 1);
  if (end <= begin) return;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  if (!SpinAllowed()) work_units /= kColdFloorFactor;
  const int participants = static_cast<int>(
      std::min<int64_t>({int64_t{num_threads_}, num_chunks,
                         std::max<int64_t>(1, work_units)}));

  // Serial fallback: one participant (single-threaded pool, a single
  // chunk, or work too small to pay for a wake-up), a nested call from
  // inside a running region, or another thread's region in flight (running
  // inline beats queueing behind it). Iterates the identical chunk
  // sequence, so per-chunk results (and any per-chunk reductions the
  // caller merges) are bitwise identical to the parallel path.
  std::unique_lock<std::mutex> launch_lk(launch_mu_, std::defer_lock);
  if (participants == 1 || tls_inside_parallel_region ||
      !launch_lk.try_lock()) {
    Bump(GlobalStats().regions_inline);
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t chunk_begin = begin + c * grain;
      fn(chunk_begin, std::min(end, chunk_begin + grain));
    }
    return;
  }

  Region region;
  region.fn = &fn;
  region.begin = begin;
  region.end = end;
  region.grain = grain;
  region.num_chunks = num_chunks;
  region.publish_ns = NowNs();
  region_ = &region;
  const uint64_t launch = ++launches_;
  entry_.store((launch & kTagMask) << kTagShift, std::memory_order_release);
  gen_.store((launch << kParticipantBits) |
                 static_cast<uint64_t>(participants),
             std::memory_order_seq_cst);
  // Only participants are woken; a parked worker re-checks gen_ under its
  // own mutex, so this notify cannot slip between its check and its wait.
  for (int w = 1; w < participants; ++w) {
    Slot& slot = slots_[w];
    if (slot.parked.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(slot.mu);
      slot.cv.notify_one();
    }
  }
  Stats& stats = GlobalStats();
  Bump(stats.regions_dispatched);
  Bump(stats.participants);

  tls_inside_parallel_region = true;
  RecordStripeStart();
  RunChunks(&region);
  tls_inside_parallel_region = false;

  // Every chunk is claimed. Close the region to late workers and wait only
  // for those still running a chunk.
  if ((entry_.fetch_or(kClosed, std::memory_order_seq_cst) & kCountMask) !=
      0) {
    WaitForWorkers();
  }
}

void ThreadPool::WaitForWorkers() {
  auto entered = [this](std::memory_order order) {
    return entry_.load(order) & kCountMask;
  };
  if (SpinAllowed()) {
    const int64_t deadline = NowNs() + kSpinMicros * 1000;
    for (int64_t i = 1;; ++i) {
      if (entered(std::memory_order_acquire) == 0) return;
      CpuRelax();
      if (i % 64 == 0 && NowNs() > deadline) break;
    }
  }
  std::unique_lock<std::mutex> lk(done_mu_);
  caller_parked_.store(true, std::memory_order_seq_cst);
  while (entered(std::memory_order_seq_cst) != 0) done_cv_.wait(lk);
  caller_parked_.store(false, std::memory_order_relaxed);
}

uint64_t ThreadPool::WaitForRegion(Slot* slot, uint64_t seen) {
  Stats& stats = GlobalStats();
  if (SpinAllowed()) {
    const int64_t deadline = NowNs() + kSpinMicros * 1000;
    for (int64_t i = 1;; ++i) {
      const uint64_t word = gen_.load(std::memory_order_acquire);
      if (word != seen || stop_.load(std::memory_order_relaxed)) {
        Bump(stats.spin_hits);
        return word;
      }
      CpuRelax();
      if (i % 64 == 0 && NowNs() > deadline) break;
    }
  }
  std::unique_lock<std::mutex> lk(slot->mu);
  slot->parked.store(true, std::memory_order_seq_cst);
  uint64_t word;
  while ((word = gen_.load(std::memory_order_seq_cst)) == seen &&
         !stop_.load(std::memory_order_seq_cst)) {
    slot->cv.wait(lk);
  }
  slot->parked.store(false, std::memory_order_relaxed);
  Bump(stats.parks);
  return word;
}

bool ThreadPool::TryEnter(uint64_t word) {
  const uint64_t tag =
      ((word >> kParticipantBits) & kTagMask) << kTagShift;
  uint64_t entry = entry_.load(std::memory_order_acquire);
  while ((entry & ~kCountMask) == tag) {  // this region, still open
    if (entry_.compare_exchange_weak(entry, entry + 1,
                                     std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int worker_id) {
  tls_inside_parallel_region = true;
  Slot* slot = &slots_[worker_id];
  Stats& stats = GlobalStats();
  uint64_t seen = 0;
  while (true) {
    seen = WaitForRegion(slot, seen);
    if (stop_.load(std::memory_order_acquire)) return;
    if (worker_id >= static_cast<int>(seen & kParticipantMask)) continue;
    // A region is entered only while it is open; once the caller closes
    // it, it may be gone, so a late worker must not touch it.
    if (!TryEnter(seen)) {
      Bump(stats.late_arrivals);
      continue;
    }
    Region* region = region_;
    RecordWake(NowNs() - region->publish_ns);
    RecordStripeStart();
    Bump(stats.participants);
    RunChunks(region);
    // The last worker out of a closed region wakes a parked caller.
    if ((entry_.fetch_sub(1, std::memory_order_seq_cst) & kCountMask) == 1 &&
        caller_parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(done_mu_);
      done_cv_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultNumThreads());
  return *slot;
}

void ThreadPool::SetGlobalNumThreads(int num_threads) {
  CPDG_CHECK_GE(num_threads, 1);
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  slot.reset();  // join the old workers before pinning new ones
  slot = std::make_unique<ThreadPool>(num_threads);
}

int ThreadPool::DefaultNumThreads() {
  if (const char* v = std::getenv("CPDG_NUM_THREADS")) {
    long n = std::atol(v);
    if (n >= 1) return static_cast<int>(std::min<long>(n, 256));
  }
  return AllowedCpus();
}

int ThreadPool::AllowedCpus() {
  return std::max<int>(1, static_cast<int>(AllowedCpuList().size()));
}

void ThreadPool::KeepOffCallerCpu(std::thread* t) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 2) {
    return;
  }
  const int self = sched_getcpu();
  if (self < 0 || self >= CPU_SETSIZE) return;
  CPU_CLR(self, &set);
  // Best effort: a refused mask leaves the thread where the kernel put it.
  pthread_setaffinity_np(t->native_handle(), sizeof(set), &set);
}

ThreadPoolMetrics ThreadPool::ReadMetrics() {
  const Stats& s = GlobalStats();
  auto read = [](const std::atomic<int64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  ThreadPoolMetrics m;
  m.regions_dispatched = read(s.regions_dispatched);
  m.regions_inline = read(s.regions_inline);
  m.participants = read(s.participants);
  m.spin_hits = read(s.spin_hits);
  m.parks = read(s.parks);
  m.late_arrivals = read(s.late_arrivals);
  for (int b = 0; b < ThreadPoolMetrics::kWakeBuckets; ++b) {
    m.wake_us[b] = read(s.wake_us[b]);
  }
  for (int c = 0; c < ThreadPoolMetrics::kMaxCpus; ++c) {
    m.stripes_by_cpu[c] = read(s.stripes_by_cpu[c]);
  }
  return m;
}

ThreadPoolMetrics operator-(const ThreadPoolMetrics& after,
                            const ThreadPoolMetrics& before) {
  ThreadPoolMetrics m = after;
  m.regions_dispatched -= before.regions_dispatched;
  m.regions_inline -= before.regions_inline;
  m.participants -= before.participants;
  m.spin_hits -= before.spin_hits;
  m.parks -= before.parks;
  m.late_arrivals -= before.late_arrivals;
  for (int b = 0; b < ThreadPoolMetrics::kWakeBuckets; ++b) {
    m.wake_us[b] -= before.wake_us[b];
  }
  for (int c = 0; c < ThreadPoolMetrics::kMaxCpus; ++c) {
    m.stripes_by_cpu[c] -= before.stripes_by_cpu[c];
  }
  return m;
}

std::string ThreadPoolMetrics::Summary() const {
  // Upper edge (us) of the wake-latency bucket holding quantile q.
  auto wake_quantile_us = [this](double q) {
    int64_t total = 0;
    for (int64_t n : wake_us) total += n;
    int64_t seen = 0;
    for (int b = 0; b < kWakeBuckets; ++b) {
      seen += wake_us[b];
      if (total > 0 &&
          static_cast<double>(seen) >= q * static_cast<double>(total)) {
        return int64_t{1} << b;
      }
    }
    return int64_t{0};
  };
  std::ostringstream out;
  out << "pool: " << regions_dispatched << " regions dispatched, "
      << regions_inline << " inline";
  if (regions_dispatched > 0) {
    out << "; " << static_cast<double>(participants) /
                       static_cast<double>(regions_dispatched)
        << " participants/region";
  }
  out << "; worker waits: " << spin_hits << " spin hits, " << parks
      << " parks, " << late_arrivals << " late; wake p50 <= "
      << wake_quantile_us(0.5) << " us, p99 <= " << wake_quantile_us(0.99)
      << " us; stripes by cpu:";
  for (int c = 0; c < kMaxCpus; ++c) {
    if (stripes_by_cpu[c] != 0) out << " " << c << ":" << stripes_by_cpu[c];
  }
  return out.str();
}

}  // namespace cpdg::util
