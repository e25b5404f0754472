#ifndef CPDG_UTIL_THREAD_POOL_H_
#define CPDG_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cpdg::util {

/// \brief Process-wide counters summed over every ThreadPool since start;
/// a snapshot returned by ThreadPool::ReadMetrics().
struct ThreadPoolMetrics {
  /// A stripe is one participant's share of a region. Wake latency runs
  /// from a region's publish to a worker's stripe start: bucket 0 counts
  /// stripes that started within 1 us, bucket b within (2^(b-1), 2^b] us,
  /// and the last bucket everything slower.
  static constexpr int kWakeBuckets = 14;
  /// Stripes started per CPU id; higher ids fold into the last slot.
  static constexpr int kMaxCpus = 64;

  int64_t regions_dispatched = 0;  ///< regions that woke workers
  int64_t regions_inline = 0;      ///< ParallelFor calls run serially
  int64_t participants = 0;  ///< threads that ran chunks, summed
  int64_t spin_hits = 0;  ///< worker waits a spinning worker saw end
  int64_t parks = 0;      ///< worker waits that blocked on a condvar
  int64_t late_arrivals = 0;  ///< workers woken after all chunks went
  int64_t wake_us[kWakeBuckets] = {};
  int64_t stripes_by_cpu[kMaxCpus] = {};

  /// One-line human-readable summary, as the benches print it.
  std::string Summary() const;
};

/// Counters accumulated between two snapshots.
ThreadPoolMetrics operator-(const ThreadPoolMetrics& after,
                            const ThreadPoolMetrics& before);

/// \brief Fixed-size worker pool with a deterministic data-parallel
/// primitive.
///
/// The determinism contract: ParallelFor splits [begin, end) into chunks of
/// exactly `grain` elements (the last chunk may be shorter). Chunk
/// boundaries depend only on (begin, end, grain) — never on the worker
/// count, the participant count or scheduling — so any kernel where each
/// chunk owns a disjoint slice of its output produces bitwise-identical
/// results at every thread count, including the fully serial fallback.
/// Participants claim chunks from a shared counter, so a participant that
/// wakes late or loses its CPU leaves its share to the others; which thread
/// runs a chunk never shows in the output.
///
/// Placement: each worker is pinned to a CPU of its own, taken from the
/// building thread's affinity mask with that thread's current CPU skipped
/// (the caller runs its stripe there). A mask smaller than the pool wraps
/// around; a one-CPU mask pins nothing. `taskset` or a cpuset is the way to
/// confine the pool.
///
/// Wake policy: an idle worker parks on its own condvar. While a HotScope
/// is alive and every worker has a CPU to itself, a worker first spins for
/// up to kSpinMicros on the published region generation, and the caller
/// spins on the completion count, so back-to-back regions skip the
/// cross-CPU wake-up. Unpinned or CPU-sharing workers never spin.
///
/// Nested ParallelFor calls (from inside a chunk body) degrade to the
/// serial fallback on the calling thread, so parallel outer loops (e.g.
/// per-seed benchmark cells) can freely invoke parallel tensor kernels
/// without deadlock; the inner kernels run serially inside each worker.
class ThreadPool {
 public:
  using ChunkFn = std::function<void(int64_t, int64_t)>;

  /// Spin window of a hot worker (and a hot caller) before it parks.
  static constexpr int64_t kSpinMicros = 100;
  /// Waking a parked worker costs about ten times more than handing a
  /// region to a spinning one (17 us against 1.3 us for an empty 4-thread
  /// region on a 4-vCPU KVM guest), so outside a hot stretch a region
  /// enlists one participant per kColdFloorFactor work units.
  static constexpr int64_t kColdFloorFactor = 8;

  /// Total parallelism including the calling thread: a pool of size P
  /// spawns P-1 worker threads and the caller takes a share of every
  /// region.
  /// num_threads == 1 spawns nothing and runs everything serially.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// CPU each worker is pinned to (worker w at index w-1); empty when the
  /// pool pins nothing.
  const std::vector<int>& worker_cpus() const { return worker_cpus_; }

  /// \brief Invokes fn(chunk_begin, chunk_end) for every grain-sized chunk
  /// of [begin, end). Blocks until all chunks have run. The serial fallback
  /// iterates the identical chunk sequence in order, so per-chunk
  /// reductions merge identically at any thread count.
  ///
  /// `work_units` is the region's work over the caller's per-participant
  /// floor: the region enlists one participant (the caller included) per
  /// unit while the workers spin, and one per kColdFloorFactor units
  /// otherwise, so it wakes only as many threads as the work pays for.
  /// Fewer than one participant's worth runs inline.
  void ParallelFor(
      int64_t begin, int64_t end, int64_t grain, const ChunkFn& fn,
      int64_t work_units = std::numeric_limits<int64_t>::max());

  /// \brief Marks a stretch where regions come back to back (a training
  /// run): while any HotScope is alive on any thread, pinned workers spin
  /// before parking. Outside, they park as soon as a region ends.
  class HotScope {
   public:
    HotScope();
    ~HotScope();
    HotScope(const HotScope&) = delete;
    HotScope& operator=(const HotScope&) = delete;
  };

  /// \brief Process-wide pool used by the tensor kernels and the seed
  /// fan-out; sized by DefaultNumThreads() on first use.
  static ThreadPool& Global();

  /// \brief Replaces the global pool with one of the given size. Intended
  /// for benchmarks that sweep thread counts; must not be called while
  /// parallel work is in flight.
  static void SetGlobalNumThreads(int num_threads);

  /// \brief CPDG_NUM_THREADS environment knob if set (>= 1; 1 means fully
  /// serial), otherwise AllowedCpus().
  static int DefaultNumThreads();

  /// \brief CPUs in the calling thread's affinity mask (what `nproc`
  /// reports); at least 1.
  static int AllowedCpus();

  /// \brief Restricts helper thread `t` to the calling thread's affinity
  /// mask without the calling thread's current CPU; a one-CPU mask is left
  /// as it is. A woken thread may otherwise run on its waker's CPU and take
  /// turns with it instead of overlapping it.
  static void KeepOffCallerCpu(std::thread* t);

  static ThreadPoolMetrics ReadMetrics();

 private:
  /// One in-flight ParallelFor region, on the caller's stack.
  struct Region {
    const ChunkFn* fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 0;
    int64_t num_chunks = 0;
    int64_t publish_ns = 0;
    std::atomic<int64_t> next_chunk{0};  // claimed by every participant
  };

  /// One worker's parking spot, on its own cache line.
  struct alignas(64) Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
  };

  void WorkerLoop(int worker_id);
  /// Returns the first published word that differs from `seen`.
  uint64_t WaitForRegion(Slot* slot, uint64_t seen);
  /// Joins the region published as `word` if it is still open.
  bool TryEnter(uint64_t word);
  void WaitForWorkers();
  bool SpinAllowed() const;
  static void RunChunks(Region* region);

  const int num_threads_;
  std::vector<int> worker_cpus_;
  /// True when every worker is pinned to a CPU no other pool thread uses.
  /// Atomic: workers may read it while the constructor still pins.
  std::atomic<bool> exclusive_cpus_{false};
  std::unique_ptr<Slot[]> slots_;
  std::vector<std::thread> workers_;

  /// Held by the thread whose region is in flight.
  std::mutex launch_mu_;
  uint64_t launches_ = 0;     // guarded by launch_mu_
  Region* region_ = nullptr;  // read only by workers inside the region
  /// (launch count << 16) | participants: what workers wait on.
  std::atomic<uint64_t> gen_{0};
  /// (launch tag << 32) | closed bit | workers inside. A worker enters
  /// (and may dereference `region_`) only while the tag matches and the
  /// region is open; the caller returns once it is closed and empty.
  std::atomic<uint64_t> entry_{0};
  std::atomic<bool> stop_{false};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<bool> caller_parked_{false};
};

}  // namespace cpdg::util

#endif  // CPDG_UTIL_THREAD_POOL_H_
