#ifndef CPDG_SERVE_WATCHDOG_H_
#define CPDG_SERVE_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cpdg::serve {

/// \brief Worker health monitor: detects wedged executor workers and asks
/// the owning engine to restart them.
///
/// Liveness is heartbeat-based. Every executor increments its heartbeat
/// counter whenever it makes progress (pops a batch, finishes a request).
/// The watchdog samples the counters every `interval`; a worker whose
/// counter has not moved for `max_missed` consecutive samples *while it
/// has work queued* is declared wedged. The has-work condition is what
/// separates "wedged" from "idle": an idle executor parked on an empty
/// queue legitimately never ticks.
///
/// The watchdog never restarts workers itself — it invokes the `restart`
/// callback and trusts the engine to drain and replace the worker.
class Watchdog {
 public:
  struct Options {
    std::chrono::milliseconds interval{50};
    /// Samples without progress (while work is queued) before a worker is
    /// declared wedged.
    int max_missed = 5;
  };

  /// \brief Health probes for one worker, all safe to call from the
  /// watchdog thread while the executor runs.
  struct Target {
    std::function<int64_t()> heartbeat;
    std::function<bool()> has_work;
  };

  /// `restart(worker)` is called from the watchdog thread.
  Watchdog(Options options, std::vector<Target> targets,
           std::function<void(int)> restart);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Start();
  /// Stops the monitor thread; idempotent, called by the engine before it
  /// tears workers down so a shutdown drain is never mistaken for a wedge.
  void Stop();

  /// Total restarts triggered (test / metrics hook).
  int64_t restarts() const { return restarts_.load(); }

 private:
  void Loop();
  void Tick();

  const Options options_;
  const std::vector<Target> targets_;
  const std::function<void(int)> restart_;

  /// Last sampled heartbeat and consecutive no-progress count per worker.
  std::vector<int64_t> last_heartbeat_;
  std::vector<int> missed_;

  std::atomic<int64_t> restarts_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace cpdg::serve

#endif  // CPDG_SERVE_WATCHDOG_H_
