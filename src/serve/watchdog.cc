#include "serve/watchdog.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace cpdg::serve {

Watchdog::Watchdog(Options options, std::vector<Target> targets,
                   std::function<void(int)> restart)
    : options_(options),
      targets_(std::move(targets)),
      restart_(std::move(restart)),
      last_heartbeat_(targets_.size(), 0),
      missed_(targets_.size(), 0) {
  CPDG_CHECK(restart_ != nullptr);
  CPDG_CHECK_GE(options_.max_missed, 1);
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  CPDG_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, options_.interval, [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void Watchdog::Tick() {
  for (size_t i = 0; i < targets_.size(); ++i) {
    const Target& target = targets_[i];
    const int64_t beat = target.heartbeat();
    if (beat != last_heartbeat_[i]) {
      last_heartbeat_[i] = beat;
      missed_[i] = 0;
      continue;
    }
    // No progress: count a miss only while requests are queued. An idle
    // executor (empty queue) never accrues misses.
    if (!target.has_work()) {
      missed_[i] = 0;
      continue;
    }
    if (++missed_[i] < options_.max_missed) continue;
    std::fprintf(stderr,
                 "cpdg-serve watchdog: worker %zu wedged, restarting\n", i);
    restart_(static_cast<int>(i));
    restarts_.fetch_add(1);
    obs::MetricsRegistry::Global().counter("serve.watchdog.restarts").Add();
    missed_[i] = 0;
    last_heartbeat_[i] = target.heartbeat();
  }
}

}  // namespace cpdg::serve
