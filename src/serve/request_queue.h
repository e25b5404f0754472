#ifndef CPDG_SERVE_REQUEST_QUEUE_H_
#define CPDG_SERVE_REQUEST_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace cpdg::serve {

/// \brief Embedding answer plus its serving provenance: which memory
/// version the rows were computed at, whether they were served from a
/// stale cache generation under deadline pressure, and the end-to-end
/// latency the executor measured.
struct EmbedResponse {
  tensor::Tensor embeddings;  // [n, embed_dim]
  bool stale = false;
  uint64_t memory_version = 0;
  int64_t latency_us = 0;
};

/// \brief Link-probability answer with the same provenance fields.
struct ScoreResponse {
  std::vector<double> probabilities;
  bool stale = false;
  uint64_t memory_version = 0;
  int64_t latency_us = 0;
};

/// \brief One pending client call, parked on a promise until an executor
/// worker fulfills it. Exactly one of the promises is used, selected by
/// `kind`.
struct Request {
  enum class Kind { kEmbed, kScoreLinks };

  Kind kind = Kind::kEmbed;

  /// kEmbed: query nodes. kScoreLinks: link sources.
  std::vector<graph::NodeId> nodes;
  /// kScoreLinks only: link destinations (same length as `nodes`).
  std::vector<graph::NodeId> dsts;
  /// Query time t.
  double time = 0.0;

  std::promise<Result<EmbedResponse>> embed_result;
  std::promise<Result<ScoreResponse>> score_result;

  /// Enqueue timestamp (obs::Profiler::NowMicros clock) for latency
  /// accounting and deadline-budget math.
  int64_t enqueue_us = 0;
  /// Absolute expiry on the same clock; 0 = no deadline. Expired requests
  /// are answered kDeadlineExceeded instead of being computed.
  int64_t deadline_us = 0;
};

/// \brief What a full queue does with a new request.
enum class OverloadPolicy {
  kReject,     ///< fail the new request with kResourceExhausted
  kShedOldest, ///< drop the oldest queued request(s) to admit the new one
  kBlock,      ///< block the producer until space frees up
};

/// Parses "reject" / "shed-oldest" / "block" (the CPDG_SERVE_OVERLOAD
/// vocabulary).
inline Result<OverloadPolicy> ParseOverloadPolicy(const std::string& name) {
  if (name == "reject") return OverloadPolicy::kReject;
  if (name == "shed-oldest") return OverloadPolicy::kShedOldest;
  if (name == "block") return OverloadPolicy::kBlock;
  return Status::InvalidArgument(
      "unknown overload policy \"" + name +
      "\" (expected reject|shed-oldest|block)");
}

inline const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kReject:
      return "reject";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
    case OverloadPolicy::kBlock:
      return "block";
  }
  return "unknown";
}

/// \brief Admission verdict of Push; [[nodiscard]] so no caller can drop a
/// rejected or shut-down request on the floor without failing its promise.
enum class [[nodiscard]] PushOutcome { kAccepted, kRejected, kShutdown };

/// \brief Thread-safe FIFO that coalesces waiting requests into batches,
/// bounded by an admission-control limit.
///
/// Producers (any number of client threads) Push; a single consumer (the
/// worker's executor thread) drains with PopBatch, which blocks until at
/// least one request is queued and then keeps absorbing requests — waiting
/// up to `max_wait` for stragglers — until it holds `max_batch` of them.
///
/// Contract: with `limit > 0`, queued data requests ≤ `limit` at every
/// instant (so peak_depth() ≤ limit); nothing else ever occupies a slot.
/// The OverloadPolicy decides whether a producer arriving at a full queue
/// is rejected, the oldest queued request is shed (returned to the
/// producer to fail), or the producer blocks for space.
class RequestQueue {
 public:
  struct Options {
    /// Maximum queued requests; 0 = unbounded.
    int64_t limit = 0;
    OverloadPolicy policy = OverloadPolicy::kReject;
  };

  RequestQueue() = default;
  explicit RequestQueue(const Options& options) : options_(options) {}

  /// \brief Enqueues a request subject to the queue limit. On kAccepted
  /// the request has been moved into the queue; on kRejected/kShutdown it
  /// is left with the caller, who must fail its promise. Under
  /// kShedOldest, evicted older requests are appended to `*shed` (also for
  /// the caller to fail).
  PushOutcome Push(std::unique_ptr<Request>& request,
                   std::vector<std::unique_ptr<Request>>* shed = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return PushOutcome::kShutdown;
    if (options_.limit > 0 &&
        static_cast<int64_t>(queue_.size()) >= options_.limit) {
      switch (options_.policy) {
        case OverloadPolicy::kReject:
          return PushOutcome::kRejected;
        case OverloadPolicy::kShedOldest: {
          while (static_cast<int64_t>(queue_.size()) >= options_.limit) {
            if (shed != nullptr) shed->push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
          break;
        }
        case OverloadPolicy::kBlock: {
          space_cv_.wait(lock, [this] {
            return shutdown_ ||
                   static_cast<int64_t>(queue_.size()) < options_.limit;
          });
          if (shutdown_) return PushOutcome::kShutdown;
          break;
        }
      }
    }
    queue_.push_back(std::move(request));
    peak_depth_ = std::max(peak_depth_, static_cast<int64_t>(queue_.size()));
    lock.unlock();
    cv_.notify_one();
    return PushOutcome::kAccepted;
  }

  /// \brief Blocks for the next coalesced batch (see class comment).
  /// Returns an empty vector only when the queue is shut down and fully
  /// drained — the executor's exit signal.
  std::vector<std::unique_ptr<Request>> PopBatch(
      int64_t max_batch, std::chrono::microseconds max_wait) {
    std::vector<std::unique_ptr<Request>> batch;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return batch;  // shut down and drained

    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    while (static_cast<int64_t>(batch.size()) < max_batch) {
      if (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        continue;
      }
      if (shutdown_ ||
          cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (options_.limit > 0 && options_.policy == OverloadPolicy::kBlock) {
      lock.unlock();
      space_cv_.notify_all();
    }
    return batch;
  }

  /// \brief Removes and returns everything queued (the restart drain: the
  /// watchdog fails these with kUnavailable instead of letting them rot in
  /// a wedged worker's queue). Wakes blocked producers.
  std::vector<std::unique_ptr<Request>> DrainAll() {
    std::vector<std::unique_ptr<Request>> drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained.reserve(queue_.size());
      for (auto& request : queue_) drained.push_back(std::move(request));
      queue_.clear();
    }
    space_cv_.notify_all();
    return drained;
  }

  /// Wakes the consumer and any blocked producers; subsequent Push calls
  /// fail, queued requests still drain through PopBatch.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Instantaneous queue depth (requests waiting, not in-flight batches).
  int64_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(queue_.size());
  }

  /// High-water mark of the queue depth since construction.
  int64_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // consumer wakeups
  std::condition_variable space_cv_;  // kBlock producer wakeups
  std::deque<std::unique_ptr<Request>> queue_;
  int64_t peak_depth_ = 0;
  bool shutdown_ = false;
};

}  // namespace cpdg::serve

#endif  // CPDG_SERVE_REQUEST_QUEUE_H_
