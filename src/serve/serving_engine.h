#ifndef CPDG_SERVE_SERVING_ENGINE_H_
#define CPDG_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dgnn/encoder.h"
#include "graph/graph_store.h"
#include "serve/embedding_cache.h"
#include "serve/request_queue.h"
#include "serve/watchdog.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace cpdg::serve {

/// Events replayed per CommitBatch during Advance and during journal
/// reload at start. Fixed (not an option) because replay results depend on
/// the batching; a stable constant makes a process restarted from
/// checkpoint + journal bit-identical to the one that journaled the
/// advances.
inline constexpr int64_t kAdvanceReplayBatch = 128;

/// \brief Numeric precision of query-time forwards (embed / score-links).
/// Advance replay and journal reload always run fp32 regardless, so the
/// persistent memory state — the recovery source of truth — is identical
/// at every precision (DESIGN.md §14).
enum class ServePrecision {
  kFp32,  ///< bit-identical to the direct encoder forward (the default)
  kInt8,  ///< quantized frozen-weight kernels (tensor/quant.h)
};

const char* ServePrecisionName(ServePrecision precision);
Result<ServePrecision> ParseServePrecision(const std::string& text);

/// \brief Knobs of the serving engine; every field has an environment
/// override (see FromEnv) documented in the README env-var table.
struct ServingOptions {
  /// Maximum requests coalesced into one executor batch.
  int64_t max_batch = 64;
  /// How long a non-full batch is held open for stragglers once the queue
  /// drains. The default 0 is adaptive batching: execute immediately with
  /// whatever queued while the previous batch ran — the right setting when
  /// clients block on their results (they cannot produce stragglers while
  /// a batch is being held). Raise it only for open-loop clients that keep
  /// submitting without waiting.
  int64_t max_wait_micros = 0;
  /// Embedding-cache rows per executor worker; 0 disables caching.
  int64_t cache_capacity = 4096;

  /// Executor workers, all reading the one shared frozen snapshot;
  /// requests are routed to worker nodes[0] % N for cache affinity.
  /// CPDG_SERVE_SHARDS.
  int num_shards = 1;
  /// Per-worker queued-request bound; 0 = unbounded (no admission
  /// control). CPDG_SERVE_QUEUE_LIMIT.
  int64_t queue_limit = 0;
  /// What a full queue does with new requests. CPDG_SERVE_OVERLOAD
  /// (reject | shed-oldest | block).
  OverloadPolicy overload = OverloadPolicy::kReject;
  /// Default per-request latency budget in microseconds; 0 = no deadline.
  /// Per-call deadlines override it. CPDG_SERVE_DEADLINE_US.
  int64_t default_deadline_us = 0;
  /// Keep cache entries of older memory versions across Advance so a
  /// deadline-pressed request can be served stale instead of expired.
  /// Forced on by FromCheckpoint whenever default_deadline_us > 0;
  /// otherwise the cache is invalidated eagerly on advance.
  bool keep_stale_entries = false;

  /// Worker-health sampling period of the watchdog.
  int64_t watchdog_interval_ms = 100;
  /// Samples without executor progress (while work is queued) before a
  /// worker is declared wedged and restarted.
  int watchdog_max_missed = 20;

  /// Numeric precision of query-time forwards. CPDG_SERVE_PRECISION
  /// (fp32 | int8). Advance replay always runs fp32 (ServePrecision
  /// comment); int8 trades bit-identity for throughput within a measured
  /// AUC tolerance (bench_serving, docs/OPERATIONS.md rollout checklist).
  ServePrecision precision = ServePrecision::kFp32;

  /// Directory of the on-disk advance journal (serve/journal.h); empty
  /// disables persistence. When set, FromCheckpoint replays any journaled
  /// advances onto the checkpoint's memory before serving, and every
  /// Advance appends its entry durably before publishing the new snapshot.
  /// CPDG_SERVE_JOURNAL_DIR.
  std::string journal_dir;

  /// Defaults overridden by CPDG_SERVE_MAX_BATCH, CPDG_SERVE_MAX_WAIT_MICROS,
  /// CPDG_SERVE_CACHE_CAPACITY, CPDG_SERVE_SHARDS, CPDG_SERVE_QUEUE_LIMIT,
  /// CPDG_SERVE_OVERLOAD, CPDG_SERVE_DEADLINE_US, CPDG_SERVE_PRECISION and
  /// CPDG_SERVE_JOURNAL_DIR when set.
  static ServingOptions FromEnv();
};

/// \brief What the executor does with a request given its deadline budget.
enum class AdmissionDecision {
  kCompute,   ///< within budget: compute fresh
  kTryStale,  ///< budget mostly burned: prefer a stale cache hit
  kExpire,    ///< deadline already passed: fail with kDeadlineExceeded
};

/// \brief Pure deadline-budget policy (unit-tested directly). A request
/// with no deadline always computes. An expired one never computes. In
/// between, once at least half the budget was burned waiting in the queue,
/// the executor prefers serving a stale cached row over starting a fresh
/// forward it would likely not finish in time.
AdmissionDecision DecideAdmission(int64_t now_us, int64_t enqueue_us,
                                  int64_t deadline_us);

/// \brief Frozen-encoder embedding server: one immutable snapshot read by
/// N executor workers, bounded request queues, deadline admission, and
/// watchdog-supervised worker restart.
///
/// Loads a CPDGCKPT v2 checkpoint (the "params" tensor list, plus the
/// "memory" DGNN state snapshot when present) once into one frozen
/// encoder, predictor and int8 weight set, and answers embedding and
/// link-scoring queries behind per-worker thread-safe request queues.
/// Requests are routed to worker `nodes[0] % num_shards`, which keeps each
/// worker's embedding cache hot for its node range. The DGNN memory is
/// held as one `shared_ptr<const dgnn::Memory>` snapshot: every worker
/// runs the encoder's const, reentrant forward against it with its own
/// dgnn::ForwardScratch (DESIGN.md §12).
///
/// Determinism: forwards run under tensor::InferenceModeGuard on the
/// read-only encoder protocol (dgnn::DgnnEncoder class comment), whose
/// output rows depend only on their own (node, time) query. A worker takes
/// the snapshot once per popped batch and stamps every response with that
/// snapshot's version, so non-stale results are bit-identical to a direct
/// encoder forward at the reported version regardless of worker count,
/// coalescing, racing clients, racing advances, or cache warmth.
///
/// Advance(events) copies the current memory, replays the events once
/// (fp32, kAdvanceReplayBatch chunks), appends the journal entry durably
/// when a journal directory is set, and only then publishes the copy as
/// the new snapshot (read-copy-update). Readers never wait for it; a batch
/// that started on the old snapshot finishes on it.
///
/// Overload behavior: with queue_limit > 0, a full worker queue rejects,
/// sheds-oldest, or blocks per OverloadPolicy; rejected and shed requests
/// fail with kResourceExhausted. With a deadline, an expired request fails
/// with kDeadlineExceeded (it is never computed), and a nearly-expired one
/// may be answered from a stale cache generation with `stale=true` in the
/// response rather than missing its deadline.
///
/// All public methods are thread-safe; the *Full variants expose staleness
/// and latency provenance, the plain Embed/ScoreLinks wrappers keep the
/// original signatures. Queue depth, batch sizes, end-to-end latency,
/// overload verdicts, and cache traffic are exported through the serve.*
/// metrics; executor stages are traced as serve/* spans.
class ServingEngine {
 public:
  /// \brief Builds an engine for `config` (plus a LinkPredictor with
  /// `predictor_hidden` hidden units when > 0) and restores parameters —
  /// and memory, when the checkpoint carries a "memory" section — from
  /// `checkpoint_path`.
  ///
  /// The checkpoint's tensor list must match the constructed modules
  /// exactly (count and shapes, encoder parameters first, predictor
  /// appended — the layout the pre-trainer writes); any mismatch or
  /// corruption fails with a recoverable Status, never a partially
  /// initialized engine. `graph` provides the temporal neighborhoods and
  /// must outlive the engine.
  static Result<std::unique_ptr<ServingEngine>> FromCheckpoint(
      const dgnn::EncoderConfig& config, int64_t predictor_hidden,
      const graph::GraphStore* graph, const std::string& checkpoint_path,
      const ServingOptions& options = ServingOptions());

  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// \brief Temporal embeddings z_i^t for `nodes` at query time `time`,
  /// [n, embed_dim], detached from any autograd graph.
  Result<tensor::Tensor> Embed(const std::vector<graph::NodeId>& nodes,
                               double time);

  /// \brief Embed with provenance. `deadline_us` is a relative latency
  /// budget from now (0 = use options().default_deadline_us; that being 0
  /// too means no deadline).
  Result<EmbedResponse> EmbedFull(const std::vector<graph::NodeId>& nodes,
                                  double time, int64_t deadline_us = 0);

  /// \brief Non-blocking submission for open-loop clients (the load
  /// generator): returns the future immediately, admission errors as a
  /// failed Result. The future resolves when an executor worker answers.
  Result<std::future<Result<EmbedResponse>>> EmbedAsync(
      const std::vector<graph::NodeId>& nodes, double time,
      int64_t deadline_us = 0);

  /// \brief Link probabilities sigmoid(MLP(z_src || z_dst)) for the pairs
  /// (srcs[i], dsts[i]) at query time `time`. Requires the engine to have
  /// been built with a predictor (predictor_hidden > 0).
  Result<std::vector<double>> ScoreLinks(
      const std::vector<graph::NodeId>& srcs,
      const std::vector<graph::NodeId>& dsts, double time);

  /// \brief ScoreLinks with provenance; deadline semantics as EmbedFull.
  Result<ScoreResponse> ScoreLinksFull(const std::vector<graph::NodeId>& srcs,
                                       const std::vector<graph::NodeId>& dsts,
                                       double time, int64_t deadline_us = 0);

  /// \brief Replays `events` (chronological) onto a copy of the current
  /// memory snapshot, journals them (when journal_dir is set) and
  /// publishes the copy; see the class comment. Concurrent advances are
  /// serialized. On a journal IO failure the copy is discarded and the
  /// error returned, so the served memory matches the journal on disk.
  Status Advance(std::vector<graph::Event> events);

  /// Stops the watchdog, stops accepting requests, drains the queues,
  /// joins every executor (including restarted-out zombies). Idempotent;
  /// the destructor calls it.
  void Shutdown();

  /// dgnn::Memory::version() of the published snapshot.
  uint64_t memory_version() const { return serve_version_.load(); }

  /// The currently published memory snapshot (immutable; a later Advance
  /// publishes a new one rather than mutating it).
  std::shared_ptr<const dgnn::Memory> memory_snapshot() const;

  /// The frozen encoder every worker reads. Its own memory() is a
  /// one-node placeholder: served state lives in memory_snapshot().
  const dgnn::DgnnEncoder& encoder() const { return *encoder_; }

  bool has_predictor() const { return predictor_ != nullptr; }
  const ServingOptions& options() const { return options_; }
  int num_shards() const { return options_.num_shards; }

  /// Cache traffic totals summed over all workers, including retired
  /// ones (test hooks; mirrored in serve.cache.* metrics).
  int64_t cache_hits() const;
  int64_t cache_misses() const;
  int64_t cache_evictions() const;
  int64_t cache_invalidations() const;

  /// Overload / robustness totals (test hooks; serve.overload.* metrics).
  int64_t rejected_count() const { return rejected_.load(); }
  int64_t shed_count() const { return shed_.load(); }
  int64_t deadline_exceeded_count() const {
    return deadline_exceeded_.load();
  }
  int64_t stale_served_count() const { return stale_served_.load(); }
  /// Requests failed kUnavailable when a wedged worker's queue was drained.
  int64_t drained_count() const { return drained_.load(); }
  int64_t watchdog_restarts() const {
    return watchdog_ != nullptr ? watchdog_->restarts() : 0;
  }
  /// Highest queue depth observed on any worker (bounded-queue evidence).
  int64_t queue_peak_depth() const;

 private:
  /// One executor worker: its own queue, cache, flush scratch, thread and
  /// health counters; the frozen state is the engine's.
  struct Worker {
    std::unique_ptr<RequestQueue> queue;
    std::unique_ptr<EmbeddingCache> cache;
    /// Executor-thread only: forward flush cache, and the snapshot version
    /// the cache last saw (a new one invalidates it).
    dgnn::ForwardScratch scratch;
    uint64_t cache_version = 0;
    std::thread executor;

    /// Bumped on every pop and every answered request; the watchdog's
    /// liveness signal.
    std::atomic<int64_t> heartbeat{0};
    /// Requests popped but not yet answered (watchdog has-work probe).
    std::atomic<int64_t> inflight{0};
  };

  ServingEngine(const dgnn::EncoderConfig& config,
                const graph::GraphStore* graph, const ServingOptions& options);

  /// Restores the frozen model and the memory snapshot from the checkpoint
  /// (plus the journal, when set) and quantizes the weights.
  Status Load(const std::string& checkpoint_path, int64_t predictor_hidden);
  /// A fresh worker over the current snapshot; its thread is started.
  std::shared_ptr<Worker> StartWorker();
  void StartWatchdog();
  /// Watchdog restart callback: fence and drain the wedged worker, start
  /// a fresh one in its slot, retire the old thread to zombies_.
  void RestartWorker(int index);

  void ExecutorLoop(std::shared_ptr<Worker> worker);
  void ExecuteBatch(Worker* worker,
                    std::vector<std::unique_ptr<Request>> batch);
  /// Graceful degradation: answer from the cache at *any* memory version
  /// (flagging stale rows) when the deadline budget is nearly spent.
  /// Returns false when a row is missing — the request falls back to the
  /// compute path.
  bool TryServeStale(Worker* worker, Request* request,
                     uint64_t current_version);

  /// Stamps enqueue/deadline, routes, and pushes under admission control;
  /// on error the request's promise is untouched (the caller returns the
  /// Status instead of waiting on the future).
  Status Submit(std::unique_ptr<Request> request, int64_t deadline_us);
  /// Fails a request's promise with `status`.
  static void FailRequest(Request* request, const Status& status);

  std::shared_ptr<Worker> worker(int index) const;
  /// Every worker, live and retired (for stats and shutdown).
  std::vector<std::shared_ptr<Worker>> AllWorkers() const;

  ServingOptions options_;
  const dgnn::EncoderConfig config_;
  const graph::GraphStore* graph_;

  // Frozen model, built once by Load.
  std::unique_ptr<dgnn::DgnnEncoder> encoder_;
  std::unique_ptr<dgnn::LinkPredictor> predictor_;
  /// int8 copies of the frozen weight matrices, quantized once at load;
  /// empty unless options_.precision == kInt8. Activated per query-time
  /// forward with tensor::QuantModeGuard — never during replay, so memory
  /// state stays precision-independent.
  tensor::QuantizedParamSet quant_params_;

  /// The published memory; swapped whole under snapshot_mu_ by Advance.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const dgnn::Memory> snapshot_;

  mutable std::mutex workers_mu_;
  std::vector<std::shared_ptr<Worker>> workers_;
  /// Workers swapped out by restarts; threads joined at Shutdown (their
  /// in-flight batches are allowed to finish).
  std::vector<std::shared_ptr<Worker>> zombies_;

  /// Serializes Advance.
  std::mutex advance_mu_;
  /// Sequence number of the next on-disk journal entry (mutated only under
  /// advance_mu_); starts past the entries FromCheckpoint reloaded.
  int64_t journal_next_seq_ = 0;
  std::atomic<uint64_t> serve_version_{0};

  std::unique_ptr<Watchdog> watchdog_;
  std::atomic<bool> shutdown_{false};

  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
  std::atomic<int64_t> stale_served_{0};
  std::atomic<int64_t> drained_{0};
};

}  // namespace cpdg::serve

#endif  // CPDG_SERVE_SERVING_ENGINE_H_
