#include "serve/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/journal.h"
#include "tensor/checkpoint_container.h"
#include "tensor/ops.h"
#include "tensor/serialization.h"
#include "train/checkpoint.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cpdg::serve {
namespace {

namespace ts = cpdg::tensor;

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<int64_t>(parsed);
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().gauge("serve.queue.depth");
  return g;
}

obs::Histogram& BatchRequestsHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().histogram(
      "serve.batch.coalesced_requests");
  return h;
}

obs::Histogram& NodesComputedHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().histogram("serve.batch.nodes_computed");
  return h;
}

obs::Histogram& LatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().histogram(
      "serve.request.latency_seconds");
  return h;
}

obs::Counter& RejectedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.overload.rejected");
  return c;
}

obs::Counter& ShedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.overload.shed");
  return c;
}

obs::Counter& DeadlineExceededCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "serve.overload.deadline_exceeded");
  return c;
}

obs::Counter& StaleServedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.overload.stale_served");
  return c;
}

obs::Counter& DrainedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.overload.drained");
  return c;
}

int64_t NowMicros() { return obs::Profiler::Global().NowMicros(); }

Status ValidateNodes(const std::vector<graph::NodeId>& nodes,
                     int64_t num_nodes, const char* what) {
  if (nodes.empty()) {
    return Status::InvalidArgument(std::string(what) + " list is empty");
  }
  for (graph::NodeId v : nodes) {
    if (v < 0 || v >= num_nodes) {
      return Status::InvalidArgument(std::string(what) + " node " +
                                     std::to_string(v) +
                                     " out of range [0, " +
                                     std::to_string(num_nodes) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

const char* ServePrecisionName(ServePrecision precision) {
  switch (precision) {
    case ServePrecision::kFp32:
      return "fp32";
    case ServePrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

Result<ServePrecision> ParseServePrecision(const std::string& text) {
  if (text == "fp32") return ServePrecision::kFp32;
  if (text == "int8") return ServePrecision::kInt8;
  return Status::InvalidArgument("unknown serve precision \"" + text +
                                 "\" (expected fp32 | int8)");
}

ServingOptions ServingOptions::FromEnv() {
  ServingOptions o;
  o.max_batch = std::max<int64_t>(1, EnvInt64("CPDG_SERVE_MAX_BATCH",
                                              o.max_batch));
  o.max_wait_micros = std::max<int64_t>(
      0, EnvInt64("CPDG_SERVE_MAX_WAIT_MICROS", o.max_wait_micros));
  o.cache_capacity = std::max<int64_t>(
      0, EnvInt64("CPDG_SERVE_CACHE_CAPACITY", o.cache_capacity));
  o.num_shards = static_cast<int>(std::clamp<int64_t>(
      EnvInt64("CPDG_SERVE_SHARDS", o.num_shards), 1, 256));
  o.queue_limit = std::max<int64_t>(
      0, EnvInt64("CPDG_SERVE_QUEUE_LIMIT", o.queue_limit));
  if (const char* v = std::getenv("CPDG_SERVE_OVERLOAD")) {
    Result<OverloadPolicy> parsed = ParseOverloadPolicy(v);
    if (parsed.ok()) o.overload = parsed.value();
  }
  o.default_deadline_us = std::max<int64_t>(
      0, EnvInt64("CPDG_SERVE_DEADLINE_US", o.default_deadline_us));
  if (const char* v = std::getenv("CPDG_SERVE_PRECISION")) {
    Result<ServePrecision> parsed = ParseServePrecision(v);
    if (parsed.ok()) o.precision = parsed.value();
  }
  if (const char* v = std::getenv("CPDG_SERVE_JOURNAL_DIR")) {
    if (*v != '\0') o.journal_dir = v;
  }
  return o;
}

AdmissionDecision DecideAdmission(int64_t now_us, int64_t enqueue_us,
                                  int64_t deadline_us) {
  if (deadline_us <= 0) return AdmissionDecision::kCompute;
  if (now_us >= deadline_us) return AdmissionDecision::kExpire;
  const int64_t budget = deadline_us - enqueue_us;
  const int64_t waited = now_us - enqueue_us;
  if (2 * waited >= budget) return AdmissionDecision::kTryStale;
  return AdmissionDecision::kCompute;
}

ServingEngine::ServingEngine(const dgnn::EncoderConfig& config,
                             const graph::GraphStore* graph,
                             const ServingOptions& options)
    : options_(options), config_(config), graph_(graph) {}

Result<std::unique_ptr<ServingEngine>> ServingEngine::FromCheckpoint(
    const dgnn::EncoderConfig& config, int64_t predictor_hidden,
    const graph::GraphStore* graph, const std::string& checkpoint_path,
    const ServingOptions& options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must not be null");
  }
  ServingOptions opts = options;
  if (opts.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (opts.max_wait_micros < 0) {
    return Status::InvalidArgument("max_wait_micros must be >= 0");
  }
  if (opts.cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must be >= 0");
  }
  if (opts.num_shards < 1 || opts.num_shards > 256) {
    return Status::InvalidArgument("num_shards must be in [1, 256], got " +
                                   std::to_string(opts.num_shards));
  }
  if (opts.queue_limit < 0) {
    return Status::InvalidArgument("queue_limit must be >= 0");
  }
  if (opts.default_deadline_us < 0) {
    return Status::InvalidArgument("default_deadline_us must be >= 0");
  }
  if (opts.watchdog_interval_ms < 1 || opts.watchdog_max_missed < 1) {
    return Status::InvalidArgument(
        "watchdog interval and max_missed must be positive");
  }
  // Deadline-pressed requests degrade to stale cache hits; that needs the
  // previous cache generation to survive advances.
  if (opts.default_deadline_us > 0) opts.keep_stale_entries = true;

  std::unique_ptr<ServingEngine> engine(
      new ServingEngine(config, graph, opts));
  CPDG_RETURN_NOT_OK(engine->Load(checkpoint_path, predictor_hidden));
  for (int i = 0; i < opts.num_shards; ++i) {
    engine->workers_.push_back(engine->StartWorker());
  }
  engine->StartWatchdog();
  return engine;
}

Status ServingEngine::Load(const std::string& checkpoint_path,
                           int64_t predictor_hidden) {
  CPDG_TRACE_SPAN("serve/load_checkpoint");
  CPDG_ASSIGN_OR_RETURN(ts::SectionReader reader,
                        ts::SectionReader::Open(checkpoint_path));
  CPDG_ASSIGN_OR_RETURN(std::string_view payload,
                        reader.Find(ts::kParamsSection));
  CPDG_ASSIGN_OR_RETURN(std::vector<ts::Tensor> loaded,
                        ts::DecodeTensorList(payload));

  // Parameters are overwritten by the checkpoint restore; the seed only
  // determines the (discarded) construction-time initialization.
  Rng init_rng(0x5e17f0u);
  encoder_ = std::make_unique<dgnn::DgnnEncoder>(config_, graph_, &init_rng);
  if (predictor_hidden > 0) {
    predictor_ = std::make_unique<dgnn::LinkPredictor>(
        config_.embed_dim, predictor_hidden, &init_rng);
  }
  // Encoder parameters first, predictor appended — the pre-trainer's save
  // order. RestoreTensorData validates count and every shape before
  // copying anything, so a checkpoint from a different architecture is
  // rejected without a partially-restored model.
  std::vector<ts::Tensor> params = encoder_->Parameters();
  if (predictor_ != nullptr) {
    std::vector<ts::Tensor> dec = predictor_->Parameters();
    params.insert(params.end(), dec.begin(), dec.end());
  }
  CPDG_RETURN_NOT_OK(ts::RestoreTensorData(params, loaded));

  // The snapshot takes over the encoder's own memory, which serving never
  // reads; a one-node placeholder keeps encoder().memory() valid, so only
  // one copy of the memory stays resident.
  auto memory = std::make_shared<dgnn::Memory>(std::move(encoder_->memory()));
  encoder_->memory() = dgnn::Memory(1, config_.memory_dim);
  if (reader.Has(train::kMemorySection)) {
    CPDG_ASSIGN_OR_RETURN(std::string_view memory_bytes,
                          reader.Find(train::kMemorySection));
    CPDG_RETURN_NOT_OK(memory->DeserializeFrom(memory_bytes));
  }

  // Freeze: serving never trains, and inference-mode forwards skip graph
  // construction entirely, but a frozen flag keeps any accidental
  // grad-enabled use (e.g. a caller poking encoder()) from training.
  for (ts::Tensor& p : params) p.set_requires_grad(false);

  if (options_.precision == ServePrecision::kInt8) {
    // Quantize the frozen weight matrices once, after restore. Only
    // plausible MatMul right-operands qualify: [1, d] parameters (biases,
    // time frequencies) never multiply, and per-node tables above the row
    // bound are gathered by row, not multiplied. Registration is keyed by
    // data pointer, so an extra registered matrix that never appears as a
    // MatMul operand is inert (DESIGN.md §14).
    constexpr int64_t kMaxQuantRows = 8192;
    for (const ts::Tensor& p : params) {
      if (p.rows() < 2 || p.rows() > kMaxQuantRows) continue;
      quant_params_.AddWeight(p.data(), p.rows(), p.cols());
    }
  }

  if (!options_.journal_dir.empty()) {
    // Process-restart recovery: replay every durably-journaled advance
    // onto the checkpoint's memory in the same kAdvanceReplayBatch chunks
    // Advance used, which reproduces the journaling process's memory bit
    // for bit (DESIGN.md §12).
    CPDG_ASSIGN_OR_RETURN(
        std::vector<std::vector<graph::Event>> persisted,
        LoadJournal(options_.journal_dir, config_.num_nodes));
    ts::InferenceModeGuard guard;
    for (const std::vector<graph::Event>& events : persisted) {
      encoder_->ReplayEvents(memory.get(), events, kAdvanceReplayBatch);
    }
    journal_next_seq_ = static_cast<int64_t>(persisted.size());
  }
  serve_version_.store(memory->version());
  snapshot_ = std::move(memory);
  return Status::OK();
}

std::shared_ptr<ServingEngine::Worker> ServingEngine::StartWorker() {
  auto w = std::make_shared<Worker>();
  RequestQueue::Options queue_options;
  queue_options.limit = options_.queue_limit;
  queue_options.policy = options_.overload;
  w->queue = std::make_unique<RequestQueue>(queue_options);
  w->cache = std::make_unique<EmbeddingCache>(options_.cache_capacity);
  w->cache_version = memory_version();
  w->executor = std::thread([this, w] { ExecutorLoop(w); });
  return w;
}

void ServingEngine::StartWatchdog() {
  Watchdog::Options wopts;
  wopts.interval = std::chrono::milliseconds(options_.watchdog_interval_ms);
  wopts.max_missed = options_.watchdog_max_missed;
  std::vector<Watchdog::Target> targets;
  for (int i = 0; i < options_.num_shards; ++i) {
    Watchdog::Target target;
    target.heartbeat = [this, i] { return worker(i)->heartbeat.load(); };
    target.has_work = [this, i] {
      std::shared_ptr<Worker> w = worker(i);
      return w->queue->depth() > 0 || w->inflight.load() > 0;
    };
    targets.push_back(std::move(target));
  }
  watchdog_ = std::make_unique<Watchdog>(
      wopts, std::move(targets), [this](int i) { RestartWorker(i); });
  watchdog_->Start();
}

void ServingEngine::RestartWorker(int index) {
  std::shared_ptr<Worker> old = worker(index);
  // Fence the wedged worker: no new admissions, fail what was queued. Its
  // thread finishes the in-flight batch, then exits on the shut-down queue.
  old->queue->Shutdown();
  const Status drained_status = Status::Unavailable(
      "worker " + std::to_string(index) + " restarting after a wedge");
  for (std::unique_ptr<Request>& request : old->queue->DrainAll()) {
    drained_.fetch_add(1);
    DrainedCounter().Add();
    FailRequest(request.get(), drained_status);
  }
  std::shared_ptr<Worker> fresh = StartWorker();
  std::lock_guard<std::mutex> lock(workers_mu_);
  zombies_.push_back(std::move(old));
  workers_[static_cast<size_t>(index)] = std::move(fresh);
}

ServingEngine::~ServingEngine() { Shutdown(); }

void ServingEngine::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  // Stop the watchdog first so a shutdown drain is never mistaken for a
  // wedged worker mid-teardown.
  if (watchdog_ != nullptr) watchdog_->Stop();
  // A shut-down queue refuses new pushes and its executor answers
  // everything already queued before exiting, so no client is left
  // waiting on a dropped promise.
  const std::vector<std::shared_ptr<Worker>> all = AllWorkers();
  for (const auto& w : all) w->queue->Shutdown();
  for (const auto& w : all) {
    if (w->executor.joinable()) w->executor.join();
  }
}

std::shared_ptr<ServingEngine::Worker> ServingEngine::worker(
    int index) const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return workers_[static_cast<size_t>(index)];
}

std::vector<std::shared_ptr<ServingEngine::Worker>>
ServingEngine::AllWorkers() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  std::vector<std::shared_ptr<Worker>> all = workers_;
  all.insert(all.end(), zombies_.begin(), zombies_.end());
  return all;
}

std::shared_ptr<const dgnn::Memory> ServingEngine::memory_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

int64_t ServingEngine::cache_hits() const {
  int64_t total = 0;
  for (const auto& w : AllWorkers()) total += w->cache->hits();
  return total;
}

int64_t ServingEngine::cache_misses() const {
  int64_t total = 0;
  for (const auto& w : AllWorkers()) total += w->cache->misses();
  return total;
}

int64_t ServingEngine::cache_evictions() const {
  int64_t total = 0;
  for (const auto& w : AllWorkers()) total += w->cache->evictions();
  return total;
}

int64_t ServingEngine::cache_invalidations() const {
  int64_t total = 0;
  for (const auto& w : AllWorkers()) total += w->cache->invalidations();
  return total;
}

int64_t ServingEngine::queue_peak_depth() const {
  int64_t peak = 0;
  for (const auto& w : AllWorkers()) {
    peak = std::max(peak, w->queue->peak_depth());
  }
  return peak;
}

void ServingEngine::FailRequest(Request* request, const Status& status) {
  switch (request->kind) {
    case Request::Kind::kEmbed:
      request->embed_result.set_value(status);
      break;
    case Request::Kind::kScoreLinks:
      request->score_result.set_value(status);
      break;
  }
}

Status ServingEngine::Submit(std::unique_ptr<Request> request,
                             int64_t deadline_us) {
  if (shutdown_.load()) {
    return Status::FailedPrecondition("serving engine is shut down");
  }
  const int64_t now = NowMicros();
  request->enqueue_us = now;
  const int64_t budget =
      deadline_us > 0 ? deadline_us : options_.default_deadline_us;
  if (budget > 0) request->deadline_us = now + budget;

  // Cache affinity: a node's queries always land on the same worker.
  // Multi-node requests are not split, so each response is one tensor
  // computed at one memory version.
  const int index =
      static_cast<int>(request->nodes[0] % options_.num_shards);
  std::shared_ptr<Worker> target = worker(index);
  std::vector<std::unique_ptr<Request>> shed;
  const PushOutcome outcome = target->queue->Push(request, &shed);
  const Status shed_status = Status::ResourceExhausted(
      "request shed under overload (shed-oldest policy, worker " +
      std::to_string(index) + ")");
  for (std::unique_ptr<Request>& victim : shed) {
    shed_.fetch_add(1);
    ShedCounter().Add();
    FailRequest(victim.get(), shed_status);
  }
  switch (outcome) {
    case PushOutcome::kAccepted:
      QueueDepthGauge().Set(static_cast<double>(target->queue->depth()));
      return Status::OK();
    case PushOutcome::kRejected:
      rejected_.fetch_add(1);
      RejectedCounter().Add();
      return Status::ResourceExhausted(
          "serving queue full (worker " + std::to_string(index) + ", limit " +
          std::to_string(options_.queue_limit) + ", policy " +
          OverloadPolicyName(options_.overload) + ")");
    case PushOutcome::kShutdown:
      if (shutdown_.load()) {
        return Status::FailedPrecondition("serving engine is shut down");
      }
      return Status::Unavailable("worker " + std::to_string(index) +
                                 " is restarting; retry");
  }
  return Status::Internal("unreachable push outcome");
}

Result<EmbedResponse> ServingEngine::EmbedFull(
    const std::vector<graph::NodeId>& nodes, double time,
    int64_t deadline_us) {
  CPDG_ASSIGN_OR_RETURN(std::future<Result<EmbedResponse>> future,
                        EmbedAsync(nodes, time, deadline_us));
  return future.get();
}

Result<std::future<Result<EmbedResponse>>> ServingEngine::EmbedAsync(
    const std::vector<graph::NodeId>& nodes, double time,
    int64_t deadline_us) {
  static obs::Counter& requests =
      obs::MetricsRegistry::Global().counter("serve.requests.embed");
  CPDG_RETURN_NOT_OK(ValidateNodes(nodes, config_.num_nodes, "embed"));
  requests.Add();
  auto request = std::make_unique<Request>();
  request->kind = Request::Kind::kEmbed;
  request->nodes = nodes;
  request->time = time;
  std::future<Result<EmbedResponse>> future =
      request->embed_result.get_future();
  CPDG_RETURN_NOT_OK(Submit(std::move(request), deadline_us));
  return future;
}

Result<tensor::Tensor> ServingEngine::Embed(
    const std::vector<graph::NodeId>& nodes, double time) {
  CPDG_ASSIGN_OR_RETURN(EmbedResponse response, EmbedFull(nodes, time));
  return std::move(response.embeddings);
}

Result<ScoreResponse> ServingEngine::ScoreLinksFull(
    const std::vector<graph::NodeId>& srcs,
    const std::vector<graph::NodeId>& dsts, double time,
    int64_t deadline_us) {
  static obs::Counter& requests =
      obs::MetricsRegistry::Global().counter("serve.requests.score_links");
  if (predictor_ == nullptr) {
    return Status::FailedPrecondition(
        "engine was built without a link predictor (predictor_hidden == 0)");
  }
  if (srcs.size() != dsts.size()) {
    return Status::InvalidArgument(
        "src/dst length mismatch: " + std::to_string(srcs.size()) + " vs " +
        std::to_string(dsts.size()));
  }
  CPDG_RETURN_NOT_OK(ValidateNodes(srcs, config_.num_nodes, "score src"));
  CPDG_RETURN_NOT_OK(ValidateNodes(dsts, config_.num_nodes, "score dst"));
  requests.Add();
  auto request = std::make_unique<Request>();
  request->kind = Request::Kind::kScoreLinks;
  request->nodes = srcs;
  request->dsts = dsts;
  request->time = time;
  std::future<Result<ScoreResponse>> future =
      request->score_result.get_future();
  CPDG_RETURN_NOT_OK(Submit(std::move(request), deadline_us));
  return future.get();
}

Result<std::vector<double>> ServingEngine::ScoreLinks(
    const std::vector<graph::NodeId>& srcs,
    const std::vector<graph::NodeId>& dsts, double time) {
  CPDG_ASSIGN_OR_RETURN(ScoreResponse response,
                        ScoreLinksFull(srcs, dsts, time));
  return std::move(response.probabilities);
}

Status ServingEngine::Advance(std::vector<graph::Event> events) {
  static obs::Counter& requests =
      obs::MetricsRegistry::Global().counter("serve.requests.advance");
  static obs::Counter& advanced =
      obs::MetricsRegistry::Global().counter("serve.advance.events");
  if (shutdown_.load()) {
    return Status::FailedPrecondition("serving engine is shut down");
  }
  if (events.empty()) return Status::OK();
  const int64_t num_nodes = config_.num_nodes;
  for (const graph::Event& e : events) {
    if (e.src < 0 || e.src >= num_nodes || e.dst < 0 || e.dst >= num_nodes) {
      return Status::InvalidArgument(
          "advance event (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") references a node out of range [0, " +
          std::to_string(num_nodes) + ")");
    }
  }
  requests.Add();
  CPDG_TRACE_SPAN("serve/advance");

  // One advance at a time; concurrent advances queue here, preserving a
  // total order that the journal records.
  std::lock_guard<std::mutex> advance_lock(advance_mu_);
  auto next = std::make_shared<dgnn::Memory>(*memory_snapshot());
  {
    // fp32 regardless of precision: the published memory is the recovery
    // source of truth (DESIGN.md §14).
    ts::InferenceModeGuard guard;
    encoder_->ReplayEvents(next.get(), events, kAdvanceReplayBatch);
  }
  if (!options_.journal_dir.empty()) {
    // Durable before visible: once published, a process restarted from
    // the same checkpoint + journal dir replays this advance. An IO
    // failure discards the copy, so disk and served memory agree.
    CPDG_RETURN_NOT_OK(AppendJournalEntry(options_.journal_dir,
                                          journal_next_seq_,
                                          config_.num_nodes, events));
    ++journal_next_seq_;
  }
  {
    // Version and snapshot move together: whoever has taken the new
    // snapshot also reads the new memory_version().
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    serve_version_.store(next->version());
    snapshot_ = std::move(next);
  }
  advanced.Add(static_cast<int64_t>(events.size()));
  return Status::OK();
}

void ServingEngine::ExecutorLoop(std::shared_ptr<Worker> worker) {
  const auto max_wait = std::chrono::microseconds(options_.max_wait_micros);
  while (true) {
    std::vector<std::unique_ptr<Request>> batch =
        worker->queue->PopBatch(options_.max_batch, max_wait);
    if (batch.empty()) return;  // shut down and drained
    worker->heartbeat.fetch_add(1);
    worker->inflight.store(static_cast<int64_t>(batch.size()));
    const int64_t stall =
        util::FaultInjector::Instance().ConsumeServeStallMillis();
    if (stall > 0) {
      // Injected wedge: the heartbeat freezes with work in flight, which
      // is exactly the signature the watchdog restarts on.
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    ExecuteBatch(worker.get(), std::move(batch));
    worker->inflight.store(0);
    worker->heartbeat.fetch_add(1);
  }
}

bool ServingEngine::TryServeStale(Worker* worker, Request* request,
                                  uint64_t current_version) {
  const int64_t dim = config_.embed_dim;
  bool any_stale = false;
  const auto gather_any = [&](const std::vector<graph::NodeId>& nodes,
                              std::vector<float>* data) {
    data->reserve(nodes.size() * static_cast<size_t>(dim));
    for (graph::NodeId v : nodes) {
      std::vector<float> row;
      uint64_t row_version = 0;
      if (!worker->cache->LookupAnyVersion(v, request->time, &row,
                                          &row_version)) {
        return false;
      }
      if (row_version != current_version) any_stale = true;
      data->insert(data->end(), row.begin(), row.end());
    }
    return true;
  };

  std::vector<float> src_data;
  if (!gather_any(request->nodes, &src_data)) return false;
  std::vector<float> dst_data;
  if (request->kind == Request::Kind::kScoreLinks &&
      !gather_any(request->dsts, &dst_data)) {
    return false;
  }

  const int64_t latency = NowMicros() - request->enqueue_us;
  if (any_stale) {
    stale_served_.fetch_add(1);
    StaleServedCounter().Add();
  }
  if (request->kind == Request::Kind::kEmbed) {
    EmbedResponse response;
    response.embeddings = ts::Tensor::FromVector(
        static_cast<int64_t>(request->nodes.size()), dim,
        std::move(src_data));
    response.stale = any_stale;
    response.memory_version = current_version;
    response.latency_us = latency;
    LatencyHistogram().Observe(static_cast<double>(latency) * 1e-6);
    request->embed_result.set_value(std::move(response));
    return true;
  }
  CPDG_CHECK(request->kind == Request::Kind::kScoreLinks);
  ts::InferenceModeGuard guard;
  ts::QuantModeGuard qguard(&quant_params_);
  ts::Tensor logits = predictor_->ForwardLogits(
      ts::Tensor::FromVector(static_cast<int64_t>(request->nodes.size()),
                             dim, std::move(src_data)),
      ts::Tensor::FromVector(static_cast<int64_t>(request->dsts.size()),
                             dim, std::move(dst_data)));
  ts::Tensor probs = ts::Sigmoid(logits);
  ScoreResponse response;
  response.probabilities.resize(request->nodes.size());
  for (size_t i = 0; i < response.probabilities.size(); ++i) {
    response.probabilities[i] =
        static_cast<double>(probs.at(static_cast<int64_t>(i), 0));
  }
  response.stale = any_stale;
  response.memory_version = current_version;
  response.latency_us = latency;
  LatencyHistogram().Observe(static_cast<double>(latency) * 1e-6);
  request->score_result.set_value(std::move(response));
  return true;
}

void ServingEngine::ExecuteBatch(
    Worker* worker, std::vector<std::unique_ptr<Request>> batch) {
  CPDG_TRACE_SPAN("serve/execute_batch");
  QueueDepthGauge().Set(static_cast<double>(worker->queue->depth()));
  BatchRequestsHistogram().Observe(static_cast<double>(batch.size()));

  // One snapshot for the whole batch: every answer in it is computed at,
  // and stamped with, this version even if an Advance publishes mid-batch.
  const std::shared_ptr<const dgnn::Memory> memory = memory_snapshot();
  const uint64_t version = memory->version();
  if (version != worker->cache_version) {
    // With keep_stale_entries the previous generation stays for
    // deadline-pressed stale serving; fresh inserts overwrite it in place.
    if (!options_.keep_stale_entries) worker->cache->InvalidateAll();
    worker->cache_version = version;
  }
  const int64_t dim = config_.embed_dim;
  const int64_t admission_now = NowMicros();

  // Deadline triage before any compute: expired requests fail fast, and
  // requests that burned most of their budget waiting are served from the
  // stale cache when possible instead of joining the forward.
  std::vector<std::unique_ptr<Request>> live;
  live.reserve(batch.size());
  for (std::unique_ptr<Request>& request : batch) {
    switch (DecideAdmission(admission_now, request->enqueue_us,
                            request->deadline_us)) {
      case AdmissionDecision::kExpire: {
        deadline_exceeded_.fetch_add(1);
        DeadlineExceededCounter().Add();
        FailRequest(
            request.get(),
            Status::DeadlineExceeded(
                "deadline exceeded before execution (budget " +
                std::to_string(request->deadline_us - request->enqueue_us) +
                " us, waited " +
                std::to_string(admission_now - request->enqueue_us) +
                " us)"));
        worker->heartbeat.fetch_add(1);
        break;
      }
      case AdmissionDecision::kTryStale:
        if (TryServeStale(worker, request.get(), version)) {
          worker->heartbeat.fetch_add(1);
          break;
        }
        live.push_back(std::move(request));
        break;
      case AdmissionDecision::kCompute:
        live.push_back(std::move(request));
        break;
    }
  }
  if (live.empty()) return;

  // Collect the distinct (node, time) queries of the remaining batch,
  // resolving each against the cache at the current memory version.
  std::map<std::pair<graph::NodeId, double>, std::vector<float>> rows;
  std::vector<graph::NodeId> miss_nodes;
  std::vector<double> miss_times;
  for (const auto& request : live) {
    auto collect = [&](graph::NodeId node) {
      auto [it, inserted] = rows.try_emplace({node, request->time});
      if (!inserted) return;  // already resolved or queued for compute
      if (!worker->cache->Lookup({node, request->time, version},
                                &it->second)) {
        miss_nodes.push_back(node);
        miss_times.push_back(request->time);
      }
    };
    for (graph::NodeId v : request->nodes) collect(v);
    for (graph::NodeId v : request->dsts) collect(v);
  }

  NodesComputedHistogram().Observe(static_cast<double>(miss_nodes.size()));
  if (!miss_nodes.empty()) {
    CPDG_TRACE_SPAN("serve/forward");
    ts::InferenceModeGuard guard;
    // Query-time forwards may run int8 (the set is empty — inert — at
    // fp32); advance replay deliberately does not, so persistent memory
    // state is precision-independent.
    ts::QuantModeGuard qguard(&quant_params_);
    // Read-only protocol: flush into this worker's scratch, never commit,
    // so the shared snapshot stays untouched.
    worker->scratch.Clear();
    ts::Tensor z = encoder_->ComputeEmbeddings(*memory, &worker->scratch,
                                               miss_nodes, miss_times);
    CPDG_CHECK_EQ(z.cols(), dim);
    for (size_t i = 0; i < miss_nodes.size(); ++i) {
      const float* row = z.data() + static_cast<int64_t>(i) * dim;
      std::vector<float> values(row, row + dim);
      worker->cache->Insert({miss_nodes[i], miss_times[i], version},
                            values);
      rows[{miss_nodes[i], miss_times[i]}] = std::move(values);
    }
  }

  const auto row_of = [&](graph::NodeId node, double time) {
    auto it = rows.find({node, time});
    CPDG_CHECK(it != rows.end());
    CPDG_CHECK_EQ(it->second.size(), static_cast<size_t>(dim));
    return it->second;
  };
  const auto gather = [&](const std::vector<graph::NodeId>& nodes,
                          double time) {
    std::vector<float> data;
    data.reserve(nodes.size() * static_cast<size_t>(dim));
    for (graph::NodeId v : nodes) {
      const std::vector<float>& row = row_of(v, time);
      data.insert(data.end(), row.begin(), row.end());
    }
    return ts::Tensor::FromVector(static_cast<int64_t>(nodes.size()), dim,
                                  std::move(data));
  };

  for (auto& request : live) {
    const int64_t latency = NowMicros() - request->enqueue_us;
    if (request->kind == Request::Kind::kEmbed) {
      EmbedResponse response;
      response.embeddings = gather(request->nodes, request->time);
      response.memory_version = version;
      response.latency_us = latency;
      request->embed_result.set_value(std::move(response));
    } else {
      CPDG_TRACE_SPAN("serve/score");
      ts::InferenceModeGuard guard;
      ts::QuantModeGuard qguard(&quant_params_);
      ts::Tensor logits = predictor_->ForwardLogits(
          gather(request->nodes, request->time),
          gather(request->dsts, request->time));
      ts::Tensor probs = ts::Sigmoid(logits);
      ScoreResponse response;
      response.probabilities.resize(request->nodes.size());
      for (size_t i = 0; i < response.probabilities.size(); ++i) {
        response.probabilities[i] =
            static_cast<double>(probs.at(static_cast<int64_t>(i), 0));
      }
      response.memory_version = version;
      response.latency_us = latency;
      request->score_result.set_value(std::move(response));
    }
    LatencyHistogram().Observe(static_cast<double>(latency) * 1e-6);
    worker->heartbeat.fetch_add(1);
  }
}

}  // namespace cpdg::serve
