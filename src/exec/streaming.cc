#include "exec/streaming.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/sync.h"
#include "common/stopwatch.h"
#include "obs/log.h"

namespace swiftspatial::exec {

namespace internal {

// Bounded chunk queue plus the stream's terminal state. Producer side calls
// Push (blocking once `capacity` chunks are buffered) and finally Close;
// consumer side calls Pop until it returns false. Cancel unblocks both
// sides and makes every token observer stop cooperatively.
class StreamState {
 public:
  explicit StreamState(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  CancellationToken token() const { return cancel_.token(); }
  bool cancelled() const { return cancel_.cancelled(); }

  /// Enqueues one chunk, blocking while the queue is full. Returns false
  /// (dropping the chunk) once the stream is cancelled. Empty pair sets are
  /// not enqueued.
  bool Push(std::vector<ResultPair> pairs) EXCLUDES(mu_) {
    if (pairs.empty()) return !cancel_.cancelled();
    MutexLock lock(&mu_);
    while (queue_.size() >= capacity_ && !cancel_.cancelled()) {
      cv_space_.Wait(&mu_);
    }
    if (cancel_.cancelled()) return false;
    PushLocked(std::move(pairs));
    return true;
  }

  /// Dequeues the next chunk; false at end-of-stream. Buffered chunks are
  /// still delivered after Close/Cancel -- the delivered prefix stays
  /// well-defined.
  bool Pop(ResultChunk* out) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (queue_.empty() && !closed_) cv_data_.Wait(&mu_);
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    cv_space_.NotifyOne();
    return true;
  }

  void Cancel() EXCLUDES(mu_) {
    cancel_.Cancel();
    MutexLock lock(&mu_);
    cv_space_.NotifyAll();
  }

  /// Cancel() that also stamps the terminal status: when the producer
  /// subsequently closes with the generic cancellation Aborted, the stamp
  /// replaces it -- DeadlineExceeded for deadline kills, OK for graceful
  /// degradation (the delivered prefix becomes the official result). First
  /// stamp wins; a stream that already closed is left untouched.
  void CancelWith(Status status) EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (!closed_ && !status_override_.has_value()) {
        status_override_ = std::move(status);
      }
    }
    Cancel();
  }

  /// Marks the stream finished. Called exactly once, by the producer (or by
  /// DeferredStream::abandon when the producer never ran).
  void Close(Status status, const JoinStats& stats,
             const StageTiming& timing) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    SWIFT_CHECK(!closed_);
    CloseLocked(std::move(status), stats, timing);
  }

  /// Safety-net variant for abandon paths that may race a normal Close.
  void CloseIfOpen(Status status) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (closed_) return;
    CloseLocked(std::move(status), JoinStats{}, StageTiming{});
  }

  void WaitClosed() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!closed_) cv_closed_.Wait(&mu_);
  }

  Status status() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return status_;
  }
  JoinStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  StageTiming timing() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return timing_;
  }
  std::size_t max_depth() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return max_depth_;
  }
  /// Chunks pushed over the stream's lifetime (the sequence counter).
  uint64_t chunks_pushed() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_sequence_;
  }

  /// The stream's resource accounting; producers and the serving layer
  /// feed it, DeferredStream::usage exposes it (aliased to this state).
  obs::ResourceAccumulator* usage() { return &usage_; }

 private:
  void PushLocked(std::vector<ResultPair> pairs) REQUIRES(mu_) {
    ResultChunk chunk;
    chunk.sequence = next_sequence_++;
    chunk.pairs = std::move(pairs);
    usage_.AddChunk(chunk.pairs.size(),
                    chunk.pairs.size() * sizeof(ResultPair));
    queue_.push_back(std::move(chunk));
    max_depth_ = std::max(max_depth_, queue_.size());
    cv_data_.NotifyOne();
  }

  void CloseLocked(Status status, const JoinStats& stats,
                   const StageTiming& timing) REQUIRES(mu_) {
    closed_ = true;
    // A CancelWith stamp overrides the generic cancellation status (every
    // producer closes a cancelled stream with kAborted). Genuine
    // errors and normal completion pass through untouched.
    if (status_override_.has_value() &&
        status.code() == StatusCode::kAborted) {
      status = std::move(*status_override_);
    }
    status_ = std::move(status);
    stats_ = stats;
    timing_ = timing;
    cv_data_.NotifyAll();
    cv_closed_.NotifyAll();
  }

  const std::size_t capacity_;
  CancellationSource cancel_;
  obs::ResourceAccumulator usage_;

  mutable Mutex mu_;
  CondVar cv_data_;    // consumer waits: data or closed
  CondVar cv_space_;   // producer waits: space or cancelled
  CondVar cv_closed_;  // Wait/Collect wait: closed
  std::deque<ResultChunk> queue_ GUARDED_BY(mu_);
  uint64_t next_sequence_ GUARDED_BY(mu_) = 0;
  std::size_t max_depth_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  Status status_ GUARDED_BY(mu_);
  /// Terminal-status stamp from CancelWith; applied by CloseLocked when the
  /// producer closes with the generic cancellation kAborted.
  std::optional<Status> status_override_ GUARDED_BY(mu_);
  JoinStats stats_ GUARDED_BY(mu_);
  StageTiming timing_ GUARDED_BY(mu_);
};

}  // namespace internal

namespace {

using internal::StreamState;

// Coalesces arbitrary-size producer batches into bounded chunks for the
// stream queue: batches accumulate in a staging buffer and full chunks are
// carved from the back (order across chunks is irrelevant -- the result is
// a multiset; carving the front would shift the residue on every carve).
// Every batch of the producer passes through it, whatever its native
// granularity (a finished result, cell-group flushes, write-unit bursts,
// committed shards), so chunk sizes stay bounded in both directions.
class ChunkStager {
 public:
  ChunkStager(std::size_t chunk_pairs, StreamState* state)
      : chunk_pairs_(std::max<std::size_t>(1, chunk_pairs)), state_(state) {}

  /// Adds one producer batch, shipping any full chunks. Batches are
  /// dropped once a push has failed (the consumer cancelled).
  void Add(std::vector<ResultPair> batch) {
    if (push_failed_) return;
    if (staged_.empty()) {
      staged_ = std::move(batch);
    } else {
      staged_.insert(staged_.end(), batch.begin(), batch.end());
    }
    while (!push_failed_ && staged_.size() >= chunk_pairs_) {
      std::vector<ResultPair> chunk(staged_.end() - chunk_pairs_,
                                    staged_.end());
      staged_.resize(staged_.size() - chunk_pairs_);
      if (!state_->Push(std::move(chunk))) push_failed_ = true;
    }
  }

  /// Ships the final partial chunk of a successful run. Returns false when
  /// any push failed (the stream should close Aborted).
  bool FlushTail() {
    if (!push_failed_ && !staged_.empty()) {
      if (!state_->Push(std::move(staged_))) push_failed_ = true;
    }
    return !push_failed_;
  }

  bool push_failed() const { return push_failed_; }

 private:
  const std::size_t chunk_pairs_;
  StreamState* state_;
  std::vector<ResultPair> staged_;
  bool push_failed_ = false;
};

// What the producer joins: caller-owned datasets (a cold stream) or the
// names of datasets resident in a registry (a warm stream).
struct EngineInputs {
  const Dataset* r = nullptr;
  const Dataset* s = nullptr;
  DatasetRegistry* registry = nullptr;
  std::string r_name;
  std::string s_name;
};

// The producer behind every stream: get a plan (a cold Plan, or the warm
// registry's cached PreparedPlan), then ExecuteStreaming or ExecutePrepared
// into one ChunkStager.
//
// Engines that produce results incrementally stream while they run -- the
// grid join's cell groups, the simulated device's write-unit bursts, the
// cluster's committed shards -- and every other engine hands over its
// finished result. On a warm cache hit the plan stage is just the lookup;
// the fetched plan pins its datasets, so a concurrent re-Put of either name
// cannot pull the data out from under the join. The stream's token reaches
// the engine (unstarted cell groups are skipped, the cluster stops
// mid-exchange), and a cancelled stream closes Aborted whether the engine
// stopped early or its remaining batches were dropped.
void RunEngineProducer(JoinEngine& engine, const EngineInputs& in,
                       const EngineConfig& config, const StreamOptions& opts,
                       StreamState* state) {
  StageTiming timing;
  Stopwatch sw;
  obs::ScopedSpan plan_span(config.trace, "plan");
  std::shared_ptr<const PreparedPlan> prepared;
  Status st;
  if (in.registry != nullptr) {
    auto fetched =
        in.registry->GetOrPrepare(engine.name(), in.r_name, in.s_name, config);
    if (fetched.ok()) {
      prepared = std::move(*fetched);
    } else {
      st = fetched.status();
    }
  } else {
    st = engine.Plan(*in.r, *in.s);
  }
  timing.plan_seconds = sw.ElapsedSeconds();
  plan_span.End();
  if (!st.ok()) {
    state->Close(std::move(st), JoinStats{}, timing);
    return;
  }
  if (state->cancelled()) {
    state->Close(Status::Aborted("join cancelled mid-stream"), JoinStats{},
                 timing);
    return;
  }

  obs::ScopedSpan exec_span(config.trace, "execute");
  sw.Reset();
  JoinStats stats;
  ChunkStager stager(opts.chunk_pairs, state);
  const ResultSink sink = [&stager](std::vector<ResultPair> batch) {
    stager.Add(std::move(batch));
  };
  st = prepared != nullptr
           ? engine.ExecutePrepared(*prepared, sink, &stats, state->token(),
                                    state->usage())
           : engine.ExecuteStreaming(sink, &stats, state->token(),
                                     state->usage());
  if (st.ok()) stager.FlushTail();
  timing.execute_seconds = sw.ElapsedSeconds();
  if (stager.push_failed() || state->cancelled()) {
    state->Close(Status::Aborted("join cancelled mid-stream"), stats, timing);
    return;
  }
  state->Close(std::move(st), stats, timing);
}

// Fault containment for the producer: a producer that throws (misbehaving
// engine code, bad_alloc under pressure) must still close the stream with a
// non-OK status -- the alternative is an uncaught exception tearing the
// process down, or (if swallowed carelessly) consumers blocked in
// Next()/Wait() forever on a stream nobody will ever close.
std::function<void()> ContainFaults(std::function<void()> body,
                                    std::shared_ptr<StreamState> state) {
  return [body = std::move(body), state = std::move(state)] {
    try {
      body();
    } catch (const std::exception& e) {
      SWIFT_LOG(Error, "stream", "join producer threw")
          .With("what", e.what());
      state->CloseIfOpen(
          Status::Internal(std::string("join producer threw: ") + e.what()));
    } catch (...) {
      SWIFT_LOG(Error, "stream",
                "join producer threw a non-standard exception");
      state->CloseIfOpen(
          Status::Internal("join producer threw a non-standard exception"));
    }
  };
}

// Observes the per-engine swiftspatial_stream_* series once the producer
// has closed the stream: stage timings from the stream's own StageTiming
// (so the metrics agree with StreamSummary by construction) plus the chunk
// count. Runs on the producer thread after the close -- never on the hot
// chunk path -- so per-request registry lookups are fine here.
std::function<void()> InstrumentProducer(std::string engine,
                                         obs::MetricsRegistry* metrics,
                                         std::function<void()> body,
                                         std::shared_ptr<StreamState> state) {
  return [engine = std::move(engine), metrics, body = std::move(body),
          state = std::move(state)] {
    Stopwatch wall;
    body();
    // Producer wall time (dispatcher pickup / thread start to close): the
    // denominator for the request's CPU-vs-wall parallelism ratio.
    state->usage()->SetWallSeconds(wall.ElapsedSeconds());
    obs::MetricsRegistry& reg =
        metrics != nullptr ? *metrics : obs::MetricsRegistry::Global();
    const StageTiming timing = state->timing();
    reg.GetHistogram("swiftspatial_stream_plan_seconds", {{"engine", engine}}, {}, "Stream producer plan-stage wall time")->Observe(timing.plan_seconds);
    reg.GetHistogram("swiftspatial_stream_execute_seconds", {{"engine", engine}}, {}, "Stream producer execute-stage wall time")->Observe(timing.execute_seconds);
    reg.GetCounter("swiftspatial_stream_chunks_total", {{"engine", engine}}, "Chunks pushed to bounded stream queues")->Increment(state->chunks_pushed());
  };
}

// The fail-fast every stream entry point runs before a producer exists:
// unknown engines are NotFound, and configuration errors the engine can see
// without the data (JoinEngine::ValidateConfig) are InvalidArgument.
Result<std::shared_ptr<JoinEngine>> CreateValidated(
    const std::string& engine, const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  auto created = EngineRegistry::Global().Create(engine, config);
  if (!created.ok()) return created.status();
  SWIFT_RETURN_IF_ERROR((*created)->ValidateConfig());
  return std::shared_ptr<JoinEngine>(std::move(*created));
}

}  // namespace

namespace internal {

// The one place that builds handles and starts producers.
struct StreamAccess {
  // Wraps the producer body `run` into the DeferredStream every entry point
  // returns: fault containment, per-engine metrics, the abandon guard,
  // cancel_with and the usage alias.
  static DeferredStream Defer(
      const std::string& engine, const StreamOptions& stream,
      std::function<void(const std::shared_ptr<StreamState>&)> run) {
    auto state = std::make_shared<StreamState>(stream.queue_capacity);
    // Safety net owned by the producer/abandon closures: if a caller drops
    // both without invoking either (an early-return error path), the last
    // closure's destruction closes the stream so consumers blocked in
    // Next()/Wait() -- including ~AsyncJoinHandle -- never hang.
    auto guard = std::shared_ptr<void>(nullptr, [state](void*) {
      state->CloseIfOpen(
          Status::Aborted("stream dropped without running the producer"));
    });
    std::function<void()> producer = [run = std::move(run), state, guard] {
      run(state);
    };
    producer = InstrumentProducer(engine, stream.metrics,
                                  ContainFaults(std::move(producer), state),
                                  state);
    auto abandon = [state, guard](Status status) {
      state->CloseIfOpen(std::move(status));
    };
    // Deliberately does NOT co-own the abandon guard: a caller that drops
    // the producer and abandon closures must close the stream even while a
    // watchdog still holds cancel_with (cancelling a closed stream is a
    // no-op).
    auto cancel_with = [state](Status status) {
      state->CancelWith(std::move(status));
    };
    guard.reset();  // closures now co-own the safety net
    auto usage =
        std::shared_ptr<obs::ResourceAccumulator>(state, state->usage());
    return DeferredStream{AsyncJoinHandle(state, std::thread()),
                          std::move(producer), std::move(abandon),
                          std::move(cancel_with), state->token(),
                          std::move(usage)};
  }

  // Runs a deferred stream's producer on a dedicated thread owned by the
  // returned handle.
  static Result<AsyncJoinHandle> Start(Result<DeferredStream> deferred) {
    if (!deferred.ok()) return deferred.status();
    DeferredStream d = std::move(*deferred);
    d.handle.producer_ = std::thread(std::move(d.producer));
    return std::move(d.handle);
  }
};

}  // namespace internal

AsyncJoinHandle::AsyncJoinHandle(std::shared_ptr<internal::StreamState> state,
                                 std::thread producer)
    : state_(std::move(state)), producer_(std::move(producer)) {}

void AsyncJoinHandle::Teardown() {
  if (state_ == nullptr) return;  // moved-from
  // Cancel so a blocked producer unblocks, drain so buffered chunks free
  // their memory, then wait for the stream to close -- either our own
  // producer thread finishing, or the serving layer running/abandoning a
  // deferred job (every created stream is guaranteed one of the two; see
  // the abandon guard in StreamAccess::Defer).
  state_->Cancel();
  ResultChunk sink;
  while (state_->Pop(&sink)) {
  }
  state_->WaitClosed();
  if (producer_.joinable()) producer_.join();
  state_.reset();
}

AsyncJoinHandle::~AsyncJoinHandle() { Teardown(); }

AsyncJoinHandle& AsyncJoinHandle::operator=(AsyncJoinHandle&& other) noexcept {
  if (this != &other) {
    // Retire the stream this handle currently owns exactly as the
    // destructor would, then adopt the other's.
    Teardown();
    state_ = std::move(other.state_);
    producer_ = std::move(other.producer_);
  }
  return *this;
}

bool AsyncJoinHandle::Next(ResultChunk* out) { return state_->Pop(out); }

void AsyncJoinHandle::Cancel() { state_->Cancel(); }

Status AsyncJoinHandle::Wait() {
  ResultChunk sink;
  while (state_->Pop(&sink)) {
  }
  state_->WaitClosed();
  if (producer_.joinable()) producer_.join();
  return state_->status();
}

StreamSummary AsyncJoinHandle::Collect() {
  StreamSummary summary;
  ResultChunk chunk;
  while (state_->Pop(&chunk)) {
    ++summary.chunks;
    auto& pairs = summary.run.result.mutable_pairs();
    if (pairs.empty()) {
      pairs = std::move(chunk.pairs);
    } else {
      pairs.insert(pairs.end(), chunk.pairs.begin(), chunk.pairs.end());
    }
  }
  state_->WaitClosed();
  if (producer_.joinable()) producer_.join();
  summary.status = state_->status();
  summary.run.stats = state_->stats();
  summary.run.timing = state_->timing();
  summary.max_queue_depth = state_->max_depth();
  return summary;
}

std::size_t AsyncJoinHandle::max_queue_depth() const {
  return state_->max_depth();
}

Result<DeferredStream> MakeJoinStream(const std::string& engine,
                                      const Dataset& r, const Dataset& s,
                                      const EngineConfig& config,
                                      const StreamOptions& stream) {
  auto created = CreateValidated(engine, config);
  if (!created.ok()) return created.status();
  EngineInputs in;
  in.r = &r;
  in.s = &s;
  return internal::StreamAccess::Defer(
      engine, stream,
      [eng = std::move(*created), in, config,
       stream](const std::shared_ptr<StreamState>& state) {
        RunEngineProducer(*eng, in, config, stream, state.get());
      });
}

Result<AsyncJoinHandle> RunJoinAsync(const std::string& engine,
                                     const Dataset& r, const Dataset& s,
                                     const EngineConfig& config,
                                     const StreamOptions& stream) {
  return internal::StreamAccess::Start(
      MakeJoinStream(engine, r, s, config, stream));
}

Result<DeferredStream> MakeRegisteredJoinStream(
    DatasetRegistry* registry, const std::string& engine,
    const std::string& r_name, const std::string& s_name,
    const EngineConfig& config, const StreamOptions& stream) {
  if (registry == nullptr) {
    return Status::InvalidArgument(
        "MakeRegisteredJoinStream requires a registry");
  }
  auto created = CreateValidated(engine, config);
  if (!created.ok()) return created.status();
  // Unregistered names fail fast too, so admission-time callers
  // (JoinService::SubmitNamed) reject bad requests before queueing them.
  // The producer re-resolves at run time and uses whatever version is then
  // current.
  for (const std::string* name : {&r_name, &s_name}) {
    auto resident = registry->Get(*name);
    if (!resident.ok()) return resident.status();
  }
  EngineInputs in;
  in.registry = registry;
  in.r_name = r_name;
  in.s_name = s_name;
  return internal::StreamAccess::Defer(
      engine, stream,
      [eng = std::move(*created), in = std::move(in), config,
       stream](const std::shared_ptr<StreamState>& state) {
        RunEngineProducer(*eng, in, config, stream, state.get());
      });
}

Result<AsyncJoinHandle> RunJoinAsync(DatasetRegistry& registry,
                                     const std::string& engine,
                                     const std::string& r_name,
                                     const std::string& s_name,
                                     const EngineConfig& config,
                                     const StreamOptions& stream) {
  return internal::StreamAccess::Start(MakeRegisteredJoinStream(
      &registry, engine, r_name, s_name, config, stream));
}

}  // namespace swiftspatial::exec
