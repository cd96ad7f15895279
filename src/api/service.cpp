#include "kbt/service.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "dataflow/parallel.h"

namespace kbt::api {

namespace {

/// Ordinal source for the default per-instance `service` metric label.
std::atomic<int> g_service_ordinal{0};

/// An append batch open for coalescing: the delta accumulated so far and
/// one promise per SubmitAppend call that joined it. Owned jointly by the
/// session (while the window is open) and by the queued task that will
/// apply it.
struct PendingAppend {
  std::vector<extract::RawObservation> observations;
  std::vector<std::promise<Status>> promises;
};

/// RAII -1 on a session's queue-depth gauge when its task finishes,
/// whatever the exit path. (Toggling SetMetricsEnabled while requests are
/// in flight can skew depth gauges by the in-flight count; see
/// docs/OBSERVABILITY.md.)
class QueueDepthGuard {
 public:
  explicit QueueDepthGuard(obs::Gauge* gauge) : gauge_(gauge) {}
  ~QueueDepthGuard() { KBT_OBS_GAUGE_ADD(gauge_, -1.0); }
  QueueDepthGuard(const QueueDepthGuard&) = delete;
  QueueDepthGuard& operator=(const QueueDepthGuard&) = delete;

 private:
  obs::Gauge* gauge_;
};

template <typename T>
std::future<T> ReadyFuture(T value) {
  std::promise<T> promise;
  promise.set_value(std::move(value));
  return promise.get_future();
}

/// The default tick-time clock (seconds since the Unix epoch) when
/// StreamOptions::clock is unset.
double SystemClockSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Background cadence for an attached stream: a dedicated thread firing
/// `tick` every `interval`, sleeping interruptibly (CondVar::WaitFor) so
/// Stop() returns promptly instead of waiting out the interval. A spurious
/// wakeup fires a tick early — harmless (an empty feed makes it a cheap
/// no-op), so the loop deliberately does not re-arm the deadline.
class StreamTicker {
 public:
  StreamTicker(std::function<void()> tick, std::chrono::nanoseconds interval)
      : tick_(std::move(tick)),
        interval_(interval),
        thread_([this] { Loop(); }) {}

  ~StreamTicker() { Stop(); }

  StreamTicker(const StreamTicker&) = delete;
  StreamTicker& operator=(const StreamTicker&) = delete;

  /// Idempotent; joins the ticker thread. Never call while holding a lock
  /// the tick callback takes.
  void Stop() {
    {
      MutexLock lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.NotifyAll();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    while (true) {
      {
        MutexLock lock(mutex_);
        if (stopped_) return;
        cv_.WaitFor(mutex_, interval_);
        if (stopped_) return;
      }
      tick_();
    }
  }

  std::function<void()> tick_;
  std::chrono::nanoseconds interval_;
  Mutex mutex_;
  bool stopped_ KBT_GUARDED_BY(mutex_) = false;
  CondVar cv_;
  std::thread thread_;
};

}  // namespace

struct TrustService::Session {
  Session(Pipeline p, ThreadPool* pool)
      : pipeline(std::move(p)), queue(pool) {}
  Session(ShardedPipeline p, ThreadPool* pool)
      : sharded(std::move(p)), queue(pool) {}

  /// The session's backend — exactly one engaged. Requests route on
  /// `sharded.has_value()`; the session surface is identical either way.
  std::optional<Pipeline> pipeline;
  std::optional<ShardedPipeline> sharded;

  /// Last completed sharded run, retained for SubmitRunFrom warm starts:
  /// per-shard inference state does not flatten into the merged report, so
  /// the caller-supplied `previous` cannot carry it. Strand-confined —
  /// touched only from this session's queued tasks, so no lock.
  std::shared_ptr<const ShardedTrustReport> last_sharded;

  /// Per-session strand on the shared pool: the FIFO guarantee.
  SerialQueue queue;

  std::shared_ptr<query::SnapshotRegistry> registry() const {
    return sharded ? sharded->snapshot_registry()
                   : pipeline->snapshot_registry();
  }

  Status Append(const std::vector<extract::RawObservation>& observations) {
    return sharded ? sharded->AppendObservations(observations)
                   : pipeline->AppendObservations(observations);
  }

  /// Guards the coalescing window. Ordering between this and the service
  /// mutex: never held together.
  Mutex mutex;
  /// The queued-but-not-started append batch new appends may merge into;
  /// null when the window is closed (nothing queued, or a run was queued
  /// after the batch).
  std::shared_ptr<PendingAppend> open_append KBT_GUARDED_BY(mutex);

  /// Depth of this session's strand (queued + executing requests), as a
  /// dashboard gauge. Set by State::AddSession; +1 per enqueued task, -1
  /// when the task finishes (coalesced appends ride an already-counted
  /// task).
  obs::Gauge* queue_depth = nullptr;

  /// The attached streaming engine (AttachStream), null when detached.
  /// Shared so queued ticks pin it past a detach — they drain harmlessly.
  std::shared_ptr<stream::StreamEngine> stream_engine KBT_GUARDED_BY(mutex);
  /// Background cadence when StreamOptions::tick_interval > 0. Declared
  /// LAST so it is destroyed FIRST: the ticker thread joins before any
  /// member it reaches through this session goes away.
  std::unique_ptr<StreamTicker> ticker KBT_GUARDED_BY(mutex);
};

/// The service's registered metric handles: resolved once at
/// construction (a mutex-guarded registry lookup each), recorded into
/// lock-free forever after. One source of truth — TrustService::stats()
/// is a view over the five counters.
struct ServiceMetrics {
  /// Queue-wait + execute latency pair for one Submit kind.
  struct PerKind {
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* execute = nullptr;
  };

  void Init(obs::MetricsRegistry* registry, const std::string& label) {
    const obs::Labels service{{"service", label}};
    runs_submitted =
        registry->GetCounter("kbt_service_runs_submitted_total", service);
    appends_submitted =
        registry->GetCounter("kbt_service_appends_submitted_total", service);
    appends_coalesced =
        registry->GetCounter("kbt_service_appends_coalesced_total", service);
    append_batches_executed =
        registry->GetCounter("kbt_service_append_batches_total", service);
    snapshots_published =
        registry->GetCounter("kbt_service_snapshots_published_total",
                             service);
    const auto kind = [&](const char* name) {
      PerKind per_kind;
      obs::Labels labels = service;
      labels.emplace_back("kind", name);
      per_kind.queue_wait =
          registry->GetHistogram("kbt_service_queue_wait_seconds", labels);
      per_kind.execute =
          registry->GetHistogram("kbt_service_execute_seconds", labels);
      return per_kind;
    };
    run = kind("run");
    run_from = kind("run_from");
    append = kind("append");
    tick = kind("tick");
  }

  obs::Counter* runs_submitted = nullptr;
  obs::Counter* appends_submitted = nullptr;
  obs::Counter* appends_coalesced = nullptr;
  obs::Counter* append_batches_executed = nullptr;
  obs::Counter* snapshots_published = nullptr;
  PerKind run, run_from, append, tick;
};

namespace {

/// The request lifecycle every strand task runs under, shared by the four
/// Submit kinds and the periodic tick. Call it at submit time: it stamps
/// the submit (queue wait is recorded only when metrics were on here) and
/// counts the task into the session's depth gauge. The returned task, run
/// on the strand, records queue wait into `kind`, holds the -1 depth guard,
/// times execute and opens `span` around `body`. It takes no lock, so the
/// caller's session -> queue -> pool order is unchanged.
template <typename Body>
auto LifecycleTask(const ServiceMetrics::PerKind& kind,
                   obs::Gauge* queue_depth, const char* span, Body body) {
  const uint64_t submit_ns =
      obs::MetricsEnabled() ? obs::MonotonicNanos() : 0;
  KBT_OBS_GAUGE_ADD(queue_depth, 1.0);
  return [kind, queue_depth, span, submit_ns, body = std::move(body)] {
    if (submit_ns != 0) {
      kind.queue_wait->Record(
          static_cast<double>(obs::MonotonicNanos() - submit_ns) * 1e-9);
    }
    QueueDepthGuard depth_guard(queue_depth);
    obs::ScopedTimer execute_timer(kind.execute);
    KBT_TRACE_SPAN(span);
    return body();
  };
}

}  // namespace

struct TrustService::State {
  ServiceOptions options;
  dataflow::Executor* executor = nullptr;

  /// Guards `sessions` only; the metric handles are lock-free so the
  /// submit fast path of one session never contends with another's.
  mutable Mutex mutex;
  /// shared_ptr ownership: a request task (or a caller-held future chain)
  /// pins its Session, so CloseSession racing a submit frees nothing that
  /// is still in use.
  std::map<std::string, std::shared_ptr<Session>> sessions
      KBT_GUARDED_BY(mutex);

  /// Registry + label the instance registers under, and the resolved
  /// handles (see ServiceOptions::metrics / metrics_label).
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_label;
  ServiceMetrics metrics;

  /// Runs on the session strand right after a completed run: publishes the
  /// report as the session's served snapshot (when configured). The strand
  /// serializes this against every other pipeline touch; readers observe
  /// the swap lock-free.
  void MaybePublish(Session& session, const StatusOr<TrustReport>& report);
  /// Sharded counterpart: publishes every shard's snapshot plus the
  /// flattened merged snapshot on the session's serving registry.
  void MaybePublishSharded(Session& session,
                           const StatusOr<ShardedTrustReport>& reports);

  std::shared_ptr<Session> Find(const std::string& name) const {
    MutexLock lock(mutex);
    const auto it = sessions.find(name);
    return it == sessions.end() ? nullptr : it->second;
  }

  /// Adopts `backend` (a Pipeline or a ShardedPipeline) as session `name`:
  /// reserve the name, enable the disk cache, attach the service executor,
  /// then publish — rolling the reservation back if the cache fails. The
  /// caller keeps `backend` untouched unless this returns OK.
  template <typename Backend>
  Status AddSession(const std::string& name, Backend& backend);
};

template <typename Backend>
Status TrustService::State::AddSession(const std::string& name,
                                       Backend& backend) {
  {
    // Reserve the name first (null placeholder), so the collision check
    // happens before the pipeline is touched in any way — a naming
    // collision leaves the caller's (possibly expensively warmed)
    // pipeline fully intact — and so the filesystem work below (cache
    // directory creation + stale-temp sweep) runs WITHOUT the service
    // lock that gates every session's submit path. A placeholder behaves
    // as "not found" for submits/close until the session is published.
    MutexLock lock(mutex);
    const auto it = sessions.find(name);
    if (it != sessions.end()) {
      // Distinguish a published session from another creator's in-flight
      // reservation (which may yet be rolled back): a caller seeing the
      // latter can retry, matching HasSession's "not found until
      // published" view.
      return Status::InvalidArgument(
          it->second != nullptr
              ? "session '" + name + "' already exists"
              : "session '" + name + "' is being created concurrently");
    }
    sessions.emplace(name, nullptr);
  }
  if (!options.cache_directory.empty()) {
    // A sharded backend namespaces its shards under cache_directory/
    // shard-<i>; entries are content-addressed, so sessions sharing the
    // root is safe.
    const Status enabled =
        backend.EnableDiskCache(options.cache_directory,
                                options.cache_max_bytes);
    if (!enabled.ok()) {
      MutexLock lock(mutex);
      sessions.erase(name);
      return enabled;
    }
  }
  // Request tasks and the stages inside them share one pool: the adopted
  // pipeline's parallel loops must run on the service executor (whose
  // joins are reentrant), whatever the builder had attached.
  backend.AttachExecutor(executor);
  auto session = std::make_shared<Session>(std::move(backend),
                                           &executor->pool());
  session->queue_depth = registry->GetGauge(
      "kbt_service_queue_depth",
      {{"service", metrics_label}, {"session", name}});
  MutexLock lock(mutex);
  sessions[name] = std::move(session);
  return Status::OK();
}

void TrustService::State::MaybePublish(Session& session,
                                       const StatusOr<TrustReport>& report) {
  if (!options.publish_snapshots || !report.ok()) return;
  session.pipeline->PublishSnapshot(*report);
  metrics.snapshots_published->Increment();
}

void TrustService::State::MaybePublishSharded(
    Session& session, const StatusOr<ShardedTrustReport>& reports) {
  if (!options.publish_snapshots || !reports.ok()) return;
  session.sharded->PublishSnapshot(*reports);
  metrics.snapshots_published->Increment();
}

TrustService::TrustService(ServiceOptions options)
    : state_(std::make_shared<State>()) {
  state_->options = options;
  state_->executor =
      options.executor != nullptr ? options.executor
                                  : &dataflow::DefaultExecutor();
  state_->registry = options.metrics != nullptr
                         ? options.metrics
                         : &obs::MetricsRegistry::Default();
  state_->metrics_label =
      !options.metrics_label.empty()
          ? options.metrics_label
          : "svc" + std::to_string(g_service_ordinal.fetch_add(
                        1, std::memory_order_relaxed));
  state_->metrics.Init(state_->registry, state_->metrics_label);
}

TrustService::~TrustService() { Drain(); }

Status TrustService::CreateSession(const std::string& name,
                                   Pipeline&& pipeline) {
  return state_->AddSession(name, pipeline);
}

Status TrustService::CreateSession(const std::string& name,
                                   PipelineBuilder builder) {
  StatusOr<Pipeline> pipeline = builder.Build();
  if (!pipeline.ok()) return pipeline.status();
  return CreateSession(name, std::move(*pipeline));
}

Status TrustService::CreateShardedSession(const std::string& name,
                                          ShardedPipeline&& pipeline) {
  return state_->AddSession(name, pipeline);
}

Status TrustService::CloseSession(const std::string& name) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(state_->mutex);
    const auto it = state_->sessions.find(name);
    // A null mapping is a CreateSession still in flight (name reserved,
    // session not yet published): not closable, and not erasable without
    // yanking the reservation from under the creator.
    if (it == state_->sessions.end() || it->second == nullptr) {
      return Status::NotFound("no session '" + name + "'");
    }
    session = std::move(it->second);
    state_->sessions.erase(it);
  }
  // Stop any attached stream first: a live ticker would keep enqueueing
  // ticks past the drain below. Implicit DetachStream, per the contract.
  std::unique_ptr<StreamTicker> ticker;
  {
    MutexLock session_lock(session->mutex);
    ticker = std::move(session->ticker);
  }
  if (ticker != nullptr) ticker->Stop();
  {
    MutexLock session_lock(session->mutex);
    session->stream_engine.reset();
  }
  // Drain outside the service lock. Requests already queued (and any a
  // racing submitter slips in through a Find() it performed before the
  // erase) still hold the Session alive via their shared_ptr captures;
  // the object is freed when the last of them finishes.
  session->queue.Wait();
  return Status::OK();
}

bool TrustService::HasSession(const std::string& name) const {
  return state_->Find(name) != nullptr;
}

std::vector<std::string> TrustService::SessionNames() const {
  MutexLock lock(state_->mutex);
  std::vector<std::string> names;
  names.reserve(state_->sessions.size());
  for (const auto& [name, session] : state_->sessions) {
    // Skip reservations of CreateSessions still in flight.
    if (session != nullptr) names.push_back(name);
  }
  return names;
}

std::future<StatusOr<TrustReport>> TrustService::SubmitRun(
    const std::string& session_name) {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return ReadyFuture<StatusOr<TrustReport>>(
        Status::NotFound("no session '" + session_name + "'"));
  }
  state_->metrics.runs_submitted->Increment();
  auto task = LifecycleTask(
      state_->metrics.run, session->queue_depth, "service.run",
      [state = state_, session]() -> StatusOr<TrustReport> {
        if (session->sharded) {
          // The scatter's TaskGroup join donates this strand's thread, so
          // running K shards from here cannot deadlock the shared pool.
          StatusOr<ShardedTrustReport> reports = session->sharded->Run();
          state->MaybePublishSharded(*session, reports);
          if (!reports.ok()) return reports.status();
          session->last_sharded = std::make_shared<const ShardedTrustReport>(
              std::move(*reports));
          return session->last_sharded->merged;
        }
        StatusOr<TrustReport> report = session->pipeline->Run();
        state->MaybePublish(*session, report);
        return report;
      });
  // The window close and the enqueue happen atomically under the session
  // mutex (lock order: session -> queue -> pool, never inverted): a run
  // closes the coalescing window, and appends submitted after this call
  // returns land behind the run on the strand.
  MutexLock lock(session->mutex);
  session->open_append.reset();
  return session->queue.SubmitWithResult(std::move(task));
}

std::future<StatusOr<TrustReport>> TrustService::SubmitRunFrom(
    const std::string& session_name, TrustReport previous) {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return ReadyFuture<StatusOr<TrustReport>>(
        Status::NotFound("no session '" + session_name + "'"));
  }
  state_->metrics.runs_submitted->Increment();
  auto task = LifecycleTask(
      state_->metrics.run_from, session->queue_depth, "service.run_from",
      [state = state_, session,
       previous = std::move(previous)]() -> StatusOr<TrustReport> {
        if (session->sharded) {
          // Warm starts need per-shard inference state, which the flattened
          // `previous` cannot carry: use the session-retained last sharded
          // report instead (see CreateShardedSession's contract).
          if (session->last_sharded == nullptr) {
            return Status::FailedPrecondition(
                "sharded session has no completed run to warm-start from");
          }
          StatusOr<ShardedTrustReport> reports =
              session->sharded->RunFrom(*session->last_sharded);
          state->MaybePublishSharded(*session, reports);
          if (!reports.ok()) return reports.status();
          session->last_sharded = std::make_shared<const ShardedTrustReport>(
              std::move(*reports));
          return session->last_sharded->merged;
        }
        StatusOr<TrustReport> report = session->pipeline->RunFrom(previous);
        state->MaybePublish(*session, report);
        return report;
      });
  MutexLock lock(session->mutex);
  session->open_append.reset();
  return session->queue.SubmitWithResult(std::move(task));
}

std::future<Status> TrustService::SubmitAppend(
    const std::string& session_name,
    std::vector<extract::RawObservation> observations) {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return ReadyFuture<Status>(
        Status::NotFound("no session '" + session_name + "'"));
  }
  state_->metrics.appends_submitted->Increment();

  std::shared_ptr<PendingAppend> batch;
  std::future<Status> future;
  {
    // Window inspection, batch creation AND the strand enqueue happen
    // under one session-mutex hold: publishing an open window whose task
    // is not yet queued would let a racing run jump ahead of an append
    // that already merged into it and returned to its caller.
    MutexLock lock(session->mutex);
    if (state_->options.coalesce_appends && session->open_append != nullptr) {
      // Merge into the batch already queued on the strand; the single
      // AppendObservations call will resolve this future too.
      PendingAppend& open = *session->open_append;
      open.observations.insert(
          open.observations.end(),
          std::make_move_iterator(observations.begin()),
          std::make_move_iterator(observations.end()));
      open.promises.emplace_back();
      future = open.promises.back().get_future();
    } else {
      batch = std::make_shared<PendingAppend>();
      batch->observations = std::move(observations);
      batch->promises.emplace_back();
      future = batch->promises.back().get_future();
      if (state_->options.coalesce_appends) session->open_append = batch;
      // Only a new batch is a new task: a coalesced append rides the task
      // (and the depth count) already queued.
      session->queue.Submit(LifecycleTask(
          state_->metrics.append, session->queue_depth, "service.append",
          [state = state_, session, batch] {
            std::vector<extract::RawObservation> merged;
            std::vector<std::promise<Status>> promises;
            {
              // Close the window before touching the pipeline: appends
              // submitted from here on start a new batch (and a new task).
              MutexLock lock(session->mutex);
              merged = std::move(batch->observations);
              promises = std::move(batch->promises);
              if (session->open_append == batch) session->open_append.reset();
            }
            const Status status = session->Append(merged);
            state->metrics.append_batches_executed->Increment();
            for (std::promise<Status>& promise : promises) {
              promise.set_value(status);
            }
          }));
    }
  }
  if (batch == nullptr) {
    state_->metrics.appends_coalesced->Increment();
  }
  return future;
}

Status TrustService::AttachStream(const std::string& session_name,
                                  std::shared_ptr<stream::ObservationFeed> feed,
                                  stream::StreamOptions options) {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return Status::NotFound("no session '" + session_name + "'");
  }
  if (feed == nullptr) {
    return Status::InvalidArgument("AttachStream requires a feed");
  }
  if (!options.clock) options.clock = SystemClockSeconds;
  const double interval = options.tick_interval;

  // Build the engine ON THE STRAND: StreamEngine::Create reads the live
  // dataset (to seed its decay timeline) and sets registry retention, so it
  // must serialize with in-flight appends and runs like every other
  // pipeline touch. The double-attach check needs no extra care: every
  // attach goes through a strand task, so two racing AttachStreams
  // serialize here and the loser sees the winner's engine.
  std::future<Status> attached;
  {
    MutexLock lock(session->mutex);
    attached = session->queue.SubmitWithResult(
        [session, feed = std::move(feed),
         options = std::move(options)]() mutable -> Status {
          {
            MutexLock lock(session->mutex);
            if (session->stream_engine != nullptr) {
              return Status::FailedPrecondition(
                  "session already has a stream attached — DetachStream "
                  "first");
            }
          }
          StatusOr<std::unique_ptr<stream::StreamEngine>> engine =
              session->sharded
                  ? stream::StreamEngine::Create(
                        &*session->sharded, std::move(feed), std::move(options))
                  : stream::StreamEngine::Create(&*session->pipeline,
                                                 std::move(feed),
                                                 std::move(options));
          if (!engine.ok()) return engine.status();
          MutexLock lock(session->mutex);
          session->stream_engine = std::move(*engine);
          return Status::OK();
        });
  }
  const Status status = attached.get();
  if (!status.ok()) return status;

  if (interval > 0.0) {
    // The ticker holds WEAK session and state pointers (it is owned by the
    // session, which the state owns — a strong capture of either would be
    // a cycle and the session would never die, leaving the ticker thread
    // firing into the executor past process teardown). Each firing
    // re-resolves the engine, stamps the tick with the stream's clock, and
    // enqueues it on the strand; the queued task's shared_ptrs keep state,
    // session and engine alive through the tick. The result is
    // deliberately dropped: periodic ticks are fire-and-forget, counters
    // and alert callbacks carry the observability.
    std::weak_ptr<Session> weak = session;
    auto tick = [weak, weak_state = std::weak_ptr<State>(state_)] {
      std::shared_ptr<Session> session = weak.lock();
      std::shared_ptr<State> state = weak_state.lock();
      if (session == nullptr || state == nullptr) return;
      std::shared_ptr<stream::StreamEngine> engine;
      {
        MutexLock lock(session->mutex);
        engine = session->stream_engine;
      }
      if (engine == nullptr) return;
      const double now = engine->options().clock();
      // Periodic ticks report into the same kind=tick lifecycle metrics
      // as SubmitTick — one request class either way.
      // The task pins state and session (whose pipeline the engine
      // drives) through the tick, like every request task.
      session->queue.Submit(LifecycleTask(
          state->metrics.tick, session->queue_depth, "service.tick",
          [state, session, engine, now] { (void)engine->Tick(now); }));
    };
    const auto interval_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(interval));
    MutexLock lock(session->mutex);
    if (session->stream_engine != nullptr && session->ticker == nullptr) {
      session->ticker =
          std::make_unique<StreamTicker>(std::move(tick), interval_ns);
    }
  }
  return Status::OK();
}

Status TrustService::DetachStream(const std::string& session_name) {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return Status::NotFound("no session '" + session_name + "'");
  }
  std::unique_ptr<StreamTicker> ticker;
  {
    MutexLock lock(session->mutex);
    ticker = std::move(session->ticker);
  }
  // Join the ticker BEFORE dropping the engine: a firing in flight still
  // resolves the engine and enqueues one last tick, which drains
  // harmlessly (the queued task pins the engine).
  if (ticker != nullptr) ticker->Stop();
  MutexLock lock(session->mutex);
  if (session->stream_engine == nullptr) {
    return Status::FailedPrecondition("no stream attached to session '" +
                                      session_name + "'");
  }
  session->stream_engine.reset();
  return Status::OK();
}

std::future<StatusOr<stream::TickResult>> TrustService::SubmitTick(
    const std::string& session_name, double now) {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return ReadyFuture<StatusOr<stream::TickResult>>(
        Status::NotFound("no session '" + session_name + "'"));
  }
  MutexLock lock(session->mutex);
  std::shared_ptr<stream::StreamEngine> engine = session->stream_engine;
  if (engine == nullptr) {
    return ReadyFuture<StatusOr<stream::TickResult>>(
        Status::FailedPrecondition("no stream attached to session '" +
                                   session_name + "'"));
  }
  // A tick appends + runs: close the coalescing window like SubmitRun, so
  // appends submitted after this call land behind the tick on the strand.
  session->open_append.reset();
  return session->queue.SubmitWithResult(LifecycleTask(
      state_->metrics.tick, session->queue_depth, "service.tick",
      [state = state_, session, engine = std::move(engine), now] {
        return engine->Tick(now);
      }));
}

StatusOr<stream::StreamStats> TrustService::StreamingStats(
    const std::string& session_name) const {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return Status::NotFound("no session '" + session_name + "'");
  }
  MutexLock lock(session->mutex);
  if (session->stream_engine == nullptr) {
    return Status::FailedPrecondition("no stream attached to session '" +
                                      session_name + "'");
  }
  return session->stream_engine->stats();
}

StatusOr<query::SnapshotReader> TrustService::Query(
    const std::string& session_name) const {
  std::shared_ptr<Session> session = state_->Find(session_name);
  if (session == nullptr) {
    return Status::NotFound("no session '" + session_name + "'");
  }
  // The reader holds the registry (not the session): queries keep working
  // off the last published snapshot even after the session closes, and
  // never touch the pipeline itself. Sharded sessions serve their merged
  // logical registry — indistinguishable to the reader.
  return query::SnapshotReader(session->registry());
}

void TrustService::Drain() {
  // Snapshot under the lock, wait outside it: a draining request may be
  // long, and request tasks never touch the session map.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    MutexLock lock(state_->mutex);
    sessions.reserve(state_->sessions.size());
    for (const auto& [name, session] : state_->sessions) {
      // Skip reservations (null): nothing is queued on an unpublished
      // session, and requests submitted after this snapshot are out of
      // Drain's contract anyway.
      if (session != nullptr) sessions.push_back(session);
    }
  }
  for (const std::shared_ptr<Session>& session : sessions) {
    session->queue.Wait();
  }
}

TrustService::Stats TrustService::stats() const {
  // Thin view over the obs registry counters (the source of truth); see
  // the Stats declaration. The counters increment unconditionally — the
  // Stats contract predates the obs switch, so stats() keeps counting
  // even with SetMetricsEnabled(false).
  Stats stats;
  stats.runs_submitted = state_->metrics.runs_submitted->Value();
  stats.appends_submitted = state_->metrics.appends_submitted->Value();
  stats.appends_coalesced = state_->metrics.appends_coalesced->Value();
  stats.append_batches_executed =
      state_->metrics.append_batches_executed->Value();
  stats.snapshots_published = state_->metrics.snapshots_published->Value();
  return stats;
}

}  // namespace kbt::api
