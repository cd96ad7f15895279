// serve_open: one TrustService session on the 100-source synthetic cube
// with an attached QueueFeed, driven open loop at fixed rates by a single
// generator thread. Reads run inline on the generator; appends and ticks
// are submitted without waiting, and a waiter thread records when each
// write's future resolves. Every request is timed from its scheduled send
// time.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <thread>

#include "util.h"

namespace perfbench {

namespace {

using kbt::api::TrustService;
using kbt::StatusOr;
using kbt::extract::RawObservation;

constexpr int kSetups = 5;
constexpr double kQueryRate = 2000.0;  // read requests per second
constexpr double kAppendRate = 20.0;   // appends per second
constexpr size_t kAppendSize = 64;     // observations per append
constexpr double kTickRate = 2.0;      // stream ticks per second
constexpr size_t kTickSize = 256;      // observations pushed per tick
constexpr size_t kSeedSize = 20000;    // observations the session starts on
// One worker serves the session. With three, the tick's EM time swung
// between 110 and 290 ms from run to run, with however much parallel
// speedup the shared host allowed at the moment; with one it swung far
// less (see BENCHMARK.md).
constexpr int kServiceThreads = 1;
constexpr char kSession[] = "serve";
constexpr char kLabel[] = "perfbench";

enum class Kind { kQuery, kAppend, kTick };

struct Event {
  double offset = 0.0;  // seconds after the loop starts
  Kind kind = Kind::kQuery;
  size_t index = 0;     // per-kind ordinal
};

std::vector<Event> Schedule(double seconds) {
  std::vector<Event> events;
  const auto add = [&](Kind kind, double rate, double phase) {
    for (size_t i = 0;; ++i) {
      const double t = (static_cast<double>(i) + phase) / rate;
      if (t >= seconds) break;
      events.push_back({t, kind, i});
    }
  };
  add(Kind::kQuery, kQueryRate, 0.5);
  add(Kind::kAppend, kAppendRate, 0.3);
  add(Kind::kTick, kTickRate, 0.9);
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.offset < b.offset;
                   });
  return events;
}

kbt::api::Options ServeOptions() {
  kbt::api::Options options;
  options.multilayer.min_source_support = 1;
  return options;
}

// The generated input: the seed cube the session starts from, and the
// held-out pool appends and ticks replay, in schedule order.
struct Input {
  kbt::extract::RawDataset seed;
  std::vector<RawObservation> pool;
};

// Every seed yields the same input size: the generated cube is shuffled,
// the pool taken from its end and the seed cube cut to kSeedSize.
StatusOr<Input> MakeInput(uint64_t seed, size_t pool_size) {
  kbt::exp::SyntheticConfig config;
  config.num_sources = 100;
  config.num_extractors = 8;
  config.num_subjects = 60;
  config.num_predicates = 8;
  config.seed = seed;
  Input input;
  input.seed = kbt::exp::GenerateSynthetic(config).data;
  auto& all = input.seed.observations;
  if (all.size() < kSeedSize + pool_size) {
    return kbt::Status::OutOfRange("synthetic cube too small for the run");
  }
  std::mt19937_64 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  input.pool.assign(all.end() - static_cast<long>(pool_size), all.end());
  all.resize(kSeedSize);
  return input;
}

std::vector<kbt::stream::TimedObservation> Timed(
    const std::vector<RawObservation>& pool, size_t begin, size_t n,
    double time) {
  std::vector<kbt::stream::TimedObservation> batch;
  for (size_t i = begin; i < begin + n && i < pool.size(); ++i) {
    batch.push_back({pool[i], time});
  }
  return batch;
}

// A live session: the service, its feed and a reader.
struct Session {
  std::unique_ptr<kbt::obs::MetricsRegistry> registry;
  std::unique_ptr<TrustService> service;
  std::shared_ptr<kbt::stream::QueueFeed> feed;
  kbt::query::SnapshotReader reader;
  size_t first_tick_ingested = 0;
};

// Closes the service before the registry it reports into goes away.
void CloseSession(Session* session) {
  session->reader = kbt::query::SnapshotReader();
  session->service.reset();
  session->feed.reset();
  session->registry.reset();
}

kbt::Status OpenSession(const Input& input, kbt::dataflow::Executor* executor,
                        Session* session) {
  session->registry = std::make_unique<kbt::obs::MetricsRegistry>();
  TrustService::ServiceOptions options;
  options.executor = executor;
  options.metrics = session->registry.get();
  options.metrics_label = kLabel;
  session->service = std::make_unique<TrustService>(options);
  kbt::api::PipelineBuilder builder;
  builder.FromDataset(input.seed).WithOptions(ServeOptions());
  KBT_RETURN_IF_ERROR(
      session->service->CreateSession(kSession, std::move(builder)));
  session->feed = std::make_shared<kbt::stream::QueueFeed>();
  kbt::stream::StreamOptions stream_options;
  stream_options.warm_start = true;
  KBT_RETURN_IF_ERROR(session->service->AttachStream(kSession, session->feed,
                                                     stream_options));
  // The first tick runs cold and publishes the generation readers start on.
  session->feed->PushBatch(Timed(input.pool, 0, kTickSize, 0.0));
  auto first = session->service->SubmitTick(kSession, 0.0).get();
  if (!first.ok()) return first.status();
  session->first_tick_ingested = first->observations_ingested;
  auto reader = session->service->Query(kSession);
  if (!reader.ok()) return reader.status();
  session->reader = std::move(*reader);
  return kbt::Status::OK();
}

// What the waiter thread learns about one submitted write.
struct Resolved {
  Kind kind = Kind::kAppend;
  size_t index = 0;
  double due = 0.0;
  double done = 0.0;
  bool ok = false;
  size_t ingested = 0;  // ticks: observations the tick polled
  std::shared_ptr<const kbt::query::Snapshot> snapshot;
};

struct Pending {
  Resolved info;
  std::future<kbt::Status> append;
  std::future<StatusOr<kbt::stream::TickResult>> tick;
};

// Resolves submitted writes in submission order (the session strand is
// FIFO, so that is also completion order) and stamps each on resolution.
class Waiter {
 public:
  Waiter() : thread_([this] { Loop(); }) {}
  ~Waiter() { Finish(); }

  void Push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(pending));
    }
    ready_.notify_one();
  }

  // Waits for every pushed write; returns them in submission order.
  std::vector<Resolved> Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
    if (thread_.joinable()) thread_.join();
    return std::move(resolved_);
  }

 private:
  void Loop() {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        pending = std::move(queue_.front());
        queue_.pop_front();
      }
      Resolved info = pending.info;
      if (info.kind == Kind::kAppend) {
        info.ok = pending.append.get().ok();
      } else {
        auto tick = pending.tick.get();
        info.ok = tick.ok();
        if (tick.ok()) {
          info.ingested = tick->observations_ingested;
          info.snapshot = tick->snapshot;
        }
      }
      info.done = Now();
      resolved_.push_back(std::move(info));
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  std::vector<Resolved> resolved_;
  std::thread thread_;
};

double HistogramMean(const kbt::obs::RegistrySnapshot& snapshot,
                     const std::string& name, const std::string& kind) {
  const kbt::obs::MetricSnapshot* metric =
      snapshot.Find(name, {{"kind", kind}, {"service", kLabel}});
  if (metric == nullptr || metric->histogram.total_weight <= 0.0) return 0.0;
  return metric->histogram.weighted_sum / metric->histogram.total_weight;
}

}  // namespace

void RunServe(const Args& args, RawResult* result) {
  // The generator gets the last CPU to itself; the service's executor and
  // the waiter are created on the others and stay there.
  const CpuSplit cpus = SplitCpus();
  if (cpus.ok) RunOn(cpus.rest);
  kbt::dataflow::Executor executor(kServiceThreads);
  result->Scalar("executor_threads", kServiceThreads);
  result->Scalar("rate.query_per_s", kQueryRate);
  result->Scalar("rate.append_per_s", kAppendRate);
  result->Scalar("rate.append_size", kAppendSize);
  result->Scalar("rate.tick_per_s", kTickRate);
  result->Scalar("rate.tick_size", kTickSize);

  const std::vector<Event> events = Schedule(args.seconds);
  size_t appends = 0;
  size_t ticks = 0;
  for (const Event& e : events) {
    appends += e.kind == Kind::kAppend;
    ticks += e.kind == Kind::kTick;
  }
  const size_t pool_needed = (ticks + 1) * kTickSize + appends * kAppendSize;

  // ---- Set-up, repeated: generate the input and open the session ----
  Input input;
  Session session;
  for (int i = 0; i < kSetups; ++i) {
    CloseSession(&session);
    const double start = Now();
    auto made = MakeInput(args.seed, pool_needed);
    if (!made.ok()) {
      result->Fail(made.status().ToString());
      return;
    }
    input = std::move(*made);
    const kbt::Status opened = OpenSession(input, &executor, &session);
    if (!opened.ok()) {
      result->Fail("open session: " + opened.ToString());
      return;
    }
    result->Sample("setup_s", Now() - start);
  }
  ReleaseFreeMemory();
  result->Scalar("cube.observations",
                 static_cast<double>(input.seed.size() + input.pool.size()));
  result->Scalar("cube.seed_observations",
                 static_cast<double>(input.seed.size()));
  result->Scalar("cube.sources", 100);
  const size_t first_ingested = session.first_tick_ingested;
  TrustService& service = *session.service;
  kbt::obs::Gauge* depth = session.registry->GetGauge(
      "kbt_service_queue_depth", {{"service", kLabel}, {"session", kSession}});
  session.registry->ResetValues();
  const kbt::query::Snapshot* first_view = session.reader.view();
  size_t num_queries = 0;
  for (const Event& e : events) num_queries += e.kind == Kind::kQuery;
  const std::vector<ReadKeys> keys =
      DrawReadKeys({first_view}, num_queries, args.seed);

  // ---- Measured open loop ----
  if (args.trace) kbt::obs::SetTracingEnabled(true);
  const uint64_t spans_before =
      kbt::obs::TraceRecorder::Default().spans_recorded();
  Waiter waiter;
  if (cpus.ok) RunOn(cpus.last);
  std::vector<double> due(events.size());
  const double start = Now() + 0.05;
  for (size_t i = 0; i < events.size(); ++i) due[i] = start + events[i].offset;
  const kbt::query::Snapshot* last_view = first_view;
  size_t refreshes = 0;
  size_t queries = 0;
  double depth_max = 0.0;
  double checksum = 0.0;
  size_t tick_cursor = kTickSize;  // the set-up tick consumed the first batch
  RunOpenLoop(due, Now, WaitUntil, [&](size_t i, Sent sent) {
    const Event& event = events[i];
    result->Sample("lag_s", sent.sent - sent.due);
    if (event.kind == Kind::kQuery) {
      LayerTimer request("query.request");
      const kbt::query::Snapshot* view = session.reader.view();
      refreshes += view != last_view;
      last_view = view;
      checksum += ReadRequest(*view, keys[event.index]);
      request.Stop();
      const double done = Now();
      result->Sample("read_s", done - sent.due);
      result->Sample("query.read_exec_us", (done - sent.sent) * 1e6);
      ++queries;
      return;
    }
    depth_max = std::max(depth_max, depth->Value());
    Pending pending;
    pending.info.kind = event.kind;
    pending.info.index = event.index;
    pending.info.due = sent.due;
    if (event.kind == Kind::kAppend) {
      LayerTimer span("api.submit_append");
      const size_t begin = (ticks + 1) * kTickSize + event.index * kAppendSize;
      pending.append = service.SubmitAppend(
          kSession, std::vector<RawObservation>(
                        input.pool.begin() + static_cast<long>(begin),
                        input.pool.begin() +
                            static_cast<long>(begin + kAppendSize)));
    } else {
      LayerTimer span("api.submit_tick");
      const double now = static_cast<double>(event.index + 1);
      session.feed->PushBatch(Timed(input.pool, tick_cursor, kTickSize, now));
      tick_cursor += kTickSize;
      pending.tick = service.SubmitTick(kSession, now);
    }
    waiter.Push(std::move(pending));
  });
  if (cpus.ok) RunOn(cpus.rest);
  service.Drain();
  const std::vector<Resolved> writes = waiter.Finish();
  kbt::obs::SetTracingEnabled(false);
  result->Scalar("peak_rss_mb", PeakRssMb());
  result->Scalar("trace.spans",
                 static_cast<double>(
                     kbt::obs::TraceRecorder::Default().spans_recorded() -
                     spans_before));
  result->Attempt(queries + writes.size());
  if (checksum < 0.0) result->Fail("negative read checksum");
  result->Scalar("query.refresh_ratio",
                 queries ? static_cast<double>(refreshes) / queries : 0.0);
  result->Scalar("service.queue_depth_max", depth_max);

  // ---- Write latencies and the strand-order replay list ----
  std::vector<RawObservation> accepted(
      input.pool.begin(), input.pool.begin() + static_cast<long>(first_ingested));
  size_t feed_cursor = first_ingested;
  // Tick batches sit in the pool after the set-up batch; appends after all
  // tick batches.
  const auto feed_at = [&](size_t k) { return input.pool.begin() +
                                              static_cast<long>(k); };
  std::vector<std::pair<size_t, size_t>> tick_ranges;  // [begin, end) in pool
  std::vector<std::shared_ptr<const kbt::query::Snapshot>> tick_snapshots;
  std::vector<double> fresh;  // per non-empty tick, in tick order
  std::vector<std::pair<bool, size_t>> strand;  // (is_tick, ordinal)
  size_t failed = 0;
  for (const Resolved& w : writes) {
    if (!w.ok) {
      ++failed;
      continue;
    }
    if (w.kind == Kind::kAppend) {
      result->Sample("append_s", w.done - w.due);
      const size_t begin = (ticks + 1) * kTickSize + w.index * kAppendSize;
      accepted.insert(accepted.end(), feed_at(begin),
                      feed_at(begin + kAppendSize));
      strand.emplace_back(false, begin);
    } else {
      result->Sample("update_s", w.done - w.due);
      accepted.insert(accepted.end(), feed_at(feed_cursor),
                      feed_at(feed_cursor + w.ingested));
      if (w.ingested > 0) {
        strand.emplace_back(true, tick_ranges.size());
        tick_ranges.emplace_back(feed_cursor, feed_cursor + w.ingested);
        tick_snapshots.push_back(w.snapshot);
        fresh.push_back(w.done - w.due);
      }
      feed_cursor += w.ingested;
    }
  }
  result->Failed(failed);
  if (failed > 0) result->Fail(std::to_string(failed) + " writes failed");
  if (feed_cursor != tick_cursor) {
    result->Fail("ticks ingested a different number of observations than "
                 "were pushed");
  }

  // ---- Service-side layers, from the registry the service reports into ----
  {
    const kbt::obs::RegistrySnapshot snap = session.registry->Snapshot();
    result->Scalar("service.append_wait_ms",
                   1e3 * HistogramMean(snap, "kbt_service_queue_wait_seconds",
                                       "append"));
    result->Scalar("service.append_exec_ms",
                   1e3 * HistogramMean(snap, "kbt_service_execute_seconds",
                                       "append"));
    result->Scalar("service.tick_wait_ms",
                   1e3 * HistogramMean(snap, "kbt_service_queue_wait_seconds",
                                       "tick"));
    result->Scalar("service.tick_exec_ms",
                   1e3 * HistogramMean(snap, "kbt_service_execute_seconds",
                                       "tick"));
    const TrustService::Stats stats = service.stats();
    result->Scalar("service.coalesce_ratio",
                   stats.appends_submitted
                       ? static_cast<double>(stats.appends_coalesced) /
                             stats.appends_submitted
                       : 0.0);
  }

  // ---- Correctness: a final run equals a direct run over the seed plus
  // every accepted observation, in strand order ----
  auto final_report = service.SubmitRun(kSession).get();
  if (!final_report.ok()) {
    result->Fail("final run: " + final_report.status().ToString());
    return;
  }
  kbt::extract::RawDataset direct_data = input.seed;
  direct_data.observations.insert(direct_data.observations.end(),
                                  accepted.begin(), accepted.end());
  auto direct = kbt::api::PipelineBuilder()
                    .FromDataset(std::move(direct_data))
                    .WithOptions(ServeOptions())
                    .WithExecutor(&executor)
                    .Build();
  auto direct_report = direct.ok() ? direct->Run()
                                   : StatusOr<kbt::api::TrustReport>(
                                         direct.status());
  if (!direct_report.ok()) {
    result->Fail("direct run: " + direct_report.status().ToString());
    return;
  }
  if (ReportDigest(*final_report) != ReportDigest(*direct_report)) {
    result->Fail("the session's final run differs from a direct run over "
                 "the seed plus every accepted observation");
  }
  result->Text("report_digest", Hex(ReportDigest(*direct_report)));
  result->Scalar("core.iterations", final_report->iterations());
  result->Scalar("extract.slots",
                 static_cast<double>(final_report->counts.num_slots));
  result->Scalar("extract.edges",
                 static_cast<double>(final_report->counts.num_extractions));
  CloseSession(&session);

  // ---- Traced runs only: replay the strand's writes through a direct
  // pipeline, timing each layer call; the live ticks must match ----
  if (!args.trace) return;
  kbt::dataflow::StageTimers timers;
  auto replay = kbt::api::PipelineBuilder()
                    .FromDataset(input.seed)
                    .WithOptions(ServeOptions())
                    .WithExecutor(&executor)
                    .WithStageTimers(&timers)
                    .Build();
  if (!replay.ok()) {
    result->Fail("replay build: " + replay.status().ToString());
    return;
  }
  kbt::Status appended =
      replay->AppendObservations({feed_at(0), feed_at(first_ingested)});
  auto previous = appended.ok() ? replay->Run()
                                : StatusOr<kbt::api::TrustReport>(
                                      appended);
  if (!previous.ok()) {
    result->Fail("replay first tick: " + previous.status().ToString());
    return;
  }
  auto previous_snapshot = replay->PublishSnapshot(*previous);
  for (const auto& [is_tick, ordinal] : strand) {
    if (!is_tick) {
      const std::vector<RawObservation> delta(feed_at(ordinal),
                                              feed_at(ordinal + kAppendSize));
      LayerTimer append("extract.append");
      appended = replay->AppendObservations(delta);
      result->Sample("extract.append_ms", append.Stop() * 1e3);
      if (!appended.ok()) break;
      continue;
    }
    const auto [begin, end] = tick_ranges[ordinal];
    const std::vector<RawObservation> delta(feed_at(begin), feed_at(end));
    LayerTimer append("extract.append");
    appended = replay->AppendObservations(delta);
    const double append_s = append.Stop();
    result->Sample("extract.update_s", append_s);
    if (!appended.ok()) break;
    timers.Clear();
    LayerTimer run("core.run_from");
    auto report = replay->RunFrom(*previous);
    const double run_s = run.Stop();
    if (!report.ok()) {
      appended = report.status();
      break;
    }
    const double em_s = StageSeconds(*report, "Initialize") +
                        StageSeconds(*report, "Inference");
    result->Sample("core.em_s", em_s);
    result->Sample("core.stage1_s", timers.TotalSeconds("I.ExtCorr"));
    result->Sample("core.stage2_s", timers.TotalSeconds("II.TriplePr"));
    result->Sample("core.stage3_s", timers.TotalSeconds("III.SrcAccu"));
    result->Sample("core.stage4_s", timers.TotalSeconds("IV.ExtQuality"));
    const double score_s = StageSeconds(*report, "Score") +
                           StageSeconds(*report, "Evaluate");
    result->Sample("eval.score_s", score_s);
    result->Sample("api.run_other_s", run_s - em_s - score_s);
    LayerTimer publish("query.publish");
    auto snapshot = replay->PublishSnapshot(*report, 0.0);
    const double publish_s = publish.Stop();
    result->Sample("query.publish_s", publish_s);
    LayerTimer diff("query.diff");
    kbt::query::DiffSnapshots(*previous_snapshot, *snapshot, 10);
    const double diff_s = diff.Stop();
    result->Sample("query.diff_s", diff_s);
    // The live tick's freshness no replayed call accounts for: its wait on
    // the strand, the feed poll, alert evaluation.
    result->Sample("api.unattributed_s",
                   fresh[ordinal] - append_s - run_s - publish_s - diff_s);
    if (ordinal + 1 == tick_snapshots.size() && tick_snapshots[ordinal] &&
        SnapshotDigest(*tick_snapshots[ordinal]) != SnapshotDigest(*snapshot)) {
      result->Fail("the last traced tick differs from its untraced replay");
    }
    previous = std::move(report);
    previous_snapshot = std::move(snapshot);
  }
  if (!appended.ok()) result->Fail("replay: " + appended.ToString());
}

}  // namespace perfbench
