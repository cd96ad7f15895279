// shard_stream: a StreamEngine over a ShardedPipeline (K = hardware
// threads) on the 200-source synthetic cube, closed loop with one caller.
// Each iteration pushes one held-out batch, ticks (poll -> scatter append
// -> warm RunFrom -> publish -> diff), then runs a fixed burst of merged
// read requests. Afterwards every tick is replayed through K direct
// pipelines, one per shard, which must reproduce the last generation.
#include <algorithm>
#include <future>
#include <random>

#include "util.h"

namespace perfbench {

namespace {

using kbt::extract::RawObservation;

constexpr int kSetups = 5;
constexpr size_t kTickSize = 2000;      // observations per tick
constexpr size_t kReadsPerTick = 500;   // merged read requests per tick
constexpr size_t kSeedSize = 200000;    // observations before tick 0
constexpr size_t kPoolSize = 170000;    // held-out observations to tick in

kbt::api::Options ShardOptions() {
  kbt::api::Options options;
  options.granularity = kbt::api::Granularity::kFinest;
  options.multilayer.min_source_support = 1;
  options.multilayer.min_extractor_support = 1;
  return options;
}

struct Input {
  kbt::extract::RawDataset seed;
  std::vector<RawObservation> pool;
};

// Every seed yields the same input size: the generated cube is shuffled,
// the pool taken from its end and the seed cube cut to kSeedSize.
kbt::StatusOr<Input> MakeInput(uint64_t seed) {
  kbt::exp::SyntheticConfig config;
  config.num_sources = 200;
  config.num_extractors = 8;
  config.num_subjects = 125;
  config.num_predicates = 8;
  config.seed = seed;
  Input input;
  input.seed = kbt::exp::GenerateSynthetic(config).data;
  auto& all = input.seed.observations;
  if (all.size() < kSeedSize + kPoolSize) {
    return kbt::Status::OutOfRange("synthetic cube too small for the run");
  }
  std::mt19937_64 rng(seed + 1);
  std::shuffle(all.begin(), all.end(), rng);
  input.pool.assign(all.end() - static_cast<long>(kPoolSize), all.end());
  all.resize(kSeedSize);
  return input;
}

std::vector<RawObservation> Batch(const Input& input, size_t tick) {
  const size_t begin = std::min(tick * kTickSize, input.pool.size());
  const size_t end = std::min(begin + kTickSize, input.pool.size());
  return {input.pool.begin() + static_cast<long>(begin),
          input.pool.begin() + static_cast<long>(end)};
}

std::vector<kbt::stream::TimedObservation> Timed(
    const std::vector<RawObservation>& batch, double time) {
  std::vector<kbt::stream::TimedObservation> timed;
  timed.reserve(batch.size());
  for (const RawObservation& o : batch) timed.push_back({o, time});
  return timed;
}

struct Live {
  std::optional<kbt::api::ShardedPipeline> sharded;
  std::shared_ptr<kbt::stream::QueueFeed> feed;
  std::unique_ptr<kbt::stream::StreamEngine> engine;
  // Each shard's cube before the first tick: where the replay starts.
  std::vector<kbt::extract::RawDataset> shard_seeds;
};

kbt::Status OpenLive(const Input& input, uint32_t shards,
                     kbt::dataflow::Executor* executor, Live* live) {
  live->engine.reset();
  live->sharded.reset();
  kbt::api::ShardOptions shard_options;
  shard_options.num_shards = shards;
  shard_options.executor = executor;
  auto sharded = kbt::api::ShardedPipeline::Create(input.seed, ShardOptions(),
                                                   shard_options);
  if (!sharded.ok()) return sharded.status();
  live->sharded.emplace(std::move(*sharded));
  live->shard_seeds.clear();
  for (uint32_t i = 0; i < shards; ++i) {
    live->shard_seeds.push_back(live->sharded->shard(i).dataset());
  }
  live->feed = std::make_shared<kbt::stream::QueueFeed>();
  kbt::stream::StreamOptions options;
  options.warm_start = true;
  options.diff_top_k = 10;
  auto engine = kbt::stream::StreamEngine::Create(&*live->sharded, live->feed,
                                                  options);
  if (!engine.ok()) return engine.status();
  live->engine = std::move(*engine);
  // Tick 0 runs cold and publishes the generation readers start on.
  live->feed->PushBatch(Timed(Batch(input, 0), 0.0));
  auto first = live->engine->Tick(0.0);
  return first.ok() ? kbt::Status::OK() : first.status();
}

}  // namespace

void RunShard(const Args& args, RawResult* result) {
  const uint32_t shards = static_cast<uint32_t>(HardwareThreads());
  kbt::dataflow::Executor executor(static_cast<int>(shards));
  result->Scalar("executor_threads", shards);
  result->Scalar("shards", shards);
  result->Scalar("rate.tick_size", kTickSize);
  result->Scalar("rate.reads_per_tick", kReadsPerTick);

  // ---- Set-up, repeated: generate the input, shard it, tick 0 ----
  Input input;
  Live live;
  for (int i = 0; i < kSetups; ++i) {
    const double start = Now();
    auto made = MakeInput(args.seed);
    if (!made.ok()) {
      result->Fail(made.status().ToString());
      return;
    }
    input = std::move(*made);
    const kbt::Status opened = OpenLive(input, shards, &executor, &live);
    if (!opened.ok()) {
      result->Fail("open sharded stream: " + opened.ToString());
      return;
    }
    result->Sample("setup_s", Now() - start);
  }
  ReleaseFreeMemory();
  result->Scalar("cube.observations",
                 static_cast<double>(input.seed.size() + input.pool.size()));
  result->Scalar("cube.seed_observations",
                 static_cast<double>(input.seed.size()));
  result->Scalar("cube.sources", 200);
  const size_t max_ticks = input.pool.size() / kTickSize;
  const kbt::query::MergedSnapshot first_view = live.sharded->MergedView();
  std::vector<const kbt::query::Snapshot*> shard_views;
  for (uint32_t s = 0; s < first_view.num_shards(); ++s) {
    shard_views.push_back(first_view.shard(s));
  }
  const std::vector<ReadKeys> keys =
      DrawReadKeys(shard_views, max_ticks * kReadsPerTick, args.seed);

  // ---- Measured closed loop: tick, then a burst of merged reads ----
  if (args.trace) kbt::obs::SetTracingEnabled(true);
  const uint64_t spans_before =
      kbt::obs::TraceRecorder::Default().spans_recorded();
  const double deadline = Now() + args.seconds;
  size_t ticks = 1;  // tick 0 ran in set-up
  double checksum = 0.0;
  while (Now() < deadline && ticks < max_ticks) {
    const std::vector<RawObservation> batch = Batch(input, ticks);
    result->Attempt();
    LayerTimer tick("stream.tick");
    live.feed->PushBatch(Timed(batch, static_cast<double>(ticks)));
    auto ticked = live.engine->Tick(static_cast<double>(ticks));
    result->Sample("update_s", tick.Stop());
    if (!ticked.ok() || ticked->observations_ingested != batch.size()) {
      result->Failed();
      result->Fail("tick " + std::to_string(ticks) + ": " +
                   (ticked.ok() ? "ingested a partial batch"
                                : ticked.status().ToString()));
      break;
    }
    for (size_t i = 0; i < kReadsPerTick; ++i) {
      const ReadKeys& request_keys = keys[(ticks - 1) * kReadsPerTick + i];
      LayerTimer request("query.request");
      const kbt::query::MergedSnapshot view = live.sharded->MergedView();
      checksum += ReadRequest(view, request_keys);
      const double took = request.Stop();
      result->Sample("read_s", took);
      result->Sample("query.read_exec_us", took * 1e6);
    }
    result->Attempt(kReadsPerTick);
    ++ticks;
  }
  kbt::obs::SetTracingEnabled(false);
  result->Scalar("peak_rss_mb", PeakRssMb());
  result->Scalar("trace.spans",
                 static_cast<double>(
                     kbt::obs::TraceRecorder::Default().spans_recorded() -
                     spans_before));
  result->Scalar("ticks", static_cast<double>(ticks - 1));
  if (ticks >= max_ticks) result->Text("note", "held-out pool exhausted");
  if (checksum < 0.0) result->Fail("negative read checksum");

  // ---- Replay: K direct pipelines, one per shard. Each tick scatters
  // Append, then Run / RunFrom, then Publish across the shards on the
  // executor, as the sharded pipeline does, and times each phase's wall
  // clock. A phase's time splits into layers in proportion to the shards'
  // own stage timings ----
  std::vector<kbt::dataflow::StageTimers> timers(shards);
  std::vector<kbt::api::Pipeline> replay;
  for (uint32_t s = 0; s < shards; ++s) {
    auto pipeline = kbt::api::PipelineBuilder()
                        .FromDataset(live.shard_seeds[s])
                        .WithOptions(ShardOptions())
                        .WithExecutor(&executor)
                        .WithStageTimers(&timers[s])
                        .Build();
    if (!pipeline.ok()) {
      result->Fail("replay build: " + pipeline.status().ToString());
      return;
    }
    replay.push_back(std::move(*pipeline));
  }
  std::vector<kbt::api::TrustReport> previous(shards);
  std::vector<std::shared_ptr<const kbt::query::Snapshot>> snapshots(shards);
  std::vector<kbt::Status> status(shards);
  std::vector<double> run_s(shards), em_s(shards), score_s(shards);
  kbt::query::MergedSnapshot previous_view;
  const uint64_t salt = live.sharded->salt();
  const std::vector<double>* live_ticks = result->samples("update_s");
  if (live_ticks == nullptr) {
    result->Fail("no tick ran in the measured loop");
    return;
  }
  const auto scatter = [&](const char* layer, auto&& task) {
    LayerTimer phase(layer);
    std::vector<std::future<void>> done;
    for (uint32_t s = 0; s < shards; ++s) {
      done.push_back(executor.Submit([&task, s] { task(s); }));
    }
    for (auto& f : done) f.get();
    for (const kbt::Status& st : status) {
      if (!st.ok()) {
        result->Fail(std::string("replay ") + layer + ": " + st.ToString());
      }
    }
    return phase.Stop();
  };
  for (size_t t = 0; t < ticks && result->correct(); ++t) {
    std::vector<std::vector<RawObservation>> deltas(shards);
    for (const RawObservation& o : Batch(input, t)) {
      deltas[kbt::query::ShardOfWebsite(o.website, shards, salt)].push_back(o);
    }
    const double append_s = scatter("extract.append", [&](uint32_t s) {
      status[s] = replay[s].AppendObservations(deltas[s]);
    });
    const double run_wall = scatter("core.run", [&](uint32_t s) {
      timers[s].Clear();
      const double start = Now();
      auto report = t == 0 ? replay[s].Run() : replay[s].RunFrom(previous[s]);
      run_s[s] = Now() - start;
      status[s] = report.status();
      if (!report.ok()) return;
      em_s[s] = StageSeconds(*report, "Initialize") +
                StageSeconds(*report, "Inference");
      score_s[s] = StageSeconds(*report, "Score") +
                   StageSeconds(*report, "Evaluate");
      previous[s] = std::move(*report);
    });
    const double publish_s = scatter("query.publish", [&](uint32_t s) {
      snapshots[s] = replay[s].PublishSnapshot(previous[s],
                                               static_cast<double>(t));
    });
    if (!result->correct()) break;
    kbt::query::MergedSnapshot view(snapshots, salt);
    LayerTimer diff("query.diff");
    kbt::query::DiffMergedSnapshots(previous_view, view, 10);
    const double diff_s = diff.Stop();
    previous_view = std::move(view);
    if (t == 0) continue;  // tick 0 belongs to set-up

    double run_sum = 0.0, em_sum = 0.0, score_sum = 0.0, slowest = 0.0;
    double stage[4] = {0.0, 0.0, 0.0, 0.0};
    for (uint32_t s = 0; s < shards; ++s) {
      run_sum += run_s[s];
      em_sum += em_s[s];
      score_sum += score_s[s];
      slowest = std::max(slowest, em_s[s]);
      stage[0] += timers[s].TotalSeconds("I.ExtCorr");
      stage[1] += timers[s].TotalSeconds("II.TriplePr");
      stage[2] += timers[s].TotalSeconds("III.SrcAccu");
      stage[3] += timers[s].TotalSeconds("IV.ExtQuality");
    }
    const double share = run_sum > 0.0 ? run_wall / run_sum : 0.0;
    result->Sample("extract.update_s", append_s);
    result->Sample("core.em_s", em_sum * share);
    result->Sample("core.stage1_s", stage[0] * share);
    result->Sample("core.stage2_s", stage[1] * share);
    result->Sample("core.stage3_s", stage[2] * share);
    result->Sample("core.stage4_s", stage[3] * share);
    result->Sample("eval.score_s", score_sum * share);
    result->Sample("api.run_other_s", run_wall - (em_sum + score_sum) * share);
    result->Sample("query.publish_s", publish_s);
    result->Sample("query.diff_s", diff_s);
    // The live tick's time no replayed call accounts for: polling, the
    // merged report and publish, alert evaluation.
    result->Sample("api.unattributed_s", (*live_ticks)[t - 1] - append_s -
                                             run_wall - publish_s - diff_s);
    result->Sample("api.shard_straggler_ratio",
                   em_sum > 0.0 ? slowest / (em_sum / shards) : 1.0);
  }
  result->Scalar("core.iterations", previous[0].iterations());
  double slots = 0.0, edges = 0.0;
  for (const auto& report : previous) {
    slots += static_cast<double>(report.counts.num_slots);
    edges += static_cast<double>(report.counts.num_extractions);
  }
  result->Scalar("extract.slots", slots);
  result->Scalar("extract.edges", edges);

  // ---- Correctness: the live stream's last generation, shard by shard,
  // equals the replay's ----
  const kbt::query::MergedSnapshot live_view = live.sharded->MergedView();
  for (uint32_t s = 0; s < shards; ++s) {
    const kbt::query::Snapshot* live_shard = live_view.shard(s);
    if (live_shard == nullptr ||
        SnapshotDigest(*live_shard) != SnapshotDigest(*snapshots[s])) {
      result->Fail("shard " + std::to_string(s) +
                   ": the last live generation differs from the direct "
                   "Append -> RunFrom -> Publish replay");
    }
  }
  result->Text("snapshot_digest", Hex(MergedDigest(live_view)));
}

}  // namespace perfbench
