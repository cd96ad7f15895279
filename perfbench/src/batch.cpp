// batch_skewed: the paper's offline scoring job on the Table 7 skewed
// KV-sim cube, closed loop with one caller. Each iteration runs the cold
// job (TSV -> ReadRawDataset -> Build -> Run -> PublishSnapshot), a burst
// of read requests against what it published, and a restart on a fresh
// pipeline that loads the compiled artifacts from the disk cache.
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <random>

#include "core/multilayer_model.h"
#include "util.h"

namespace perfbench {

namespace {

using kbt::api::TrustReport;

// One set-up is single-threaded text formatting of a fixed-size cube; its
// time varied by half from one to the next on a shared host, so a run
// takes the median of nine.
constexpr int kSetups = 9;
constexpr size_t kReadsPerJob = 5000;
// Observations kept from the generated world, so that every seed's cube
// has the same size (the skewed generator yields 0.83-1.03M).
constexpr size_t kCubeSize = 750000;

kbt::api::Options BatchOptions() {
  kbt::api::Options options;
  options.granularity = kbt::api::Granularity::kFinest;
  options.multilayer.num_false_override = 10;
  options.multilayer.max_iterations = 5;
  options.multilayer.convergence_tol = 0.0;  // always 5 EM iterations
  return options;
}

struct JobOutput {
  uint64_t report_digest = 0;
  uint64_t snapshot_digest = 0;
  std::optional<TrustReport> report;
  std::optional<kbt::api::Pipeline> pipeline;
};

// One job: read the cube, build a pipeline, optionally restore compiled
// artifacts from `cache_dir`, run, publish. With `record` set, the job's
// wall clock lands in `<prefix>update_s` and its layer self times under
// `<prefix><layer>`; the layers add up to the job by construction, with
// `api.unattributed_s` the remainder.
JobOutput Job(const std::string& tsv, const std::string& cache_dir,
              kbt::dataflow::Executor* executor, RawResult* result,
              bool record, const std::string& prefix) {
  RawResult scratch;
  RawResult* out = record ? result : &scratch;
  kbt::dataflow::StageTimers timers;
  JobOutput job;
  LayerTimer whole(cache_dir.empty() ? "batch.cold_job" : "batch.warm_job");
  double layered = 0.0;
  const auto layer = [&](const std::string& name, double seconds) {
    out->Sample(prefix + name, seconds);
    layered += seconds;
  };

  LayerTimer read("io.read");
  auto data = kbt::io::ReadRawDataset(tsv);
  layer("io.read_s", read.Stop());
  if (!data.ok()) {
    result->Fail("read " + tsv + ": " + data.status().ToString());
    return job;
  }
  LayerTimer build("api.build");
  auto pipeline = kbt::api::PipelineBuilder()
                      .FromDataset(std::move(*data))
                      .WithOptions(BatchOptions())
                      .WithExecutor(executor)
                      .WithStageTimers(&timers)
                      .Build();
  layer("api.build_s", build.Stop());
  if (!pipeline.ok()) {
    result->Fail("build: " + pipeline.status().ToString());
    return job;
  }
  if (!cache_dir.empty()) {
    LayerTimer load("cache.load");
    kbt::Status opened = pipeline->EnableDiskCache(cache_dir);
    kbt::Status loaded =
        opened.ok() ? pipeline->LoadCompiledArtifacts() : opened;
    layer("cache.load_s", load.Stop());
    if (!loaded.ok()) {
      result->Fail("disk-cache load: " + loaded.ToString());
      return job;
    }
  }
  LayerTimer run("api.run");
  auto report = pipeline->Run();
  run.Stop();
  if (!report.ok()) {
    result->Fail("run: " + report.status().ToString());
    return job;
  }
  LayerTimer fingerprint("io.fingerprint");
  pipeline->dataset_fingerprint();
  layer("io.fingerprint_s", fingerprint.Stop());
  LayerTimer publish("query.publish");
  const auto snapshot = pipeline->PublishSnapshot(*report);
  layer("query.publish_s", publish.Stop());
  const double total = whole.Stop();

  // Run() splits into its reported stages; EM splits further by stage.
  const double granularity = StageSeconds(*report, "Granularity");
  const double compile = StageSeconds(*report, "Compile");
  const double em = StageSeconds(*report, "Initialize") +
                    StageSeconds(*report, "Inference");
  const double score = StageSeconds(*report, "Score") +
                       StageSeconds(*report, "Evaluate");
  layer("granularity.assign_s", granularity);
  layer("extract.update_s", compile);
  layer("core.em_s", em);
  layer("eval.score_s", score);
  out->Sample(prefix + "core.stage1_s", timers.TotalSeconds("I.ExtCorr"));
  out->Sample(prefix + "core.stage2_s", timers.TotalSeconds("II.TriplePr"));
  out->Sample(prefix + "core.stage3_s", timers.TotalSeconds("III.SrcAccu"));
  out->Sample(prefix + "core.stage4_s",
              timers.TotalSeconds("IV.ExtQuality"));
  out->Sample(prefix + "eval.evaluate_s", StageSeconds(*report, "Evaluate"));
  // What no named layer covers: Run() outside its reported stages, and
  // the glue between calls.
  out->Sample(prefix + "api.unattributed_s", total - layered);
  out->Sample(prefix + "update_s", total);

  job.report_digest = ReportDigest(*report);
  job.snapshot_digest = SnapshotDigest(*snapshot);
  job.report = std::move(*report);
  job.pipeline = std::move(*pipeline);
  return job;
}

}  // namespace

void RunBatch(const Args& args, RawResult* result) {
  const int threads = HardwareThreads();
  kbt::dataflow::Executor executor(threads);
  result->Scalar("executor_threads", threads);
  const std::string tsv =
      args.work_dir + "/batch-" + std::to_string(args.seed) + ".tsv";
  const std::string cache_dir =
      args.work_dir + "/batch-cache-" + std::to_string(args.seed);
  std::filesystem::remove_all(cache_dir);

  // ---- Set-up: generate the skewed world and choose its cube of
  // kCubeSize observations once, then, repeatedly, gather the cube and
  // write it as TSV. Only the gather and the write count as set-up time:
  // the generated world's size depends on the seed, the cube's does not ----
  {
    kbt::exp::KvSimConfig config = kbt::exp::KvSimConfig::Skewed();
    config.seed = args.seed;
    const double generate_start = Now();
    auto kv = kbt::exp::BuildKvSim(config);
    if (!kv.ok()) {
      result->Fail("kv-sim: " + kv.status().ToString());
      return;
    }
    result->Scalar("setup.generate_s", Now() - generate_start);
    const std::vector<kbt::extract::RawObservation> world =
        std::move(kv->data.observations);
    kbt::extract::RawDataset cube = std::move(kv->data);
    result->Scalar("cube.world_observations",
                   static_cast<double>(world.size()));
    // The cube: a seeded random subset, kept in generation order.
    std::vector<size_t> keep(world.size());
    std::iota(keep.begin(), keep.end(), size_t{0});
    std::mt19937_64 rng(args.seed);
    std::shuffle(keep.begin(), keep.end(), rng);
    keep.resize(std::min(kCubeSize, keep.size()));
    std::sort(keep.begin(), keep.end());
    for (int i = 0; i < kSetups; ++i) {
      const double start = Now();
      cube.observations.clear();
      cube.observations.reserve(keep.size());
      for (const size_t k : keep) cube.observations.push_back(world[k]);
      const kbt::Status written = kbt::io::WriteRawDataset(tsv, cube);
      if (!written.ok()) {
        result->Fail("write tsv: " + written.ToString());
        return;
      }
      result->Sample("setup_s", Now() - start);
    }
    result->Scalar("cube.observations", static_cast<double>(cube.size()));
    result->Scalar("cube.websites", cube.num_websites);
    result->Scalar("cube.pages", cube.num_pages);
    result->Scalar("cube.extractors", cube.num_extractors);
  }
  result->Scalar("io.bytes",
                 static_cast<double>(std::filesystem::file_size(tsv)));
  ReleaseFreeMemory();

  // ---- Warm-up job, untraced: the reference every later job must equal,
  // and the run that fills the disk cache for the restart path ----
  JobOutput reference = Job(tsv, "", &executor, result, false, "");
  if (!reference.pipeline) return;
  {
    kbt::Status enabled = reference.pipeline->EnableDiskCache(cache_dir);
    kbt::Status saved =
        enabled.ok() ? reference.pipeline->SaveCompiledArtifacts() : enabled;
    if (!saved.ok()) {
      result->Fail("disk-cache save: " + saved.ToString());
      return;
    }
  }
  uint64_t cache_bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) cache_bytes += entry.file_size();
  }
  result->Scalar("cache.bytes", static_cast<double>(cache_bytes));
  const auto& counts = reference.report->counts;
  result->Scalar("extract.slots", static_cast<double>(counts.num_slots));
  result->Scalar("extract.edges",
                 static_cast<double>(counts.num_extractions));
  result->Scalar("core.iterations", reference.report->iterations());
  const std::vector<ReadKeys> keys = DrawReadKeys(
      {reference.pipeline->snapshot_registry()->Current().get()},
      kReadsPerJob, args.seed);
  reference.pipeline.reset();
  ReleaseFreeMemory();

  // ---- Measured loop ----
  if (args.trace) kbt::obs::SetTracingEnabled(true);
  const uint64_t spans_before = kbt::obs::TraceRecorder::Default()
                                    .spans_recorded();
  const double deadline = Now() + args.seconds;
  int iteration = 0;
  double checksum = 0.0;
  while (Now() < deadline || iteration == 0) {
    ++iteration;
    result->Attempt();
    JobOutput cold = Job(tsv, "", &executor, result, true, "");
    if (!cold.pipeline) {
      result->Failed();
      break;
    }
    if (cold.report_digest != reference.report_digest ||
        cold.snapshot_digest != reference.snapshot_digest) {
      result->Fail("cold job " + std::to_string(iteration) +
                   " differs from the untraced reference job");
    }
    // Consumers read what the job published.
    kbt::query::SnapshotReader reader(cold.pipeline->snapshot_registry());
    for (const ReadKeys& request_keys : keys) {
      LayerTimer request("query.request");
      const kbt::query::Snapshot* view = reader.view();
      checksum += ReadRequest(*view, request_keys);
      const double took = request.Stop();
      result->Sample("read_s", took);
      result->Sample("query.read_exec_us", took * 1e6);
    }
    result->Attempt(kReadsPerJob);
    cold.pipeline.reset();
    ReleaseFreeMemory();

    // The restart runs on every other iteration, so that a run holds
    // more cold jobs, the bounded metric.
    if (iteration % 2 == 0) continue;
    result->Attempt();
    JobOutput warm = Job(tsv, cache_dir, &executor, result, true, "warm.");
    if (!warm.pipeline) {
      result->Failed();
      break;
    }
    if (warm.report_digest != reference.report_digest ||
        warm.snapshot_digest != reference.snapshot_digest) {
      result->Fail("disk-cache restart " + std::to_string(iteration) +
                   " differs from the cold job");
    }
    warm.pipeline.reset();
    ReleaseFreeMemory();
  }
  kbt::obs::SetTracingEnabled(false);
  result->Scalar("peak_rss_mb", PeakRssMb());
  result->Scalar("trace.spans", static_cast<double>(
      kbt::obs::TraceRecorder::Default().spans_recorded() - spans_before));
  result->Scalar("iterations", iteration);
  result->Text("report_digest", Hex(reference.report_digest));
  result->Text("snapshot_digest", Hex(reference.snapshot_digest));
  if (checksum < 0.0) result->Fail("negative read checksum");

  // ---- EM scaling: the same EM on one thread and on the full executor ----
  if (args.trace) {
    JobOutput job = Job(tsv, "", &executor, result, false, "");
    if (!job.pipeline) return;
    const auto* matrix = job.pipeline->compiled_matrix();
    kbt::dataflow::Executor single(1);
    const auto config = BatchOptions().multilayer;
    double serial = Now();
    auto one = kbt::core::MultiLayerModel::Run(*matrix, config, {}, &single);
    serial = Now() - serial;
    double parallel = Now();
    auto many = kbt::core::MultiLayerModel::Run(*matrix, config, {},
                                                &executor);
    parallel = Now() - parallel;
    if (!one.ok() || !many.ok() ||
        one->slot_value_prob != many->slot_value_prob) {
      result->Fail("EM on 1 thread and on the full executor disagree");
    }
    result->Scalar("dataflow.em_speedup", serial / parallel);
  }
  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove(tsv);
}

}  // namespace perfbench
