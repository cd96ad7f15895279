// Append throughput: streaming observation deltas into a compiled cube.
//
// The serving story appends extraction events continuously; before the
// incremental path, every AppendObservations dropped the compiled matrix
// and the next run re-ran granularity + compilation over the *entire* cube
// (O(full rebuild) per delta). The patch path extends the cached group
// assignment with stable ids and merge-patches the CSR structures, so an
// append costs O(delta) discovery plus a hash-free linear merge.
//
// This bench compiles a base cube, then streams batches of observations:
//   append_seconds   — one AppendObservations call on the live pipeline
//                      (extender + CSR patch, the incremental path);
//   rebuild_seconds  — the Granularity + Compile stages of a fresh pipeline
//                      over the same grown cube (what invalidation cost).
// Results land in BENCH_append.json for the perf-trend tooling.
//
// Usage: bench_append_throughput [--smoke]   (--smoke: tiny cube for CI)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "kbt/kbt.h"

namespace {

using namespace kbt;

struct BatchTiming {
  size_t delta = 0;
  size_t total_observations = 0;
  double append_seconds = 0.0;
  double rebuild_seconds = 0.0;
};

/// Granularity + Compile seconds of one fresh run over `data` — the price
/// the old invalidate-on-append path paid on the run after every delta.
double RebuildSeconds(const extract::RawDataset& data,
                      const api::Options& options) {
  auto pipeline =
      api::PipelineBuilder().FromDataset(data).WithOptions(options).Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "rebuild pipeline failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  const auto report = pipeline->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "rebuild run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  double seconds = 0.0;
  for (const auto& [stage, s] : report->stage_seconds) {
    if (stage == "Granularity" || stage == "Compile") seconds += s;
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // A cube big enough that full recompilation visibly dominates a delta.
  exp::SyntheticConfig config;
  config.num_sources = smoke ? 25 : 400;
  config.num_extractors = smoke ? 4 : 8;
  config.num_subjects = smoke ? 20 : 60;
  config.num_predicates = smoke ? 5 : 8;
  config.seed = 2015;
  const exp::SyntheticData synthetic = exp::GenerateSynthetic(config);
  const extract::RawDataset& full = synthetic.data;

  const size_t num_batches = smoke ? 3 : 8;
  const size_t batch_size =
      std::max<size_t>(1, smoke ? 64 : full.size() / 200);
  const size_t base_size = full.size() - num_batches * batch_size;
  if (full.size() <= num_batches * batch_size) {
    std::fprintf(stderr, "cube too small for the batch plan\n");
    return 1;
  }

  api::Options options;
  options.granularity = api::Granularity::kFinest;
  options.multilayer.max_iterations = 1;  // Compile costs, not EM, matter.

  extract::RawDataset base = full;
  base.observations.resize(base_size);
  auto pipeline = api::PipelineBuilder()
                      .FromDataset(std::move(base))
                      .WithOptions(options)
                      .Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 pipeline.status().ToString().c_str());
    return 1;
  }
  // First run compiles the base cube and warms the cache the appends patch.
  const auto first = pipeline->Run();
  if (!first.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }

  std::printf("base cube: %zu observations, %u sources, %u extractor "
              "groups; streaming %zu batches of %zu\n",
              pipeline->dataset().size(), first->counts.num_sources,
              first->counts.num_extractor_groups, num_batches, batch_size);

  std::vector<BatchTiming> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t begin = base_size + b * batch_size;
    const std::vector<extract::RawObservation> delta(
        full.observations.begin() + begin,
        full.observations.begin() + begin + batch_size);

    const double start = obs::MonotonicSeconds();
    const Status appended = pipeline->AppendObservations(delta);
    const double append_seconds = obs::MonotonicSeconds() - start;
    if (!appended.ok()) {
      std::fprintf(stderr, "append failed: %s\n",
                   appended.ToString().c_str());
      return 1;
    }
    if (pipeline->compiled_matrix() == nullptr) {
      std::fprintf(stderr,
                   "append fell back to invalidation — the incremental path "
                   "did not engage\n");
      return 1;
    }

    BatchTiming t;
    t.delta = batch_size;
    t.total_observations = pipeline->dataset().size();
    t.append_seconds = append_seconds;
    t.rebuild_seconds = RebuildSeconds(pipeline->dataset(), options);
    batches.push_back(t);
  }

  // The patched matrix must serve the same report a fresh compile would.
  const auto patched = pipeline->Run();
  if (!patched.ok() ||
      patched->counts.num_observations != full.size()) {
    std::fprintf(stderr, "patched pipeline is inconsistent\n");
    return 1;
  }

  exp::PrintBanner("Append throughput: patch vs full recompilation");
  exp::TablePrinter table({"Batch", "Cube size", "Append (ms)",
                           "Rebuild (ms)", "Speedup"});
  double append_total = 0.0;
  double rebuild_total = 0.0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const BatchTiming& t = batches[b];
    append_total += t.append_seconds;
    rebuild_total += t.rebuild_seconds;
    table.AddRow({std::to_string(b + 1),
                  exp::TablePrinter::FmtCount(t.total_observations),
                  exp::TablePrinter::Fmt(t.append_seconds * 1e3),
                  exp::TablePrinter::Fmt(t.rebuild_seconds * 1e3),
                  exp::TablePrinter::Fmt(t.rebuild_seconds /
                                         t.append_seconds, 1) + "x"});
  }
  table.Print();
  std::printf("\ntotals: append %.3f ms vs rebuild %.3f ms (%.1fx); an "
              "append touches the delta plus a linear merge, a rebuild "
              "re-hashes and re-sorts the whole cube\n",
              append_total * 1e3, rebuild_total * 1e3,
              rebuild_total / append_total);

  // ---- Machine-readable output for the perf trajectory ----
  bench::BenchJsonWriter writer("append_throughput", smoke);
  writer.AddMetadata("base_observations", static_cast<double>(base_size));
  writer.AddMetadata("batch_size", static_cast<double>(batch_size));
  writer.AddMetric("append_total_seconds", append_total, "seconds");
  writer.AddMetric("rebuild_total_seconds", rebuild_total, "seconds");
  writer.AddMetric("speedup", rebuild_total / append_total, "ratio");
  std::string batch_json = "[";
  for (size_t b = 0; b < batches.size(); ++b) {
    const BatchTiming& t = batches[b];
    batch_json += b == 0 ? "\n" : ",\n";
    batch_json += "    {\"cube_size\": " +
                  bench::JsonNumber(static_cast<double>(t.total_observations)) +
                  ", \"append_seconds\": " +
                  bench::JsonNumber(t.append_seconds) +
                  ", \"rebuild_seconds\": " +
                  bench::JsonNumber(t.rebuild_seconds) + "}";
  }
  batch_json += "\n  ]";
  writer.AddRawSection("batches", batch_json);
  return writer.WriteFile("BENCH_append.json") ? 0 : 1;
}
