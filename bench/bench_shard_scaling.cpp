// Shard scaling: sharded run + merged-read throughput, 1 -> N shards.
//
// The paper ran KBT at 2.8B-fact scale by fanning the EM passes out over
// MapReduce; kbt/shard.h reproduces that decomposition in-process. This
// bench partitions one synthetic cube into K = 1, 2, 4 shards and, per K:
//   run            — one cold ShardedPipeline::Run scattered across the
//                    executor (observations/second is the headline);
//   merged queries — WebsiteTrust + TripleTruth point lookups against the
//                    MergedSnapshot over the K published per-shard views
//                    (lookups/second; the cross-shard merge tax).
// K = 1 doubles as the parity gate: in --smoke runs the merged report must
// be bit-for-bit identical to a direct unsharded Pipeline::Run, or the
// bench fails like a test. Results land in BENCH_shard.json (one row per
// shard count) for the perf-trend tooling.
//
// Usage: bench_shard_scaling [--smoke]  (--smoke: tiny cube for CI)
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "kbt/kbt.h"

namespace {

using namespace kbt;

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

volatile double g_sink = 0.0;

struct ShardRow {
  uint32_t num_shards = 1;
  double run_seconds = 0.0;
  double observations_per_second = 0.0;
  double query_seconds = 0.0;
  double lookups_per_second = 0.0;
};

/// One timed pass of merged point lookups: every website plus a triple
/// probe per prediction key, `rounds` times. Returns a checksum so the
/// optimizer cannot elide the queries.
double MergedQueryPass(const query::MergedSnapshot& view,
                       uint32_t num_websites,
                       const std::vector<query::TripleKey>& triples,
                       size_t rounds) {
  double checksum = 0.0;
  for (size_t r = 0; r < rounds; ++r) {
    for (uint32_t w = 0; w < num_websites; ++w) {
      if (const auto trust = view.WebsiteTrust(w)) checksum += trust->kbt;
    }
    for (const query::TripleKey& key : triples) {
      if (const auto truth = view.TripleTruth(key.item, key.value)) {
        checksum += truth->probability;
      }
    }
    for (const query::SourceTrust& top : view.TopKWebsites(10)) {
      checksum += top.kbt;
    }
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  exp::SyntheticConfig config;
  config.num_sources = smoke ? 40 : 400;
  config.num_extractors = smoke ? 4 : 8;
  config.num_subjects = smoke ? 30 : 300;
  config.num_predicates = smoke ? 5 : 8;
  config.seed = 2015;
  const extract::RawDataset cube = exp::GenerateSynthetic(config).data;

  api::Options options;
  options.granularity = api::Granularity::kFinest;
  options.multilayer.min_source_support = 1;
  options.multilayer.min_extractor_support = 1;

  // The unsharded reference run: the K = 1 parity baseline.
  auto direct = api::PipelineBuilder()
                    .FromDataset(cube)
                    .WithOptions(options)
                    .Build();
  if (!direct.ok()) Die("build reference pipeline", direct.status());
  const auto reference = direct->Run();
  if (!reference.ok()) Die("reference run", reference.status());

  const size_t query_rounds = smoke ? 20 : 200;
  std::vector<ShardRow> rows;
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    api::ShardOptions shard_options;
    shard_options.num_shards = num_shards;
    auto sharded = api::ShardedPipeline::Create(cube, options, shard_options);
    if (!sharded.ok()) Die("create sharded pipeline", sharded.status());

    const double run_start = obs::MonotonicSeconds();
    const auto reports = sharded->Run();
    if (!reports.ok()) Die("sharded run", reports.status());
    ShardRow row;
    row.num_shards = num_shards;
    row.run_seconds = obs::MonotonicSeconds() - run_start;
    row.observations_per_second =
        static_cast<double>(cube.observations.size()) / row.run_seconds;

    // K = 1 must be the unsharded run, bit for bit. Enforced like a test
    // in smoke runs so CI catches any drift in the passthrough.
    if (num_shards == 1) {
      const auto& merged = reports->merged;
      bool identical =
          merged.website_kbt.size() == reference->website_kbt.size() &&
          merged.predictions.size() == reference->predictions.size();
      for (size_t w = 0; identical && w < merged.website_kbt.size(); ++w) {
        identical = merged.website_kbt[w].kbt == reference->website_kbt[w].kbt;
      }
      for (size_t i = 0; identical && i < merged.predictions.size(); ++i) {
        identical = merged.predictions[i].probability ==
                    reference->predictions[i].probability;
      }
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: K=1 sharded run is not bit-for-bit identical to "
                     "the unsharded run\n");
        if (smoke) return 1;
      }
    }

    sharded->PublishSnapshot(*reports);
    const query::MergedSnapshot view = sharded->MergedView();
    std::vector<query::TripleKey> triples;
    triples.reserve(reports->merged.predictions.size());
    for (const auto& prediction : reports->merged.predictions) {
      triples.push_back(query::TripleKey{prediction.item, prediction.value});
    }
    const size_t lookups_per_round =
        cube.num_websites + triples.size() + 10;

    const double query_start = obs::MonotonicSeconds();
    g_sink = MergedQueryPass(view, cube.num_websites, triples, query_rounds);
    row.query_seconds = obs::MonotonicSeconds() - query_start;
    row.lookups_per_second =
        static_cast<double>(lookups_per_round * query_rounds) /
        row.query_seconds;
    rows.push_back(row);
  }

  exp::PrintBanner("Shard scaling: run + merged-query throughput");
  exp::TablePrinter table({"Shards", "Run s", "Obs/s", "Query s",
                           "Lookups/s"});
  for (const ShardRow& row : rows) {
    table.AddRow({std::to_string(row.num_shards),
                  exp::TablePrinter::Fmt(row.run_seconds),
                  exp::TablePrinter::Fmt(row.observations_per_second, 0),
                  exp::TablePrinter::Fmt(row.query_seconds),
                  exp::TablePrinter::Fmt(row.lookups_per_second, 0)});
  }
  table.Print();

  // ---- Machine-readable output for the perf trajectory ----
  bench::BenchJsonWriter writer("shard_scaling", smoke);
  writer.AddMetadata("hardware_threads",
                     static_cast<double>(std::thread::hardware_concurrency()));
  writer.AddMetadata("num_observations",
                     static_cast<double>(cube.observations.size()));
  writer.AddMetadata("num_websites",
                     static_cast<double>(cube.num_websites));
  if (!rows.empty()) {
    // Headline trend numbers: single-shard baseline and the widest fanout.
    const ShardRow& last = rows.back();
    writer.AddMetric("run_seconds_max_shards", last.run_seconds, "seconds");
    writer.AddMetric("observations_per_second_max_shards",
                     last.observations_per_second, "ops_per_second");
    writer.AddMetric("merged_lookups_per_second_max_shards",
                     last.lookups_per_second, "ops_per_second");
  }
  std::string rows_json = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& row = rows[i];
    rows_json += i == 0 ? "\n" : ",\n";
    rows_json += "    {\"num_shards\": " +
                 bench::JsonNumber(static_cast<double>(row.num_shards)) +
                 ", \"run_seconds\": " + bench::JsonNumber(row.run_seconds) +
                 ", \"observations_per_second\": " +
                 bench::JsonNumber(row.observations_per_second) +
                 ", \"query_seconds\": " +
                 bench::JsonNumber(row.query_seconds) +
                 ", \"merged_lookups_per_second\": " +
                 bench::JsonNumber(row.lookups_per_second) + "}";
  }
  rows_json += "\n  ]";
  writer.AddRawSection("rows", rows_json);
  return writer.WriteFile("BENCH_shard.json") ? 0 : 1;
}
