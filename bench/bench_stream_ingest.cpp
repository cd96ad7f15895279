// Streaming ingestion throughput: the kbt::stream tick loop.
//
// The batch pipeline answers "score this cube"; kbt::stream answers "keep
// the scores current while the cube grows". This bench replays a generated
// extraction cube as a feed of timed batches and measures what the
// continuous path costs:
//   ticks_per_second          — full tick cycles (poll + append + EM +
//                               publish) the engine sustains;
//   feed_to_queryable_seconds — latency from a batch landing in the feed
//                               to its generation being served by the
//                               lock-free read path (per-tick, so p50/max
//                               are worst-observed, not averages);
//   decay overhead            — the same replay with exponential
//                               time-decay on (per-slot weight recompute +
//                               weighted accumulators) vs off.
// Results land in BENCH_stream.json for the perf-trend tooling.
//
// Usage: bench_stream_ingest [--smoke]   (--smoke: tiny cube for CI)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "kbt/kbt.h"
#include "support/corpus_fixture.h"

namespace {

using namespace kbt;

struct ReplayResult {
  double total_seconds = 0.0;
  std::vector<double> tick_seconds;
  size_t observations = 0;
  size_t generations = 0;
};

/// Replays `batches` through a fresh engine over a pipeline seeded with
/// `seed`, one tick per batch, timing each tick end to end (push -> result
/// queryable through the registry's read path).
ReplayResult Replay(const extract::RawDataset& seed,
                    const std::vector<std::vector<extract::RawObservation>>&
                        batches,
                    const api::Options& options,
                    double decay_half_life) {
  auto pipeline = api::PipelineBuilder()
                      .FromDataset(seed)
                      .WithOptions(options)
                      .Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  auto feed = std::make_shared<stream::QueueFeed>();
  stream::StreamOptions stream_options;
  stream_options.decay_half_life = decay_half_life;
  auto engine = stream::StreamEngine::Create(&*pipeline, feed,
                                             stream_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine create failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  query::SnapshotReader reader((*engine)->snapshot_registry());

  ReplayResult result;
  const double total_start = obs::MonotonicSeconds();
  for (size_t b = 0; b < batches.size(); ++b) {
    const double now = static_cast<double>(b + 1);
    std::vector<stream::TimedObservation> timed;
    timed.reserve(batches[b].size());
    for (const extract::RawObservation& obs : batches[b]) {
      timed.push_back(stream::TimedObservation{obs, now});
    }
    result.observations += timed.size();

    const double start = obs::MonotonicSeconds();
    feed->PushBatch(std::move(timed));
    const auto tick = (*engine)->Tick(now);
    if (!tick.ok()) {
      std::fprintf(stderr, "tick %zu failed: %s\n", b,
                   tick.status().ToString().c_str());
      std::exit(1);
    }
    // Queryable = the lock-free reader serves the new generation.
    const query::Snapshot* view = reader.view();
    if (view == nullptr || view->info().sequence != tick->sequence) {
      std::fprintf(stderr, "tick %zu not visible through the reader\n", b);
      std::exit(1);
    }
    result.tick_seconds.push_back(obs::MonotonicSeconds() - start);
  }
  result.total_seconds = obs::MonotonicSeconds() - total_start;
  result.generations = (*engine)->stats().generations_published;
  return result;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1));
  return values[index];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  kbt::testing::CorpusFixtureOptions corpus_options;
  corpus_options.num_subjects = smoke ? 60 : 400;
  corpus_options.num_websites = smoke ? 20 : 120;
  corpus_options.num_extractors = smoke ? 3 : 8;
  corpus_options.max_pages_per_site = smoke ? 4 : 10;
  auto fixture = kbt::testing::MakeCorpusFixture(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture failed: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }

  const size_t num_ticks = smoke ? 4 : 24;
  auto batches =
      kbt::testing::SliceObservations(fixture->dataset, num_ticks + 1);
  extract::RawDataset seed = std::move(fixture->dataset);
  seed.observations = std::move(batches.front());
  batches.erase(batches.begin());

  api::Options options;
  options.granularity = api::Granularity::kPageSource;
  options.multilayer.min_source_support = 1;
  options.multilayer.min_extractor_support = 1;

  std::printf("seed cube: %zu observations; replaying %zu ticks of ~%zu "
              "observations each\n",
              seed.size(), batches.size(),
              batches.empty() ? 0 : batches[0].size());

  const ReplayResult off = Replay(seed, batches, options, 0.0);
  const ReplayResult on = Replay(seed, batches, options, 60.0);

  const double ticks_per_second =
      static_cast<double>(off.tick_seconds.size()) / off.total_seconds;
  const double mean_latency =
      off.total_seconds / static_cast<double>(off.tick_seconds.size());
  const double p50_latency = Percentile(off.tick_seconds, 0.5);
  const double max_latency = Percentile(off.tick_seconds, 1.0);
  const double decay_overhead = on.total_seconds / off.total_seconds;

  exp::PrintBanner("Streaming ingestion: tick loop throughput");
  exp::TablePrinter table({"Mode", "Ticks", "Total (ms)", "Mean tick (ms)",
                           "p50 (ms)", "Max (ms)"});
  table.AddRow({"decay off", std::to_string(off.tick_seconds.size()),
                exp::TablePrinter::Fmt(off.total_seconds * 1e3),
                exp::TablePrinter::Fmt(mean_latency * 1e3),
                exp::TablePrinter::Fmt(p50_latency * 1e3),
                exp::TablePrinter::Fmt(max_latency * 1e3)});
  table.AddRow({"decay on", std::to_string(on.tick_seconds.size()),
                exp::TablePrinter::Fmt(on.total_seconds * 1e3),
                exp::TablePrinter::Fmt(on.total_seconds * 1e3 /
                                       static_cast<double>(
                                           on.tick_seconds.size())),
                exp::TablePrinter::Fmt(Percentile(on.tick_seconds, 0.5) *
                                       1e3),
                exp::TablePrinter::Fmt(Percentile(on.tick_seconds, 1.0) *
                                       1e3)});
  table.Print();
  std::printf("\n%.1f ticks/sec, %zu observations streamed into %zu "
              "generations; decay costs %.2fx the undecayed loop\n",
              ticks_per_second, off.observations, off.generations,
              decay_overhead);

  // ---- Machine-readable output for the perf trajectory ----
  bench::BenchJsonWriter writer("stream_ingest", smoke);
  writer.AddMetadata("seed_observations", static_cast<double>(seed.size()));
  writer.AddMetadata("ticks", static_cast<double>(off.tick_seconds.size()));
  writer.AddMetadata("observations_streamed",
                     static_cast<double>(off.observations));
  writer.AddMetadata("generations_published",
                     static_cast<double>(off.generations));
  writer.AddMetric("ticks_per_second", ticks_per_second, "ops_per_second");
  writer.AddMetric("feed_to_queryable_mean_seconds", mean_latency,
                   "seconds");
  writer.AddMetric("feed_to_queryable_p50_seconds", p50_latency, "seconds");
  writer.AddMetric("feed_to_queryable_max_seconds", max_latency, "seconds");
  writer.AddMetric("decay_off_total_seconds", off.total_seconds, "seconds");
  writer.AddMetric("decay_on_total_seconds", on.total_seconds, "seconds");
  writer.AddMetric("decay_overhead", decay_overhead, "ratio");
  return writer.WriteFile("BENCH_stream.json") ? 0 : 1;
}
