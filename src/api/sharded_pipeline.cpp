#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "dataflow/parallel.h"
#include "extract/dataset_partition.h"
#include "io/dataset_io.h"
#include "kb/ids.h"
#include "kbt/obs.h"
#include "kbt/shard.h"

namespace kbt::api {

namespace {

Status AnnotateShard(const Status& status, uint32_t shard_index) {
  return Status(status.code(), "shard " + std::to_string(shard_index) + ": " +
                                   status.message());
}

/// Flattens per-shard reports into one logical serving report. K = 1 is a
/// verbatim passthrough — the bit-for-bit parity guarantee. For K > 1:
/// website rows come from each website's owner shard, source rows
/// concatenate in shard order (ShardedTrustReport::source_offset),
/// predictions merge under the cross-shard triple rule, counts/timings
/// sum. Inference vectors stay empty (shard-local coordinates; warm starts
/// use the per-shard reports).
TrustReport MergeReports(const std::vector<TrustReport>& shards,
                         uint64_t salt) {
  if (shards.size() == 1) return shards[0];
  const uint32_t k = static_cast<uint32_t>(shards.size());
  TrustReport merged;
  merged.model = shards[0].model;
  merged.granularity = shards[0].granularity;

  merged.inference.iterations = 0;
  merged.inference.converged = true;
  size_t num_website_rows = 0;
  for (const TrustReport& report : shards) {
    merged.counts.num_observations += report.counts.num_observations;
    merged.counts.num_slots += report.counts.num_slots;
    merged.counts.num_extractions += report.counts.num_extractions;
    merged.counts.num_sources += report.counts.num_sources;
    merged.counts.num_extractor_groups += report.counts.num_extractor_groups;
    merged.counts.num_websites =
        std::max(merged.counts.num_websites, report.counts.num_websites);
    merged.inference.iterations =
        std::max(merged.inference.iterations, report.inference.iterations);
    merged.inference.converged =
        merged.inference.converged && report.inference.converged;
    num_website_rows = std::max(num_website_rows, report.website_kbt.size());
  }

  // Websites: every shard carries a globally-aligned table, but only the
  // owner shard's row has that website's evidence; non-owner rows are the
  // zero-filled alignment padding. Shards can be ragged after appends
  // (only the owner's table grows), hence the bounds check.
  merged.website_kbt.resize(num_website_rows);
  for (size_t w = 0; w < num_website_rows; ++w) {
    const uint32_t owner = extract::ShardOfWebsite(
        static_cast<kb::WebsiteId>(w), k, salt);
    if (w < shards[owner].website_kbt.size()) {
      merged.website_kbt[w] = shards[owner].website_kbt[w];
    }
  }

  // Sources: group ids are shard-local, so the global id space is the
  // shard-order concatenation (offsets via source_offset()).
  for (const TrustReport& report : shards) {
    merged.source_kbt.insert(merged.source_kbt.end(),
                             report.source_kbt.begin(),
                             report.source_kbt.end());
  }

  // Predictions: a triple claimed on differently-sharded websites appears
  // in several shard reports; keep the winner under the cross-shard rule
  // (probability desc, covered over uncovered, lowest shard) and emit in
  // (item, value) order so items stay contiguous for Snapshot::Build.
  std::vector<std::pair<eval::TriplePrediction, uint32_t>> candidates;
  for (uint32_t s = 0; s < k; ++s) {
    for (const eval::TriplePrediction& prediction : shards[s].predictions) {
      candidates.emplace_back(prediction, s);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first.item != b.first.item) {
                return a.first.item < b.first.item;
              }
              if (a.first.value != b.first.value) {
                return a.first.value < b.first.value;
              }
              if (a.first.probability != b.first.probability) {
                return a.first.probability > b.first.probability;
              }
              if (a.first.covered != b.first.covered) return a.first.covered;
              return a.second < b.second;
            });
  merged.predictions.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0 && candidates[i].first.item == candidates[i - 1].first.item &&
        candidates[i].first.value == candidates[i - 1].first.value) {
      continue;
    }
    merged.predictions.push_back(candidates[i].first);
    if (merged.predictions.size() == 1 ||
        merged.predictions[merged.predictions.size() - 2].item !=
            candidates[i].first.item) {
      merged.counts.num_items++;
    }
  }

  // Stage timings: summed per stage name (every shard runs the same stage
  // sequence), so the merged report's timing profile reads like one run's.
  for (const TrustReport& report : shards) {
    for (const auto& [name, seconds] : report.stage_seconds) {
      auto it = std::find_if(
          merged.stage_seconds.begin(), merged.stage_seconds.end(),
          [&name](const auto& entry) { return entry.first == name; });
      if (it == merged.stage_seconds.end()) {
        merged.stage_seconds.emplace_back(name, seconds);
      } else {
        it->second += seconds;
      }
    }
  }
  return merged;
}

}  // namespace

struct ShardedPipeline::Impl {
  Options options;
  uint32_t num_shards = 1;
  uint64_t salt = 0;
  /// Never null (Create normalizes to DefaultExecutor()).
  dataflow::Executor* executor = nullptr;
  std::vector<Pipeline> shards;
  /// Serves the flattened merged snapshots; per-shard snapshots live on
  /// each shard pipeline's own registry.
  std::shared_ptr<query::SnapshotRegistry> registry =
      std::make_shared<query::SnapshotRegistry>();

  /// Scatters `run(shard_index)` across the executor via TaskGroup (the
  /// donating join: safe from a task already on the pool, e.g. a
  /// TrustService strand) and gathers per-shard reports, first error wins.
  /// Per-shard wall times feed the imbalance metrics: the
  /// kbt_shard_run_seconds histogram and the straggler gauge (slowest
  /// shard / mean shard — 1.0 is a perfectly balanced scatter).
  template <typename RunShard>
  StatusOr<ShardedTrustReport> ScatterGather(RunShard run) {
    KBT_TRACE_SPAN("shard.scatter_gather");
    std::vector<StatusOr<TrustReport>> results(
        num_shards, StatusOr<TrustReport>(Status::Internal("not run")));
    std::vector<double> shard_seconds(num_shards, 0.0);
    const bool timed = obs::MetricsEnabled();
    const uint64_t parent_span = obs::TraceSpan::CurrentId();
    {
      TaskGroup group(&executor->pool());
      for (uint32_t s = 0; s < num_shards; ++s) {
        group.Submit([&results, &shard_seconds, &run, s, timed,
                      parent_span] {
          // Shard tasks hop threads: link their spans to the scatter
          // explicitly (the implicit per-thread parent is the wrong one).
          KBT_TRACE_SPAN_LINKED("shard.run", parent_span);
          const uint64_t start_ns = timed ? obs::MonotonicNanos() : 0;
          results[s] = run(s);
          if (timed) {
            shard_seconds[s] =
                static_cast<double>(obs::MonotonicNanos() - start_ns) * 1e-9;
          }
        });
      }
      group.Wait();
    }
    if (timed) {
      static obs::Histogram* const run_seconds =
          obs::MetricsRegistry::Default().GetHistogram(
              "kbt_shard_run_seconds");
      static obs::Gauge* const straggler_ratio =
          obs::MetricsRegistry::Default().GetGauge(
              "kbt_shard_straggler_ratio");
      static obs::Counter* const scatters =
          obs::MetricsRegistry::Default().GetCounter(
              "kbt_shard_scatters_total");
      double sum = 0.0;
      double slowest = 0.0;
      for (const double seconds : shard_seconds) {
        run_seconds->Record(seconds);
        sum += seconds;
        slowest = std::max(slowest, seconds);
      }
      const double mean = sum / static_cast<double>(num_shards);
      if (mean > 0.0) straggler_ratio->Set(slowest / mean);
      scatters->Increment();
    }
    ShardedTrustReport gathered;
    gathered.shards.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (!results[s].ok()) return AnnotateShard(results[s].status(), s);
      gathered.shards.push_back(std::move(*results[s]));
    }
    gathered.merged = MergeReports(gathered.shards, salt);
    return gathered;
  }
};

StatusOr<ShardedPipeline> ShardedPipeline::Create(extract::RawDataset dataset,
                                                  Options options,
                                                  ShardOptions shard_options) {
  if (shard_options.num_shards == 0) {
    return Status::InvalidArgument(
        "ShardedPipeline: num_shards must be >= 1");
  }
  extract::PartitionOptions partition_options;
  partition_options.num_shards = shard_options.num_shards;
  partition_options.salt = shard_options.salt;
  StatusOr<extract::DatasetPartition> partition =
      extract::PartitionDataset(dataset, partition_options);
  if (!partition.ok()) return partition.status();

  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->num_shards = shard_options.num_shards;
  impl->salt = shard_options.salt;
  impl->executor = shard_options.executor != nullptr
                       ? shard_options.executor
                       : &dataflow::DefaultExecutor();
  impl->shards.reserve(impl->num_shards);
  for (uint32_t s = 0; s < impl->num_shards; ++s) {
    StatusOr<Pipeline> shard =
        PipelineBuilder()
            .FromDataset(std::move(partition->shards[s]))
            .WithOptions(options)
            .WithExecutor(impl->executor)
            .Build();
    if (!shard.ok()) return AnnotateShard(shard.status(), s);
    impl->shards.push_back(std::move(*shard));
  }
  return ShardedPipeline(std::move(impl));
}

ShardedPipeline::ShardedPipeline(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ShardedPipeline::ShardedPipeline(ShardedPipeline&&) noexcept = default;
ShardedPipeline& ShardedPipeline::operator=(ShardedPipeline&&) noexcept =
    default;
ShardedPipeline::~ShardedPipeline() = default;

StatusOr<ShardedTrustReport> ShardedPipeline::Run() {
  Impl& impl = *impl_;
  return impl.ScatterGather(
      [&impl](uint32_t s) { return impl.shards[s].Run(); });
}

StatusOr<ShardedTrustReport> ShardedPipeline::RunFrom(
    const ShardedTrustReport& previous) {
  Impl& impl = *impl_;
  if (previous.shards.size() != impl.num_shards) {
    return Status::FailedPrecondition(
        "RunFrom: previous report has " +
        std::to_string(previous.shards.size()) + " shard(s), pipeline has " +
        std::to_string(impl.num_shards));
  }
  return impl.ScatterGather([&impl, &previous](uint32_t s) {
    return impl.shards[s].RunFrom(previous.shards[s]);
  });
}

Status ShardedPipeline::AppendObservations(
    const std::vector<extract::RawObservation>& observations) {
  Impl& impl = *impl_;
  if (observations.empty()) return Status::OK();
  // Pre-validate the WHOLE delta before any shard mutates, so a bad batch
  // is rejected all-or-nothing (per-shard appends alone would apply the
  // valid shards' slices first). Any shard's nfalse table serves the
  // domain-size check: original entries are replicated and grown entries
  // are always the positive default.
  KBT_RETURN_IF_ERROR(io::ValidateAppendedObservations(
      impl.shards[0].dataset(), observations));
  extract::PartitionOptions partition_options;
  partition_options.num_shards = impl.num_shards;
  partition_options.salt = impl.salt;
  const std::vector<std::vector<extract::RawObservation>> buckets =
      extract::PartitionObservations(observations, partition_options);
  // Scatter the per-shard patches (each is an independent CSR merge).
  std::vector<Status> statuses(impl.num_shards);
  {
    TaskGroup group(&impl.executor->pool());
    for (uint32_t s = 0; s < impl.num_shards; ++s) {
      if (buckets[s].empty()) continue;  // Untouched shard: no-op.
      group.Submit([&impl, &buckets, &statuses, s] {
        statuses[s] = impl.shards[s].AppendObservations(buckets[s]);
      });
    }
    group.Wait();
  }
  for (uint32_t s = 0; s < impl.num_shards; ++s) {
    if (!statuses[s].ok()) return AnnotateShard(statuses[s], s);
  }
  return Status::OK();
}

Status ShardedPipeline::EnableDiskCache(const std::string& directory,
                                        uint64_t max_bytes) {
  Impl& impl = *impl_;
  for (uint32_t s = 0; s < impl.num_shards; ++s) {
    const Status enabled = impl.shards[s].EnableDiskCache(
        directory + "/shard-" + std::to_string(s), max_bytes);
    if (!enabled.ok()) return AnnotateShard(enabled, s);
  }
  return Status::OK();
}

std::shared_ptr<const query::Snapshot> ShardedPipeline::PublishSnapshot(
    const ShardedTrustReport& reports) {
  return PublishSnapshot(reports, 0.0);
}

std::shared_ptr<const query::Snapshot> ShardedPipeline::PublishSnapshot(
    const ShardedTrustReport& reports, double publish_time) {
  Impl& impl = *impl_;
  const size_t n =
      std::min<size_t>(reports.shards.size(), impl.shards.size());
  for (size_t s = 0; s < n; ++s) {
    impl.shards[s].PublishSnapshot(reports.shards[s], publish_time);
  }
  query::SnapshotInfo stamp;
  stamp.dataset_fingerprint = dataset_fingerprint();
  return impl.registry->Publish(
      query::Snapshot::Build(reports.merged, stamp), publish_time);
}

std::shared_ptr<query::SnapshotRegistry> ShardedPipeline::snapshot_registry()
    const {
  return impl_->registry;
}

query::MergedSnapshot ShardedPipeline::MergedView() const {
  const Impl& impl = *impl_;
  std::vector<std::shared_ptr<const query::Snapshot>> snapshots;
  snapshots.reserve(impl.shards.size());
  for (const Pipeline& shard : impl.shards) {
    snapshots.push_back(shard.snapshot_registry()->Current());
  }
  return query::MergedSnapshot(std::move(snapshots), impl.salt);
}

void ShardedPipeline::AttachExecutor(dataflow::Executor* executor) {
  Impl& impl = *impl_;
  impl.executor =
      executor != nullptr ? executor : &dataflow::DefaultExecutor();
  for (Pipeline& shard : impl.shards) {
    shard.AttachExecutor(impl.executor);
  }
}

uint64_t ShardedPipeline::dataset_fingerprint() const {
  const Impl& impl = *impl_;
  if (impl.num_shards == 1) return impl.shards[0].dataset_fingerprint();
  uint64_t combined = Mix64(impl.num_shards ^ Mix64(impl.salt));
  for (const Pipeline& shard : impl.shards) {
    combined = HashChain(combined, shard.dataset_fingerprint());
  }
  return combined;
}

uint32_t ShardedPipeline::num_shards() const { return impl_->num_shards; }
uint64_t ShardedPipeline::salt() const { return impl_->salt; }
const Options& ShardedPipeline::options() const { return impl_->options; }

const Pipeline& ShardedPipeline::shard(uint32_t shard_index) const {
  return impl_->shards.at(shard_index);
}

}  // namespace kbt::api
