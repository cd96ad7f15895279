#ifndef KBT_API_KBT_H_
#define KBT_API_KBT_H_

/// Umbrella header of the Knowledge-Based Trust library. Downstream code
/// (examples, benches, services) includes only kbt/* headers; the facade
/// re-exports the stable surface of the extraction -> granularity ->
/// inference -> scoring stack.
///
/// Quickstart:
///
///   kbt::api::Options options;                     // paper defaults
///   auto pipeline = kbt::api::PipelineBuilder()
///                       .FromTsv("cube.tsv")
///                       .WithOptions(options)
///                       .Build();
///   auto report = pipeline->Run();                 // StatusOr<TrustReport>
///   // report->website_kbt, report->predictions, report->metrics ...
///
/// For long-lived serving (many cubes, concurrent consumers, streaming
/// appends) wrap pipelines in a kbt::api::TrustService (kbt/service.h):
/// named sessions, non-blocking Submit{Run,Append,RunFrom} returning
/// std::futures, per-session FIFO, cross-session concurrency on one
/// executor, and append coalescing.
///
/// Compiled artifacts persist across processes through the disk cache
/// (Pipeline::EnableDiskCache / ServiceOptions::cache_directory):
/// re-analysis of an unchanged cube loads the compiled matrix instead of
/// recompiling it. Format spec: docs/artifact-format.md.
///
/// The read path is kbt::query (kbt/query.h): completed runs publish
/// immutable, index-backed Snapshots (O(1) point lookups, pre-sorted
/// top-k, cross-snapshot diff) through an RCU-style registry, so any
/// number of reader threads query trust scores lock-free while writes
/// queue behind the compute path (TrustService::Query).
///
/// Cubes too large for one in-memory run shard across K pipelines
/// (kbt/shard.h): a deterministic website-keyed partitioner splits the
/// cube, api::ShardedPipeline scatters runs/appends across the executor
/// and gathers one merged logical report, and query::MergedSnapshot
/// k-way merges the per-shard read views. K = 1 is bit-for-bit identical
/// to an unsharded Pipeline; TrustService sessions can be backed by
/// either transparently (CreateShardedSession).
///
/// Observability is kbt::obs (kbt/obs.h): a process-wide metrics registry
/// (lock-free counters, gauges, mergeable latency histograms), trace
/// spans exportable as Chrome/Perfetto JSON, and Prometheus/JSON render
/// surfaces. Every layer above is pre-instrumented; see
/// docs/OBSERVABILITY.md for the metric catalog and naming scheme.

#include "kbt/data.h"
#include "kbt/obs.h"
#include "kbt/options.h"
#include "kbt/pipeline.h"
#include "kbt/query.h"
#include "kbt/report.h"
#include "kbt/service.h"
#include "kbt/shard.h"

// Analysis toolkit shipped with the library: result tables, the paper's
// figure bucket edges (for obs::Histogram), per-stage EM timers
// (StageTimers, clocked by obs::MonotonicNanos), the hyperlink-graph
// PageRank baseline and shared math helpers.
#include "common/histogram.h"
#include "common/math.h"
#include "common/random.h"
#include "corpus/link_graph.h"
#include "dataflow/parallel.h"
#include "dataflow/stage_timer.h"
#include "exp/table_printer.h"
#include "pagerank/pagerank.h"

#endif  // KBT_API_KBT_H_
