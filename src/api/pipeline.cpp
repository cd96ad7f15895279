#include "kbt/pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cache/artifact_store.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/math.h"
#include "core/initialization.h"
#include "core/kbt_score.h"
#include "core/multilayer_model.h"
#include "dataflow/parallel.h"
#include "dataflow/stage_timer.h"
#include "eval/gold_standard.h"
#include "exp/kv_sim.h"
#include "exp/synthetic.h"
#include "extract/observation_matrix.h"
#include "fusion/single_layer.h"
#include "granularity/assignments.h"
#include "io/dataset_io.h"
#include "kbt/obs.h"
#include "kbt/query.h"

namespace kbt::api {

struct Pipeline::Impl {
  Options options;

  extract::RawDataset owned_dataset;
  /// Points at owned_dataset, kv->data, or an external dataset.
  const extract::RawDataset* dataset = nullptr;
  /// True only when AppendObservations may mutate the cube.
  bool dataset_owned = false;

  std::unique_ptr<exp::KvSimData> kv;
  std::unique_ptr<eval::GoldStandard> owned_gold;
  const eval::GoldStandard* gold = nullptr;

  dataflow::Executor* executor = nullptr;
  dataflow::StageTimers* timers = nullptr;
  ProgressCallback progress;

  /// Cache: kept in sync with the dataset. A re-run (warm start, repeated
  /// Run) skips granularity + compilation entirely; AppendObservations
  /// extends the assignment and patches the matrix in place for stateless
  /// granularities instead of dropping them.
  std::optional<extract::GroupAssignment> assignment;
  std::optional<extract::CompiledMatrix> matrix;
  /// Incremental assignment builder behind `assignment` (absent for
  /// SPLITANDMERGE, whose grouping shifts when data is appended).
  std::optional<granularity::AssignmentExtender> extender;
  /// Observations covered by `matrix` (a prefix of the dataset).
  size_t compiled_observations = 0;

  /// Per-observation evidence weights (SetObservationWeights); empty means
  /// unweighted — runs take exactly the historical code path. Cleared by
  /// AppendObservations because the observation count they parallel changed.
  std::vector<float> observation_weights;

  /// Lazily computed io::DatasetFingerprint of `dataset`; reset whenever
  /// the dataset mutates (appends). The lock makes concurrent *const*
  /// reads safe against each other (no torn cache); it does NOT license
  /// reading while AppendObservations mutates the dataset — see the
  /// accessor's contract in kbt/pipeline.h.
  mutable Mutex fingerprint_mutex;
  mutable std::optional<uint64_t> fingerprint KBT_GUARDED_BY(fingerprint_mutex);

  /// Persistent artifact store (EnableDiskCache) and the compile-options
  /// half of its key; absent until enabled.
  std::optional<cache::ArtifactStore> store;
  uint64_t options_fingerprint = 0;

  /// Read-side publication point (PublishSnapshot). Shared so query
  /// readers keep it — and the snapshots it serves — alive past this
  /// pipeline's destruction.
  std::shared_ptr<query::SnapshotRegistry> snapshot_registry =
      std::make_shared<query::SnapshotRegistry>();

  void InvalidateCache() {
    assignment.reset();
    matrix.reset();
    extender.reset();
    compiled_observations = 0;
    // Also drop the memoized content hash: InvalidateCache's contract
    // covers datasets mutated behind the pipeline's back (borrowed
    // datasets), where a stale fingerprint would key the disk cache to
    // pre-mutation artifacts.
    MutexLock lock(fingerprint_mutex);
    fingerprint.reset();
  }
};

namespace {

/// Times one pipeline stage into the report, the shared StageTimers (under
/// "Pipeline.<stage>") and the progress callback, and opens a trace span
/// ("pipeline.<stage>") so stage boundaries land in exported traces. The
/// clock is obs::MonotonicNanos (the report's stage_seconds stay populated
/// regardless of the metrics switch — timing a run is the report's job).
class StageScope {
 public:
  StageScope(Pipeline::Impl& impl, TrustReport& report, Stage stage)
      : impl_(impl),
        report_(report),
        stage_(stage),
        start_ns_(obs::MonotonicNanos()),
        span_(std::string("pipeline.") + std::string(StageName(stage))) {}
  ~StageScope() {
    const double seconds =
        static_cast<double>(obs::MonotonicNanos() - start_ns_) * 1e-9;
    const std::string name(StageName(stage_));
    report_.stage_seconds.emplace_back(name, seconds);
    if (impl_.timers != nullptr) impl_.timers->Add("Pipeline." + name, seconds);
    if (impl_.progress) impl_.progress(stage_, seconds);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Pipeline::Impl& impl_;
  TrustReport& report_;
  Stage stage_;
  uint64_t start_ns_;
  obs::TraceSpan span_;
};

core::TripleLabelFn MakeLabelFn(const eval::GoldStandard& gold) {
  return [&gold](kb::DataItemId item, kb::ValueId value) {
    return gold.Label(item, value);
  };
}

/// The incremental grouping rule behind an api::Granularity, when one
/// exists (SPLITANDMERGE re-buckets on every change and has none).
std::optional<granularity::StatelessGranularity> StatelessKind(
    Granularity granularity) {
  switch (granularity) {
    case Granularity::kFinest:
      return granularity::StatelessGranularity::kFinest;
    case Granularity::kPageSource:
      return granularity::StatelessGranularity::kPageSource;
    case Granularity::kWebsiteSource:
      return granularity::StatelessGranularity::kWebsiteSource;
    case Granularity::kProvenance:
      return granularity::StatelessGranularity::kProvenance;
    case Granularity::kSplitMerge:
      return std::nullopt;
  }
  return std::nullopt;
}

uint64_t CurrentFingerprint(const Pipeline::Impl& impl) {
  MutexLock lock(impl.fingerprint_mutex);
  if (!impl.fingerprint) {
    impl.fingerprint = io::DatasetFingerprint(*impl.dataset);
  }
  return *impl.fingerprint;
}

/// Loads the store entry keyed by the current (dataset, options) pair into
/// the in-memory cache. On any non-OK return the in-memory cache is left
/// untouched. The store verifies integrity (CRC), identity (stored
/// fingerprints vs key) and structural invariants; here only the coverage
/// check remains. The AssignmentExtender behind incremental appends is NOT
/// reconstructed eagerly — a pure warm start never needs it, so
/// AppendObservations rebuilds it lazily (one replay pass) on the first
/// append after a load.
Status LoadArtifacts(Pipeline::Impl& impl) {
  const uint64_t dataset_fp = CurrentFingerprint(impl);
  StatusOr<cache::ArtifactBundle> loaded =
      impl.store->Get(dataset_fp, impl.options_fingerprint);
  if (!loaded.ok()) return loaded.status();
  cache::ArtifactBundle& bundle = *loaded;
  if (bundle.compiled_observations != impl.dataset->size()) {
    return Status::FailedPrecondition(
        "artifact entry covers " +
        std::to_string(bundle.compiled_observations) +
        " observations, the dataset has " +
        std::to_string(impl.dataset->size()));
  }
  impl.extender.reset();
  impl.assignment = std::move(bundle.assignment);
  impl.matrix = std::move(bundle.matrix);
  impl.compiled_observations =
      static_cast<size_t>(bundle.compiled_observations);
  return Status::OK();
}

/// Persists the in-memory compiled artifacts under the current key.
Status SaveArtifacts(Pipeline::Impl& impl) {
  if (!impl.assignment || !impl.matrix) {
    return Status::FailedPrecondition(
        "nothing compiled yet: run the pipeline (or load) before saving");
  }
  if (impl.compiled_observations != impl.dataset->size()) {
    // The matrix lags the dataset (e.g. an append fell back to
    // invalidation midway); persisting it would store a stale entry under
    // the grown dataset's key.
    return Status::FailedPrecondition(
        "compiled matrix covers a prefix of the dataset; run before saving");
  }
  return impl.store->Put(CurrentFingerprint(impl), impl.options_fingerprint,
                         impl.compiled_observations, *impl.assignment,
                         *impl.matrix);
}

Status EnsureCompiled(Pipeline::Impl& impl, TrustReport& report) {
  bool compiled_now = false;
  {
    StageScope scope(impl, report, Stage::kGranularity);
    // Disk-cache fast path: with a store attached and nothing compiled,
    // try the persisted artifacts first. Misses are silent; corrupt or
    // stale entries are logged and fall back to a clean rebuild.
    if (impl.store && (!impl.assignment || !impl.matrix)) {
      const Status loaded = LoadArtifacts(impl);
      if (!loaded.ok() && loaded.code() != StatusCode::kNotFound) {
        KBT_LOG(Warning) << "kbt disk cache: rejecting persisted artifacts, "
                            "recompiling instead: "
                         << loaded.ToString();
      }
    }
    if (!impl.assignment) {
      impl.extender.reset();
      if (const std::optional<granularity::StatelessGranularity> kind =
              StatelessKind(impl.options.granularity)) {
        // Built through the incremental extender so that later appends can
        // extend the cached assignment with stable group ids.
        impl.extender.emplace(*kind);
        extract::GroupAssignment assignment;
        KBT_RETURN_IF_ERROR(impl.extender->Extend(*impl.dataset, &assignment));
        impl.assignment = std::move(assignment);
      } else if (impl.options.granularity == Granularity::kSplitMerge) {
        StatusOr<extract::GroupAssignment> sm =
            granularity::SplitMergeAssignment(
                *impl.dataset, impl.options.sm_source,
                impl.options.sm_extractor, impl.timers);
        if (!sm.ok()) return sm.status();
        impl.assignment = std::move(*sm);
      } else {
        // E.g. an unchecked integer cast into the enum.
        return Status::InvalidArgument(
            "unknown granularity value " +
            std::to_string(static_cast<int>(impl.options.granularity)));
      }
    }
  }
  {
    StageScope scope(impl, report, Stage::kCompile);
    if (!impl.matrix) {
      StatusOr<extract::CompiledMatrix> matrix =
          extract::CompiledMatrix::Build(*impl.dataset, *impl.assignment);
      if (!matrix.ok()) return matrix.status();
      impl.matrix = std::move(*matrix);
      impl.compiled_observations = impl.dataset->size();
      compiled_now = true;
    }
  }
  if (compiled_now && impl.store) {
    // Best effort: a failed save costs the next session a recompile, not
    // this run its result.
    const Status saved = SaveArtifacts(impl);
    if (!saved.ok()) {
      KBT_LOG(Warning) << "kbt disk cache: could not persist compiled "
                          "artifacts: "
                       << saved.ToString();
    }
  }
  return Status::OK();
}

/// Grows a warm-start InitialQuality to `num_sources` / `num_groups` by
/// giving groups introduced after the previous run the same prior values a
/// cold start would use (config defaults). Non-empty vectors only: empty
/// ones already select the defaults wholesale.
void ExtendInitialQuality(core::InitialQuality& initial,
                          uint32_t num_sources, uint32_t num_groups,
                          const core::MultiLayerConfig& config) {
  if (!initial.source_accuracy.empty()) {
    initial.source_accuracy.resize(num_sources,
                                   config.default_source_accuracy);
  }
  if (!initial.source_trusted.empty()) {
    initial.source_trusted.resize(num_sources, 0);
  }
  if (!initial.extractor_recall.empty()) {
    initial.extractor_recall.resize(num_groups, config.default_recall);
  }
  if (!initial.extractor_q.empty()) {
    initial.extractor_q.resize(num_groups, config.default_q);
  }
  if (!initial.extractor_precision.empty()) {
    // The model's size validation requires a non-empty vector to match the
    // group count even though extractor_q (always set on this path) wins
    // and the precision values themselves are re-derived from it.
    initial.extractor_precision.resize(
        num_groups,
        PrecisionFromQ(config.default_q, config.default_recall, config.gamma));
  }
}

StatusOr<TrustReport> RunImpl(Pipeline::Impl& impl,
                              const core::InitialQuality* explicit_initial,
                              const TrustReport* warm_from) {
  TrustReport report;
  report.model = impl.options.model;
  report.granularity = impl.options.granularity;
  KBT_RETURN_IF_ERROR(EnsureCompiled(impl, report));
  const extract::CompiledMatrix& matrix = *impl.matrix;

  report.counts.num_observations = impl.dataset->size();
  report.counts.num_slots = matrix.num_slots();
  report.counts.num_items = matrix.num_items();
  report.counts.num_extractions = matrix.num_extractions();
  report.counts.num_sources = matrix.num_sources();
  report.counts.num_extractor_groups = matrix.num_extractor_groups();
  report.counts.num_websites = impl.dataset->num_websites;

  core::InitialQuality initial;
  {
    StageScope scope(impl, report, Stage::kInitialize);
    if (warm_from != nullptr) {
      // Appends only ever grow the group tables (ids are stable), so a
      // previous report whose shape is a prefix of the current one warm
      // starts cleanly: groups introduced since get prior-initialized
      // entries. A *larger* previous shape means the report came from a
      // different granularity (or dataset) and is rejected.
      if (warm_from->counts.num_sources > matrix.num_sources() ||
          warm_from->counts.num_extractor_groups >
              matrix.num_extractor_groups()) {
        return Status::FailedPrecondition(
            "warm start requires a report of the same or a prefix shape: "
            "previous run had " +
            std::to_string(warm_from->counts.num_sources) + " sources / " +
            std::to_string(warm_from->counts.num_extractor_groups) +
            " extractor groups, this pipeline has " +
            std::to_string(matrix.num_sources()) + " / " +
            std::to_string(matrix.num_extractor_groups()));
      }
      const bool grown =
          warm_from->counts.num_sources != matrix.num_sources() ||
          warm_from->counts.num_extractor_groups !=
              matrix.num_extractor_groups();
      if (grown && (warm_from->granularity != impl.options.granularity ||
                    !StatelessKind(impl.options.granularity))) {
        // A smaller shape is only meaningful as an append-grown prefix,
        // and group ids are append-stable only within one *stateless*
        // granularity: a report from another granularity — or from
        // SPLITANDMERGE, which re-buckets (and so renumbers) groups
        // whenever the cube grows — would smear unrelated groups' quality
        // onto ids that happen to collide.
        return Status::FailedPrecondition(
            std::string("a grown-shape warm start requires the same "
                        "stateless granularity on both runs: previous run "
                        "used ") +
            std::string(GranularityName(warm_from->granularity)) +
            ", this pipeline uses " +
            std::string(GranularityName(impl.options.granularity)));
      }
      initial = warm_from->ToInitialQuality();
      ExtendInitialQuality(initial, matrix.num_sources(),
                           matrix.num_extractor_groups(),
                           impl.options.multilayer);
    } else if (explicit_initial != nullptr) {
      initial = *explicit_initial;
    } else if (impl.options.smart_init && impl.gold != nullptr) {
      initial = core::InitialQualityFromLabels(matrix, MakeLabelFn(*impl.gold),
                                               impl.options.multilayer,
                                               impl.options.smart_init_options);
    }
  }

  // ---- Optional per-edge evidence weights (SetObservationWeights) ----
  // Observation weights are reduced onto compiled extraction edges by max
  // (mirroring the compiler's max-confidence dedup; commutative, so the
  // reduction is deterministic regardless of observation order). The
  // mapping is recomputed per run because appends shift edge ids.
  std::vector<float> edge_weights;
  const std::vector<float>* edge_weights_ptr = nullptr;
  if (!impl.observation_weights.empty()) {
    if (impl.observation_weights.size() != impl.dataset->size()) {
      return Status::FailedPrecondition(
          "observation weights hold " +
          std::to_string(impl.observation_weights.size()) +
          " entries but the dataset has " +
          std::to_string(impl.dataset->size()) +
          " observations (stale SetObservationWeights call?)");
    }
    StatusOr<std::vector<uint32_t>> obs_edges =
        matrix.MapObservationEdges(*impl.dataset, *impl.assignment);
    if (!obs_edges.ok()) return obs_edges.status();
    edge_weights.assign(matrix.num_extractions(), 0.0f);
    for (size_t o = 0; o < obs_edges->size(); ++o) {
      const uint32_t e = (*obs_edges)[o];
      edge_weights[e] = std::max(edge_weights[e], impl.observation_weights[o]);
    }
    edge_weights_ptr = &edge_weights;
  }

  {
    StageScope scope(impl, report, Stage::kInference);
    if (impl.options.model == Model::kSingleLayer) {
      StatusOr<fusion::SingleLayerResult> result =
          fusion::SingleLayerModel::Run(matrix, impl.options.single_layer,
                                        initial.source_accuracy, impl.executor,
                                        impl.timers, initial.source_trusted,
                                        edge_weights_ptr);
      if (!result.ok()) return result.status();
      core::MultiLayerResult& out = report.inference;
      out.source_accuracy = std::move(result->source_accuracy);
      out.source_supported = std::move(result->source_supported);
      out.slot_value_prob = std::move(result->slot_value_prob);
      out.slot_covered = std::move(result->slot_covered);
      out.item_unobserved_value_prob =
          std::move(result->item_unobserved_value_prob);
      // The baseline takes every extraction at face value (its defining
      // weakness): correctness is certainty, so website KBT degenerates to
      // the mean claim probability, the paper's single-layer KBT proxy.
      out.slot_correct_prob.assign(matrix.num_slots(), 1.0);
      out.iterations = result->iterations;
      out.converged = result->converged;
    } else {
      StatusOr<core::MultiLayerResult> result = core::MultiLayerModel::Run(
          matrix, impl.options.multilayer, initial, impl.executor,
          impl.timers, edge_weights_ptr);
      if (!result.ok()) return result.status();
      report.inference = std::move(*result);
    }
  }

  {
    StageScope scope(impl, report, Stage::kScore);
    if (impl.options.score_websites) {
      report.website_kbt = core::ComputeWebsiteKbt(
          matrix, report.inference, impl.dataset->num_websites);
    }
    if (impl.options.score_sources) {
      report.source_kbt = core::ComputeSourceKbt(matrix, report.inference);
    }
  }

  {
    StageScope scope(impl, report, Stage::kEvaluate);
    report.predictions = eval::TriplePredictions(
        matrix, report.inference.slot_value_prob,
        report.inference.slot_covered);
    if (impl.gold != nullptr) {
      report.metrics = eval::EvaluateTriples(report.predictions, *impl.gold);
    }
  }
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Pipeline::Pipeline(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Pipeline::Pipeline(Pipeline&& other) noexcept = default;
Pipeline& Pipeline::operator=(Pipeline&& other) noexcept = default;
Pipeline::~Pipeline() = default;

StatusOr<TrustReport> Pipeline::Run() {
  return RunImpl(*impl_, nullptr, nullptr);
}

StatusOr<TrustReport> Pipeline::Run(const core::InitialQuality& initial) {
  return RunImpl(*impl_, &initial, nullptr);
}

StatusOr<TrustReport> Pipeline::RunFrom(const TrustReport& previous) {
  return RunImpl(*impl_, nullptr, &previous);
}

Status Pipeline::AppendObservations(
    const std::vector<extract::RawObservation>& observations) {
  Impl& impl = *impl_;
  if (!impl.dataset_owned) {
    return Status::FailedPrecondition(
        "AppendObservations requires a pipeline-owned mutable dataset "
        "(FromDataset(RawDataset), FromTsv or FromSynthetic)");
  }
  // An empty delta changes nothing: keep every cache warm.
  if (observations.empty()) return Status::OK();
  extract::RawDataset& data = impl.owned_dataset;
  // Validate everything before mutating, so a rejected batch leaves the
  // dataset untouched and the grown cube always satisfies
  // io::ValidateRawDataset (new predicates get the default domain below).
  KBT_RETURN_IF_ERROR(io::ValidateAppendedObservations(data, observations));
  for (const extract::RawObservation& obs : observations) {
    data.num_extractors = std::max(data.num_extractors, obs.extractor + 1);
    data.num_patterns = std::max(data.num_patterns, obs.pattern + 1);
    data.num_websites = std::max(data.num_websites, obs.website + 1);
    data.num_pages = std::max(data.num_pages, obs.page + 1);
    const kb::PredicateId predicate = kb::DataItemPredicate(obs.item);
    if (data.num_false_by_predicate.size() <= predicate) {
      // Cover new predicates with the library's default domain size.
      data.num_false_by_predicate.resize(predicate + 1, 10);
    }
    data.observations.push_back(obs);
  }
  if (!data.observation_timestamps.empty()) {
    // Keep the parallel-vector invariant for timestamped datasets. The
    // appended batch carries no times through this signature; callers that
    // track them (the streaming engine keeps its own timeline) overlay the
    // real values via SetObservationWeights-derived decay instead.
    data.observation_timestamps.resize(data.observations.size(), 0.0);
  }
  // The weights parallel the old observation count; a run against the grown
  // cube with truncated weights would silently mis-weight the tail.
  impl.observation_weights.clear();
  {
    MutexLock lock(impl.fingerprint_mutex);
    impl.fingerprint.reset();  // Content changed; recompute lazily.
  }

  // ---- Incremental recompilation: extend the cached assignment with the
  // delta (group ids are stable for stateless granularities) and patch the
  // compiled matrix's CSR structures instead of dropping them. SPLITANDMERGE
  // re-buckets on growth, so it falls back to invalidation, as does any
  // delta the matrix reports as structure-invalidating.
  if (!impl.assignment) return Status::OK();  // Nothing compiled yet.
  if (!impl.extender) {
    const std::optional<granularity::StatelessGranularity> kind =
        StatelessKind(impl.options.granularity);
    if (!kind) {
      // SPLITANDMERGE re-buckets on growth: no incremental path exists.
      impl.InvalidateCache();
      return Status::OK();
    }
    // The assignment came from a disk-cache load, which skips the
    // extender's internal state (a pure warm start never appends, so the
    // replay cost is deferred to here). Group ids are first-visit-stable:
    // replaying the *grown* cube yields exactly the loaded assignment
    // extended with the delta, and leaves the extender consistent for the
    // appends that follow.
    granularity::AssignmentExtender extender(*kind);
    extract::GroupAssignment replayed;
    const Status replay = extender.Extend(data, &replayed);
    if (!replay.ok()) {
      impl.InvalidateCache();
      return replay;
    }
    // Cross-check: the loaded assignment must be a prefix of the replay
    // (it was allegedly derived from the base observations of this very
    // dataset). A divergence means the entry was compiled from different
    // content (fingerprint collision / forged entry) and its matrix is
    // untrustworthy — drop everything and let the next run rebuild cold.
    const extract::GroupAssignment& prior = *impl.assignment;
    const bool prefix_ok =
        prior.observation_source.size() <= replayed.observation_source.size() &&
        prior.num_source_groups <= replayed.num_source_groups &&
        prior.num_extractor_groups <= replayed.num_extractor_groups &&
        std::equal(prior.observation_source.begin(),
                   prior.observation_source.end(),
                   replayed.observation_source.begin()) &&
        std::equal(prior.observation_extractor.begin(),
                   prior.observation_extractor.end(),
                   replayed.observation_extractor.begin()) &&
        std::equal(prior.source_infos.begin(), prior.source_infos.end(),
                   replayed.source_infos.begin()) &&
        std::equal(prior.extractor_scopes.begin(),
                   prior.extractor_scopes.end(),
                   replayed.extractor_scopes.begin());
    if (!prefix_ok) {
      KBT_LOG(Warning) << "kbt disk cache: loaded assignment diverges from "
                          "one replayed from the dataset; discarding the "
                          "cached artifacts and recompiling";
      impl.InvalidateCache();
      return Status::OK();
    }
    impl.extender = std::move(extender);
    impl.assignment = std::move(replayed);
  } else {
    const Status extended = impl.extender->Extend(data, &*impl.assignment);
    if (!extended.ok()) {
      impl.InvalidateCache();
      return extended;
    }
  }
  if (impl.matrix) {
    const extract::ObservationDelta delta{impl.compiled_observations};
    StatusOr<extract::AppendOutcome> outcome =
        impl.matrix->Append(data, delta, *impl.assignment);
    if (!outcome.ok()) {
      impl.InvalidateCache();
      return outcome.status();
    }
    if (*outcome == extract::AppendOutcome::kPatched) {
      impl.compiled_observations = data.size();
      if (impl.store) {
        // Keep the disk cache coherent with the incremental path: the
        // grown cube gets its own entry (new fingerprint), so a process
        // restarted against the same content starts warm. Best effort,
        // like the auto-save after a compile.
        const Status saved = SaveArtifacts(impl);
        if (!saved.ok()) {
          KBT_LOG(Warning) << "kbt disk cache: could not re-persist patched "
                              "artifacts: "
                           << saved.ToString();
        }
      }
    } else {
      impl.InvalidateCache();
    }
  }
  return Status::OK();
}

Status Pipeline::SetObservationWeights(std::vector<float> weights) {
  Impl& impl = *impl_;
  if (weights.size() != impl.dataset->size()) {
    return Status::InvalidArgument(
        "observation weights hold " + std::to_string(weights.size()) +
        " entries but the dataset has " + std::to_string(impl.dataset->size()) +
        " observations");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0f && weights[i] <= 1.0f)) {  // Rejects NaN too.
      return Status::InvalidArgument(
          "observation weight " + std::to_string(i) + " = " +
          std::to_string(weights[i]) + " is outside [0, 1]");
    }
  }
  impl.observation_weights = std::move(weights);
  return Status::OK();
}

void Pipeline::ClearObservationWeights() {
  impl_->observation_weights.clear();
}

const extract::RawDataset& Pipeline::dataset() const {
  return *impl_->dataset;
}

const Options& Pipeline::options() const { return impl_->options; }

uint64_t Pipeline::dataset_fingerprint() const {
  return CurrentFingerprint(*impl_);
}

Status Pipeline::EnableDiskCache(const std::string& directory,
                                 uint64_t max_bytes) {
  cache::StoreOptions store_options;
  store_options.max_bytes = max_bytes;
  StatusOr<cache::ArtifactStore> store =
      cache::ArtifactStore::Open(directory, store_options);
  if (!store.ok()) return store.status();
  impl_->store = std::move(*store);
  impl_->options_fingerprint =
      cache::CompileOptionsFingerprint(impl_->options);
  return Status::OK();
}

Status Pipeline::SaveCompiledArtifacts() {
  if (!impl_->store) {
    return Status::FailedPrecondition(
        "no disk cache attached: call EnableDiskCache first");
  }
  return SaveArtifacts(*impl_);
}

Status Pipeline::LoadCompiledArtifacts() {
  if (!impl_->store) {
    return Status::FailedPrecondition(
        "no disk cache attached: call EnableDiskCache first");
  }
  return LoadArtifacts(*impl_);
}

std::optional<PipelineCounts> Pipeline::shape() const {
  const Impl& impl = *impl_;
  if (!impl.matrix) return std::nullopt;
  PipelineCounts counts;
  counts.num_observations = impl.compiled_observations;
  counts.num_slots = impl.matrix->num_slots();
  counts.num_items = impl.matrix->num_items();
  counts.num_extractions = impl.matrix->num_extractions();
  counts.num_sources = impl.matrix->num_sources();
  counts.num_extractor_groups = impl.matrix->num_extractor_groups();
  counts.num_websites = impl.dataset->num_websites;
  return counts;
}

std::shared_ptr<const query::Snapshot> Pipeline::PublishSnapshot(
    const TrustReport& report) {
  return PublishSnapshot(report, 0.0);
}

std::shared_ptr<const query::Snapshot> Pipeline::PublishSnapshot(
    const TrustReport& report, double publish_time) {
  query::SnapshotInfo stamp;
  stamp.dataset_fingerprint = CurrentFingerprint(*impl_);
  return impl_->snapshot_registry->Publish(
      query::Snapshot::Build(report, stamp), publish_time);
}

std::shared_ptr<query::SnapshotRegistry> Pipeline::snapshot_registry() const {
  return impl_->snapshot_registry;
}

void Pipeline::InvalidateCache() { impl_->InvalidateCache(); }

void Pipeline::AttachExecutor(dataflow::Executor* executor) {
  impl_->executor = executor;
}

const extract::CompiledMatrix* Pipeline::compiled_matrix() const {
  return impl_->matrix ? &*impl_->matrix : nullptr;
}

const corpus::WebCorpus* Pipeline::corpus() const {
  return impl_->kv ? &impl_->kv->corpus : nullptr;
}

const eval::GoldStandard* Pipeline::gold_standard() const {
  return impl_->gold;
}

// ---------------------------------------------------------------------------
// PipelineBuilder
// ---------------------------------------------------------------------------

enum class PipelineBuilder::SourceKind {
  kNone,
  kOwnedDataset,
  kBorrowedDataset,
  kTsv,
  kKvSim,
  kSynthetic,
};

struct PipelineBuilder::State {
  SourceKind kind = SourceKind::kNone;
  int sources_set = 0;

  extract::RawDataset owned_dataset;
  const extract::RawDataset* borrowed = nullptr;
  std::string tsv_path;
  exp::KvSimConfig kv_config;
  exp::SyntheticConfig synthetic_config;

  Options options;
  const eval::GoldStandard* gold = nullptr;
  dataflow::Executor* executor = nullptr;
  dataflow::StageTimers* timers = nullptr;
  ProgressCallback progress;
};

PipelineBuilder::PipelineBuilder() : state_(std::make_unique<State>()) {}
PipelineBuilder::PipelineBuilder(PipelineBuilder&&) noexcept = default;
PipelineBuilder& PipelineBuilder::operator=(PipelineBuilder&&) noexcept =
    default;
PipelineBuilder::~PipelineBuilder() = default;

PipelineBuilder& PipelineBuilder::FromDataset(extract::RawDataset dataset) {
  state_->kind = SourceKind::kOwnedDataset;
  state_->owned_dataset = std::move(dataset);
  ++state_->sources_set;
  return *this;
}

PipelineBuilder& PipelineBuilder::FromDataset(
    const extract::RawDataset* dataset) {
  state_->kind = SourceKind::kBorrowedDataset;
  state_->borrowed = dataset;
  ++state_->sources_set;
  return *this;
}

PipelineBuilder& PipelineBuilder::FromTsv(std::string path) {
  state_->kind = SourceKind::kTsv;
  state_->tsv_path = std::move(path);
  ++state_->sources_set;
  return *this;
}

PipelineBuilder& PipelineBuilder::FromKvSim(const exp::KvSimConfig& config) {
  state_->kind = SourceKind::kKvSim;
  state_->kv_config = config;
  ++state_->sources_set;
  return *this;
}

PipelineBuilder& PipelineBuilder::FromSynthetic(
    const exp::SyntheticConfig& config) {
  state_->kind = SourceKind::kSynthetic;
  state_->synthetic_config = config;
  ++state_->sources_set;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithOptions(Options options) {
  state_->options = std::move(options);
  return *this;
}

PipelineBuilder& PipelineBuilder::WithModel(Model model) {
  state_->options.model = model;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithGranularity(Granularity granularity) {
  state_->options.granularity = granularity;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithGoldStandard(
    const eval::GoldStandard* gold) {
  state_->gold = gold;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithExecutor(dataflow::Executor* executor) {
  state_->executor = executor;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithStageTimers(
    dataflow::StageTimers* timers) {
  state_->timers = timers;
  return *this;
}

PipelineBuilder& PipelineBuilder::OnProgress(ProgressCallback callback) {
  state_->progress = std::move(callback);
  return *this;
}

StatusOr<Pipeline> PipelineBuilder::Build() {
  State& s = *state_;
  if (s.sources_set != 1) {
    return Status::InvalidArgument(
        "PipelineBuilder requires exactly one dataset source (FromDataset / "
        "FromTsv / FromKvSim / FromSynthetic); got " +
        std::to_string(s.sources_set));
  }
  auto impl = std::make_unique<Pipeline::Impl>();
  impl->options = s.options;
  impl->gold = s.gold;
  impl->executor = s.executor;
  impl->timers = s.timers;
  impl->progress = std::move(s.progress);

  switch (s.kind) {
    case SourceKind::kOwnedDataset:
      impl->owned_dataset = std::move(s.owned_dataset);
      impl->dataset = &impl->owned_dataset;
      impl->dataset_owned = true;
      break;
    case SourceKind::kBorrowedDataset:
      if (s.borrowed == nullptr) {
        return Status::InvalidArgument("FromDataset received a null dataset");
      }
      impl->dataset = s.borrowed;
      break;
    case SourceKind::kTsv: {
      StatusOr<extract::RawDataset> data = io::ReadRawDataset(s.tsv_path);
      if (!data.ok()) return data.status();
      impl->owned_dataset = std::move(*data);
      impl->dataset = &impl->owned_dataset;
      impl->dataset_owned = true;
      break;
    }
    case SourceKind::kKvSim: {
      StatusOr<exp::KvSimData> kv = exp::BuildKvSim(s.kv_config);
      if (!kv.ok()) return kv.status();
      // Heap-pin the world first: the gold standard holds references into it.
      impl->kv = std::make_unique<exp::KvSimData>(std::move(*kv));
      impl->dataset = &impl->kv->data;
      if (impl->gold == nullptr) {
        impl->owned_gold = std::make_unique<eval::GoldStandard>(
            impl->kv->partial_kb, impl->kv->corpus.world());
        impl->gold = impl->owned_gold.get();
      }
      break;
    }
    case SourceKind::kSynthetic: {
      exp::SyntheticData synthetic =
          exp::GenerateSynthetic(s.synthetic_config);
      impl->owned_dataset = std::move(synthetic.data);
      impl->dataset = &impl->owned_dataset;
      impl->dataset_owned = true;
      break;
    }
    case SourceKind::kNone:
      return Status::Internal("unreachable: no dataset source");
  }
  KBT_RETURN_IF_ERROR(io::ValidateRawDataset(*impl->dataset));
  return Pipeline(std::move(impl));
}

}  // namespace kbt::api
