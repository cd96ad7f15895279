#ifndef KBT_IO_DATASET_IO_H_
#define KBT_IO_DATASET_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/gold_standard.h"
#include "extract/raw_dataset.h"
#include "core/kbt_score.h"

namespace kbt::io {

/// Plain-text (TSV) persistence for the library's main artifacts, so that
/// extraction cubes can be produced once and re-analyzed, and results can
/// be consumed by external tooling. Formats are versioned, deterministic
/// and round-trip exactly (confidences stored with full float precision).

/// Writes a RawDataset:
///   # kbt-raw-dataset v1
///   meta <num_websites> <num_pages> <num_extractors> <num_patterns>
///   nfalse <predicate> <n>              (one per predicate)
///   truth <item> <value>                (one per known true value)
///   obs <extractor> <pattern> <website> <page> <item> <value> <conf> <provided> [<timestamp>]
/// The trailing timestamp column is emitted only when the dataset carries
/// observation_timestamps (see extract::RawDataset), so files written from
/// untimestamped cubes are byte-identical to the pre-timestamp format.
Status WriteRawDataset(const std::string& path,
                       const extract::RawDataset& dataset);

/// Reads a file written by WriteRawDataset. The result is validated with
/// ValidateRawDataset, so malformed TSV surfaces as an InvalidArgument
/// Status here instead of out-of-range indices downstream.
///
/// Timestamps: `obs` lines may carry one optional trailing timestamp
/// column. All-or-none per file — mixing timestamped and untimestamped obs
/// lines is rejected, as are malformed or negative timestamps. Files
/// without the column parse exactly as before (observation_timestamps
/// stays empty).
StatusOr<extract::RawDataset> ReadRawDataset(const std::string& path);

/// One parsed `obs` line: the observation plus the optional trailing
/// timestamp (engaged only when the line carried the ninth column).
struct ParsedObservation {
  extract::RawObservation observation;
  bool has_timestamp = false;
  double timestamp = 0.0;
};

/// Parses the fields of one `obs` record — everything after the "obs" tag:
/// "<extractor> <pattern> <website> <page> <item> <value> <conf> <provided>
/// [<timestamp>]". Shared by ReadRawDataset and the streaming TSV tail
/// feed (kbt::stream::TsvTailFeed) so the two paths cannot drift.
/// InvalidArgument on malformed fields, trailing garbage or a negative
/// timestamp.
StatusOr<ParsedObservation> ParseObservationFields(const std::string& fields);

/// Structural validation of an observation cube:
///  * every observation's extractor/pattern/website/page id falls within
///    the dataset's meta counts, and its value id is valid;
///  * num_false_by_predicate covers (with n >= 1) every predicate
///    referenced by an observation or a true-value entry;
///  * observation_timestamps is either empty or exactly parallel to the
///    observations, with no negative entries.
/// Everything downstream (granularity assignment, matrix compilation)
/// indexes by these ids, so this is the precondition for the whole stack.
Status ValidateRawDataset(const extract::RawDataset& dataset);

/// Validation of a batch about to be appended to `dataset`: no id is
/// kb::kInvalidId (ids past the meta counts are fine; appending grows
/// them), and no observation lands on a predicate whose n is < 1.
/// InvalidArgument names the first offending observation.
Status ValidateAppendedObservations(
    const extract::RawDataset& dataset,
    const std::vector<extract::RawObservation>& observations);

/// Stable 64-bit content fingerprint of a RawDataset: covers the meta
/// counts, per-predicate domain sizes, true values and the observation
/// sequence (ids, confidence bit patterns, provided flags). Equal content
/// always yields an equal fingerprint — independent of how the dataset was
/// produced (generated, loaded, appended to), of the platform, and of the
/// true_values hash-map iteration order; any content change yields a
/// different fingerprint except for 64-bit hash collisions, so this is a
/// *probabilistic* cache key (collisions are astronomically unlikely for
/// accidental changes, not impossible). Use it to key persisted compiled
/// artifacts (granularity assignments, compiled matrices) across
/// sessions, pairing it with cheap shape checks (observation/meta counts)
/// where a stale artifact would corrupt results rather than just waste a
/// recompile. observation_timestamps is deliberately EXCLUDED: the
/// fingerprint keys compiled artifacts (assignments, matrices), which are
/// pure functions of the observation content — re-timestamping a cube must
/// not invalidate its compiled form (and the pinned golden value predates
/// timestamps).
uint64_t DatasetFingerprint(const extract::RawDataset& dataset);

/// Writes triple predictions:
///   # kbt-predictions v1
///   <item> <value> <probability> <covered>
Status WriteTriplePredictions(
    const std::string& path,
    const std::vector<eval::TriplePrediction>& predictions);

StatusOr<std::vector<eval::TriplePrediction>> ReadTriplePredictions(
    const std::string& path);

/// Writes per-website KBT scores:
///   # kbt-scores v1
///   <website> <kbt> <evidence>
Status WriteKbtScores(const std::string& path,
                      const std::vector<core::KbtScore>& scores);

StatusOr<std::vector<core::KbtScore>> ReadKbtScores(const std::string& path);

}  // namespace kbt::io

#endif  // KBT_IO_DATASET_IO_H_
