#include "io/dataset_io.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/hash.h"

namespace kbt::io {

namespace {

constexpr char kDatasetHeader[] = "# kbt-raw-dataset v1";
constexpr char kPredictionsHeader[] = "# kbt-predictions v1";
constexpr char kScoresHeader[] = "# kbt-scores v1";

Status ExpectHeader(std::istream& in, const char* expected) {
  std::string line;
  if (!std::getline(in, line) || line != expected) {
    return Status::InvalidArgument(std::string("missing header '") +
                                   expected + "'");
  }
  return Status::OK();
}

Status CheckPredicateCovered(const extract::RawDataset& dataset,
                             kb::DataItemId item, const std::string& what) {
  const kb::PredicateId predicate = kb::DataItemPredicate(item);
  if (predicate >= dataset.num_false_by_predicate.size()) {
    return Status::InvalidArgument(
        what + " references predicate " + std::to_string(predicate) +
        " with no nfalse entry (have " +
        std::to_string(dataset.num_false_by_predicate.size()) + ")");
  }
  if (dataset.num_false_by_predicate[predicate] < 1) {
    return Status::InvalidArgument(
        "predicate " + std::to_string(predicate) +
        " has non-positive domain size n = " +
        std::to_string(dataset.num_false_by_predicate[predicate]));
  }
  return Status::OK();
}

// Mix64/HashChain (common/hash.h) are fixed, platform-stable mixes — not
// std::hash — so fingerprints are identical across platforms and standard
// libraries; a golden value is pinned in tests/io/dataset_io_test.cpp.

}  // namespace

uint64_t DatasetFingerprint(const extract::RawDataset& dataset) {
  uint64_t fp = 0x6b62742d66702d31ull;  // "kbt-fp-1": fingerprint version.
  fp = HashChain(fp, dataset.num_websites);
  fp = HashChain(fp, dataset.num_pages);
  fp = HashChain(fp, dataset.num_extractors);
  fp = HashChain(fp, dataset.num_patterns);
  fp = HashChain(fp, dataset.num_false_by_predicate.size());
  for (const int n : dataset.num_false_by_predicate) {
    fp = HashChain(fp, static_cast<uint64_t>(static_cast<int64_t>(n)));
  }
  // true_values lives in an unordered_map whose iteration order is not
  // specified, so its entries are combined commutatively (sum of per-entry
  // mixes) to keep the fingerprint content-stable.
  uint64_t truth = 0;
  for (const auto& [item, value] : dataset.true_values) {
    truth += Mix64(HashChain(Mix64(item), value));
  }
  fp = HashChain(fp, truth);
  fp = HashChain(fp, dataset.true_values.size());
  // Observations are an ordered sequence (appends extend it), so they are
  // chained in order; the float confidence contributes its exact bits.
  fp = HashChain(fp, dataset.observations.size());
  for (const extract::RawObservation& obs : dataset.observations) {
    uint64_t h = Mix64(obs.item);
    h = HashChain(h, (static_cast<uint64_t>(obs.extractor) << 32) | obs.pattern);
    h = HashChain(h, (static_cast<uint64_t>(obs.website) << 32) | obs.page);
    uint32_t conf_bits = 0;
    static_assert(sizeof(conf_bits) == sizeof(obs.confidence));
    std::memcpy(&conf_bits, &obs.confidence, sizeof(conf_bits));
    h = HashChain(h, (static_cast<uint64_t>(obs.value) << 32) | conf_bits);
    h = HashChain(h, obs.provided ? 1u : 0u);
    fp = HashChain(fp, h);
  }
  return fp;
}

StatusOr<ParsedObservation> ParseObservationFields(const std::string& fields) {
  std::istringstream in(fields);
  ParsedObservation parsed;
  extract::RawObservation& obs = parsed.observation;
  int provided = 0;
  in >> obs.extractor >> obs.pattern >> obs.website >> obs.page >> obs.item >>
      obs.value >> obs.confidence >> provided;
  if (in.fail()) {
    return Status::InvalidArgument("malformed obs record '" + fields + "'");
  }
  obs.provided = provided != 0;
  // Optional ninth column: the ingestion timestamp. Anything else trailing
  // (a second extra field, non-numeric text) is malformed, not ignorable —
  // silently dropping fields would mask format drift.
  std::string rest;
  if (in >> rest) {
    char* end = nullptr;
    parsed.timestamp = std::strtod(rest.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == rest.c_str()) {
      return Status::InvalidArgument("malformed timestamp '" + rest +
                                     "' in obs record");
    }
    if (!(parsed.timestamp >= 0.0)) {  // Also rejects NaN.
      return Status::InvalidArgument("negative timestamp '" + rest +
                                     "' in obs record (timestamps are "
                                     "seconds since a caller-defined epoch "
                                     "and must be >= 0)");
    }
    parsed.has_timestamp = true;
    std::string extra;
    if (in >> extra) {
      return Status::InvalidArgument("trailing field '" + extra +
                                     "' after timestamp in obs record");
    }
  }
  return parsed;
}

Status ValidateAppendedObservations(
    const extract::RawDataset& dataset,
    const std::vector<extract::RawObservation>& observations) {
  for (size_t i = 0; i < observations.size(); ++i) {
    const extract::RawObservation& obs = observations[i];
    if (obs.extractor == kb::kInvalidId || obs.pattern == kb::kInvalidId ||
        obs.website == kb::kInvalidId || obs.page == kb::kInvalidId ||
        obs.value == kb::kInvalidId) {
      return Status::InvalidArgument("appended observation " +
                                     std::to_string(i) +
                                     " carries an invalid id");
    }
    const kb::PredicateId predicate = kb::DataItemPredicate(obs.item);
    if (predicate < dataset.num_false_by_predicate.size() &&
        dataset.num_false_by_predicate[predicate] < 1) {
      return Status::InvalidArgument(
          "appended observation " + std::to_string(i) +
          " references predicate " + std::to_string(predicate) +
          " with non-positive domain size n = " +
          std::to_string(dataset.num_false_by_predicate[predicate]));
    }
  }
  return Status::OK();
}

Status ValidateRawDataset(const extract::RawDataset& dataset) {
  if (!dataset.observation_timestamps.empty()) {
    if (dataset.observation_timestamps.size() !=
        dataset.observations.size()) {
      return Status::InvalidArgument(
          "observation_timestamps has " +
          std::to_string(dataset.observation_timestamps.size()) +
          " entries for " + std::to_string(dataset.observations.size()) +
          " observations (must be empty or exactly parallel)");
    }
    for (size_t i = 0; i < dataset.observation_timestamps.size(); ++i) {
      if (!(dataset.observation_timestamps[i] >= 0.0)) {  // Rejects NaN too.
        return Status::InvalidArgument(
            "observation " + std::to_string(i) + " has negative timestamp " +
            std::to_string(dataset.observation_timestamps[i]));
      }
    }
  }
  for (size_t i = 0; i < dataset.observations.size(); ++i) {
    const extract::RawObservation& obs = dataset.observations[i];
    const std::string what = "observation " + std::to_string(i);
    if (obs.extractor >= dataset.num_extractors) {
      return Status::InvalidArgument(
          what + " has extractor id " + std::to_string(obs.extractor) +
          " >= meta count " + std::to_string(dataset.num_extractors));
    }
    if (obs.pattern >= dataset.num_patterns) {
      return Status::InvalidArgument(
          what + " has pattern id " + std::to_string(obs.pattern) +
          " >= meta count " + std::to_string(dataset.num_patterns));
    }
    if (obs.website >= dataset.num_websites) {
      return Status::InvalidArgument(
          what + " has website id " + std::to_string(obs.website) +
          " >= meta count " + std::to_string(dataset.num_websites));
    }
    if (obs.page >= dataset.num_pages) {
      return Status::InvalidArgument(
          what + " has page id " + std::to_string(obs.page) +
          " >= meta count " + std::to_string(dataset.num_pages));
    }
    if (obs.value == kb::kInvalidId) {
      return Status::InvalidArgument(what + " has an invalid value id");
    }
    KBT_RETURN_IF_ERROR(CheckPredicateCovered(dataset, obs.item, what));
  }
  for (const auto& [item, value] : dataset.true_values) {
    if (value == kb::kInvalidId) {
      return Status::InvalidArgument(
          "true value for item " + std::to_string(item) +
          " has an invalid value id");
    }
    KBT_RETURN_IF_ERROR(CheckPredicateCovered(
        dataset, item, "true value for item " + std::to_string(item)));
  }
  return Status::OK();
}

Status WriteRawDataset(const std::string& path,
                       const extract::RawDataset& dataset) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << kDatasetHeader << "\n";
  out << "meta " << dataset.num_websites << " " << dataset.num_pages << " "
      << dataset.num_extractors << " " << dataset.num_patterns << "\n";
  for (size_t p = 0; p < dataset.num_false_by_predicate.size(); ++p) {
    out << "nfalse " << p << " " << dataset.num_false_by_predicate[p] << "\n";
  }
  for (const auto& [item, value] : dataset.true_values) {
    out << "truth " << item << " " << value << "\n";
  }
  char buf[64];
  const bool timestamped =
      dataset.observation_timestamps.size() == dataset.observations.size() &&
      !dataset.observations.empty();
  for (size_t i = 0; i < dataset.observations.size(); ++i) {
    const auto& obs = dataset.observations[i];
    // %.9g round-trips float exactly.
    std::snprintf(buf, sizeof(buf), "%.9g", obs.confidence);
    out << "obs " << obs.extractor << " " << obs.pattern << " " << obs.website
        << " " << obs.page << " " << obs.item << " " << obs.value << " "
        << buf << " " << (obs.provided ? 1 : 0);
    if (timestamped) {
      // %.17g round-trips double exactly.
      std::snprintf(buf, sizeof(buf), "%.17g",
                    dataset.observation_timestamps[i]);
      out << " " << buf;
    }
    out << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

StatusOr<extract::RawDataset> ReadRawDataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  KBT_RETURN_IF_ERROR(ExpectHeader(in, kDatasetHeader));

  extract::RawDataset dataset;
  std::string line;
  size_t line_no = 1;
  // Tracks which nfalse entries were explicitly declared (resize gaps get
  // the default and may still be declared later, once).
  std::vector<uint8_t> nfalse_declared;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "meta") {
      fields >> dataset.num_websites >> dataset.num_pages >>
          dataset.num_extractors >> dataset.num_patterns;
    } else if (tag == "nfalse") {
      size_t pred = 0;
      int n = 0;
      fields >> pred >> n;
      if (!fields.fail() && pred < nfalse_declared.size() &&
          nfalse_declared[pred]) {
        // Silently keeping the last duplicate would make the domain size —
        // and with it every inference vote — depend on line order.
        return Status::InvalidArgument(
            "duplicate nfalse entry for predicate " + std::to_string(pred) +
            " at line " + std::to_string(line_no));
      }
      if (dataset.num_false_by_predicate.size() <= pred) {
        dataset.num_false_by_predicate.resize(pred + 1, 10);
        nfalse_declared.resize(pred + 1, 0);
      }
      dataset.num_false_by_predicate[pred] = n;
      nfalse_declared[pred] = 1;
    } else if (tag == "truth") {
      kb::DataItemId item = 0;
      kb::ValueId value = 0;
      fields >> item >> value;
      dataset.true_values[item] = value;
    } else if (tag == "obs") {
      std::string rest;
      std::getline(fields, rest);
      StatusOr<ParsedObservation> parsed = ParseObservationFields(rest);
      if (!parsed.ok()) {
        return Status::InvalidArgument(parsed.status().message() +
                                       " at line " + std::to_string(line_no));
      }
      // All-or-none per file: the first obs line fixes whether this file is
      // timestamped; a mix would leave some observations with a fabricated
      // time, which decay would then treat as real evidence age.
      const bool first_obs = dataset.observations.empty();
      const bool file_timestamped = !dataset.observation_timestamps.empty();
      if (!first_obs && parsed->has_timestamp != file_timestamped) {
        return Status::InvalidArgument(
            std::string("obs line ") + std::to_string(line_no) +
            (parsed->has_timestamp ? " has" : " lacks") +
            " a timestamp but earlier obs lines " +
            (file_timestamped ? "have" : "lack") +
            " one (timestamps are all-or-none per file)");
      }
      dataset.observations.push_back(parsed->observation);
      if (parsed->has_timestamp) {
        dataset.observation_timestamps.push_back(parsed->timestamp);
      }
    } else {
      return Status::InvalidArgument("unknown tag '" + tag + "' at line " +
                                     std::to_string(line_no));
    }
    if (fields.fail()) {
      return Status::InvalidArgument("malformed line " +
                                     std::to_string(line_no));
    }
  }
  KBT_RETURN_IF_ERROR(ValidateRawDataset(dataset));
  return dataset;
}

Status WriteTriplePredictions(
    const std::string& path,
    const std::vector<eval::TriplePrediction>& predictions) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << kPredictionsHeader << "\n";
  char buf[64];
  for (const auto& p : predictions) {
    std::snprintf(buf, sizeof(buf), "%.17g", p.probability);
    out << p.item << " " << p.value << " " << buf << " "
        << (p.covered ? 1 : 0) << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

StatusOr<std::vector<eval::TriplePrediction>> ReadTriplePredictions(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  KBT_RETURN_IF_ERROR(ExpectHeader(in, kPredictionsHeader));
  std::vector<eval::TriplePrediction> out;
  std::string line;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    eval::TriplePrediction p;
    int covered = 0;
    fields >> p.item >> p.value >> p.probability >> covered;
    if (fields.fail()) {
      return Status::InvalidArgument("malformed line " +
                                     std::to_string(line_no));
    }
    p.covered = covered != 0;
    out.push_back(p);
  }
  return out;
}

Status WriteKbtScores(const std::string& path,
                      const std::vector<core::KbtScore>& scores) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << kScoresHeader << "\n";
  char kbt_buf[64];
  char ev_buf[64];
  for (size_t w = 0; w < scores.size(); ++w) {
    std::snprintf(kbt_buf, sizeof(kbt_buf), "%.17g", scores[w].kbt);
    std::snprintf(ev_buf, sizeof(ev_buf), "%.17g", scores[w].evidence);
    out << w << " " << kbt_buf << " " << ev_buf << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

StatusOr<std::vector<core::KbtScore>> ReadKbtScores(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  KBT_RETURN_IF_ERROR(ExpectHeader(in, kScoresHeader));
  std::vector<core::KbtScore> out;
  std::string line;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    size_t site = 0;
    core::KbtScore score;
    fields >> site >> score.kbt >> score.evidence;
    if (fields.fail()) {
      return Status::InvalidArgument("malformed line " +
                                     std::to_string(line_no));
    }
    if (out.size() <= site) out.resize(site + 1);
    out[site] = score;
  }
  return out;
}

}  // namespace kbt::io
