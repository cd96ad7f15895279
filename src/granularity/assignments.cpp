#include "granularity/assignments.h"

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>

namespace kbt::granularity {

namespace {

using extract::ExtractorScope;
using extract::GroupAssignment;
using extract::kAnyScope;
using extract::RawDataset;
using extract::RawObservation;
using extract::SourceGroupInfo;

/// Dense-id interning over arbitrary ordered tuples.
template <typename Key>
class KeyInterner {
 public:
  uint32_t Intern(const Key& key) {
    const auto [it, inserted] =
        index_.emplace(key, static_cast<uint32_t>(index_.size()));
    (void)inserted;
    return it->second;
  }
  size_t size() const { return index_.size(); }
  const std::map<Key, uint32_t>& index() const { return index_; }

 private:
  std::map<Key, uint32_t> index_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AssignmentExtender — the single implementation behind the stateless
// builders. Ids are handed out in first-visit order over the observation
// stream and group metadata is appended at first visit, so processing a
// dataset in one pass or in arbitrary prefix/delta splits produces the
// identical GroupAssignment.
// ---------------------------------------------------------------------------

struct AssignmentExtender::State {
  // site,pred,page / e,pattern,pred,site (finest granularity).
  KeyInterner<std::tuple<uint32_t, uint32_t, uint32_t>> finest_sources;
  KeyInterner<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>>
      finest_extractors;
  // Single-field keys (page/website sources, plain extractors).
  KeyInterner<uint32_t> simple_sources;
  KeyInterner<uint32_t> simple_extractors;
  // e,site,pred,pattern (the provenance grouping).
  KeyInterner<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>> provenances;
};

AssignmentExtender::AssignmentExtender(StatelessGranularity kind)
    : kind_(kind), state_(std::make_unique<State>()) {}
AssignmentExtender::~AssignmentExtender() = default;
AssignmentExtender::AssignmentExtender(AssignmentExtender&&) noexcept = default;
AssignmentExtender& AssignmentExtender::operator=(
    AssignmentExtender&&) noexcept = default;

Status AssignmentExtender::Extend(const RawDataset& data,
                                  GroupAssignment* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("Extend requires a non-null assignment");
  }
  const size_t n = data.size();
  if (n < consumed_) {
    return Status::InvalidArgument(
        "dataset shrank beneath the extender's progress (consumed " +
        std::to_string(consumed_) + ", dataset has " + std::to_string(n) +
        ")");
  }
  if (out->observation_source.size() != consumed_ ||
      out->observation_extractor.size() != consumed_) {
    return Status::InvalidArgument(
        "assignment does not match this extender's progress: expected " +
        std::to_string(consumed_) + " assigned observations, found " +
        std::to_string(out->observation_source.size()));
  }

  out->observation_source.reserve(n);
  out->observation_extractor.reserve(n);
  if (kind_ == StatelessGranularity::kProvenance &&
      out->extractor_scopes.empty()) {
    // The provenance grouping has no extraction layer: one dummy group.
    out->extractor_scopes.push_back(ExtractorScope{});
  }

  for (size_t i = consumed_; i < n; ++i) {
    const RawObservation& o = data.observations[i];
    const uint32_t pred = kb::DataItemPredicate(o.item);
    uint32_t src = 0;
    uint32_t ext = 0;
    switch (kind_) {
      case StatelessGranularity::kFinest: {
        src = state_->finest_sources.Intern({o.website, pred, o.page});
        if (src == out->source_infos.size()) {
          out->source_infos.push_back(SourceGroupInfo{o.website});
        }
        ext = state_->finest_extractors.Intern(
            {o.extractor, o.pattern, pred, o.website});
        if (ext == out->extractor_scopes.size()) {
          ExtractorScope scope;
          scope.predicate = pred;
          scope.website = o.website;
          out->extractor_scopes.push_back(scope);
        }
        break;
      }
      case StatelessGranularity::kPageSource:
      case StatelessGranularity::kWebsiteSource: {
        const uint32_t key = kind_ == StatelessGranularity::kPageSource
                                 ? o.page
                                 : o.website;
        src = state_->simple_sources.Intern(key);
        if (src == out->source_infos.size()) {
          out->source_infos.push_back(SourceGroupInfo{o.website});
        }
        ext = state_->simple_extractors.Intern(o.extractor);
        if (ext == out->extractor_scopes.size()) {
          out->extractor_scopes.push_back(ExtractorScope{});
        }
        break;
      }
      case StatelessGranularity::kProvenance: {
        src = state_->provenances.Intern(
            {o.extractor, o.website, pred, o.pattern});
        if (src == out->source_infos.size()) {
          out->source_infos.push_back(SourceGroupInfo{o.website});
        }
        ext = 0;
        break;
      }
    }
    out->observation_source.push_back(src);
    out->observation_extractor.push_back(ext);
  }

  consumed_ = n;
  out->num_source_groups = static_cast<uint32_t>(out->source_infos.size());
  out->num_extractor_groups =
      static_cast<uint32_t>(out->extractor_scopes.size());
  return Status::OK();
}

namespace {

GroupAssignment BuildStateless(StatelessGranularity kind,
                               const RawDataset& data) {
  GroupAssignment out;
  AssignmentExtender extender(kind);
  // Cannot fail on a fresh assignment.
  (void)extender.Extend(data, &out);
  return out;
}

}  // namespace

GroupAssignment FinestAssignment(const RawDataset& data) {
  return BuildStateless(StatelessGranularity::kFinest, data);
}

GroupAssignment PageSourcePlainExtractor(const RawDataset& data) {
  return BuildStateless(StatelessGranularity::kPageSource, data);
}

GroupAssignment WebsiteSourceAssignment(const RawDataset& data) {
  return BuildStateless(StatelessGranularity::kWebsiteSource, data);
}

GroupAssignment ProvenanceAssignment(const RawDataset& data) {
  return BuildStateless(StatelessGranularity::kProvenance, data);
}

StatusOr<GroupAssignment> SplitMergeAssignment(
    const RawDataset& data, const SplitMergeOptions& source_options,
    const SplitMergeOptions& extractor_options,
    dataflow::StageTimers* timers) {
  GroupAssignment out;
  out.observation_source.resize(data.size());
  out.observation_extractor.resize(data.size());

  // ---------- Source side ----------
  {
    dataflow::StageTimers::Scope scope(timers, "Prep.Source");
    // Atoms are distinct (leaf, item, value) slots; observations reference
    // their atom so they can follow it to its final group.
    using LeafKey = std::tuple<uint32_t, uint32_t, uint32_t>;  // site,pred,page
    using AtomKey = std::tuple<uint32_t, uint64_t, uint32_t>;  // leaf,item,val
    KeyInterner<LeafKey> leaf_ids;
    std::map<AtomKey, uint64_t> atom_ids;
    std::vector<uint64_t> observation_atom(data.size());
    std::vector<std::vector<uint64_t>> leaf_atoms;
    std::vector<LeafKey> leaf_keys;

    for (size_t i = 0; i < data.size(); ++i) {
      const RawObservation& o = data.observations[i];
      const uint32_t pred = kb::DataItemPredicate(o.item);
      const LeafKey lkey{o.website, pred, o.page};
      const uint32_t leaf = leaf_ids.Intern(lkey);
      if (leaf >= leaf_atoms.size()) {
        leaf_atoms.emplace_back();
        leaf_keys.push_back(lkey);
      }
      const AtomKey akey{leaf, o.item, o.value};
      const auto [it, inserted] =
          atom_ids.emplace(akey, static_cast<uint64_t>(atom_ids.size()));
      if (inserted) leaf_atoms[leaf].push_back(it->second);
      observation_atom[i] = it->second;
    }

    std::vector<LeafNode> leaves(leaf_atoms.size());
    for (size_t l = 0; l < leaf_atoms.size(); ++l) {
      leaves[l].path = {std::get<0>(leaf_keys[l]), std::get<1>(leaf_keys[l]),
                        std::get<2>(leaf_keys[l])};
      leaves[l].atoms = std::move(leaf_atoms[l]);
    }
    StatusOr<SplitMergeResult> result = SplitAndMerge(leaves, source_options);
    if (!result.ok()) return result.status();

    out.num_source_groups = result->num_groups;
    out.source_infos.resize(result->num_groups);
    for (uint32_t g = 0; g < result->num_groups; ++g) {
      out.source_infos[g].website =
          static_cast<uint32_t>(result->groups[g].path_prefix[0]);
    }
    for (size_t i = 0; i < data.size(); ++i) {
      out.observation_source[i] = result->atom_group.at(observation_atom[i]);
    }
  }

  // ---------- Extractor side ----------
  {
    dataflow::StageTimers::Scope scope(timers, "Prep.Extractor");
    using LeafKey = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>;
    std::map<LeafKey, std::vector<uint64_t>> leaf_atoms;
    for (size_t i = 0; i < data.size(); ++i) {
      const RawObservation& o = data.observations[i];
      const uint32_t pred = kb::DataItemPredicate(o.item);
      leaf_atoms[LeafKey{o.extractor, o.pattern, pred, o.website}].push_back(
          static_cast<uint64_t>(i));
    }
    std::vector<LeafNode> leaves;
    leaves.reserve(leaf_atoms.size());
    for (auto& [key, atoms] : leaf_atoms) {
      LeafNode leaf;
      leaf.path = {std::get<0>(key), std::get<1>(key), std::get<2>(key),
                   std::get<3>(key)};
      leaf.atoms = std::move(atoms);
      leaves.push_back(std::move(leaf));
    }
    StatusOr<SplitMergeResult> result =
        SplitAndMerge(leaves, extractor_options);
    if (!result.ok()) return result.status();

    out.num_extractor_groups = result->num_groups;
    out.extractor_scopes.resize(result->num_groups);
    for (uint32_t g = 0; g < result->num_groups; ++g) {
      const GroupMeta& meta = result->groups[g];
      ExtractorScope& scope_out = out.extractor_scopes[g];
      // path = {extractor, pattern, predicate, website}: level 3 scopes to
      // (predicate, website); level 2 to (predicate, any); below that the
      // group covers everything.
      if (meta.level >= 2) {
        scope_out.predicate = static_cast<uint32_t>(meta.path_prefix[2]);
      }
      if (meta.level >= 3) {
        scope_out.website = static_cast<uint32_t>(meta.path_prefix[3]);
      }
      scope_out.absence_weight = 1.0 / static_cast<double>(meta.num_buckets);
    }
    for (size_t i = 0; i < data.size(); ++i) {
      out.observation_extractor[i] =
          result->atom_group.at(static_cast<uint64_t>(i));
    }
  }

  return out;
}

}  // namespace kbt::granularity
