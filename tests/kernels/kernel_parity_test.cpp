// Kernel parity. The staging and tally primitives must match an independent
// transcription of the kernels.h contract (tests/support/kernel_contract.h)
// BIT FOR BIT on adversarial sizes (0 / 1 / odd / lane-count +- 1); the
// vectorized kind must match the scalar_reference oracle bit for bit on
// whole model runs with every estimator variant and end to end through
// Pipeline::Run on the plain, sharded (K = 2) and stream-tick backends. Any
// mismatch here means the float program drifted from the contract or the
// two kinds no longer execute the same one, and the oracle policy
// (docs/ARCHITECTURE.md, "EM kernels") is broken.
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/multilayer_model.h"
#include "exp/motivating_example.h"
#include "exp/synthetic.h"
#include "extract/observation_matrix.h"
#include "fusion/single_layer.h"
#include "granularity/assignments.h"
#include "kbt/kbt.h"
#include "kbt/shard.h"
#include "kbt/stream.h"
#include "support/corpus_fixture.h"
#include "support/kernel_contract.h"

namespace kbt::kernels {
namespace {

using kbt::testing::ContractEdgeTerm;
using kbt::testing::ContractTallyEdges;
using kbt::testing::ContractTallyIndexed;
using kbt::testing::ContractTallyMap;
using kbt::testing::ContractVoteMasked;
using kbt::testing::ContractVoteMaskedSub;

// Slot/edge counts crossing every lane boundary: empty, below the lane
// count, exactly the lane count, one over, around two and four lane rows,
// around 64 entries, and a bulk run.
const size_t kSweepSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 1000};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

#define EXPECT_BITS_EQ(a, b) \
  EXPECT_EQ(Bits(a), Bits(b)) << #a " = " << (a) << " vs " #b " = " << (b)

void ExpectVectorBitsEq(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// Deterministic input streams for the raw-kernel sweeps. The value mix is
/// deliberately nasty: magnitudes spanning ~30 orders, exact zeros, values
/// at the probability clamp bounds, and negatives — anything that would
/// expose a reassociated or contracted float program.
struct KernelInputs {
  std::vector<uint32_t> idx;     // gather indices into the base arrays
  std::vector<double> w;         // weights (claim / correctness streams)
  std::vector<double> p;         // probabilities in [0, 1]
  std::vector<double> table;     // per-source vote memo (signed, large range)
  std::vector<double> sub;       // per-slot log-popularity memo
  std::vector<double> mask;      // 0/1 support stream
  std::vector<float> conf;       // extraction confidences
  std::vector<uint32_t> group;   // per-edge extractor group
  std::vector<double> net;       // per-group net vote
};

KernelInputs MakeInputs(size_t n, uint64_t seed, bool all_false) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const size_t base = n + 7;  // gather targets beyond the sweep range
  KernelInputs in;
  in.idx.resize(n);
  in.w.resize(base);
  in.p.resize(base);
  in.table.resize(base);
  in.sub.resize(base);
  in.mask.resize(n);
  in.conf.resize(base);
  in.group.resize(n);
  in.net.resize(base);
  for (size_t i = 0; i < n; ++i) {
    in.idx[i] = static_cast<uint32_t>(rng() % base);
    in.group[i] = static_cast<uint32_t>(rng() % base);
    in.mask[i] = all_false ? 0.0 : (rng() % 3 ? 1.0 : 0.0);
  }
  for (size_t i = 0; i < base; ++i) {
    const double u = uni(rng);
    // Probabilities hugging the clamp bounds (1e-4 / 1 - 1e-4) and 0.5.
    in.p[i] = (i % 5 == 0) ? 1e-4 : (i % 5 == 1) ? 1.0 - 1e-4 : u;
    // Weights across ~30 orders of magnitude plus exact zeros.
    in.w[i] = (i % 7 == 0) ? 0.0 : uni(rng) * std::pow(10.0, double(i % 31) - 15.0);
    // Signed votes as large as SourceVote near the clamps produces (~27.6).
    in.table[i] = (uni(rng) - 0.5) * 55.2;
    in.sub[i] = -uni(rng) * 20.0;
    in.conf[i] = (i % 11 == 0) ? 0.0f : static_cast<float>(uni(rng));
    in.net[i] = (uni(rng) - 0.5) * 10.0;
  }
  return in;
}

TEST(KernelParityTest, TalliesMatchBitForBitAcrossSizes) {
  for (size_t n : kSweepSizes) {
    SCOPED_TRACE(n);
    const KernelInputs in = MakeInputs(n, /*seed=*/0x9e3779b97f4a7c15 + n,
                                       /*all_false=*/false);
    {
      const Tally got =
          TallyIndexed(in.idx.data(), n, in.w.data(), in.p.data());
      const Tally want =
          ContractTallyIndexed(in.idx.data(), n, in.w.data(), in.p.data());
      EXPECT_BITS_EQ(got.num, want.num);
      EXPECT_BITS_EQ(got.den, want.den);
    }
    {
      // The correctness stream for the MAP tally: values on both sides of
      // the 0.5 threshold, including exactly 0.5 (not taken: > 0.5).
      std::vector<double> c(in.w.size());
      for (size_t i = 0; i < c.size(); ++i) {
        c[i] = (i % 4 == 0) ? 0.5 : in.p[i];
      }
      const Tally got = TallyMap(in.idx.data(), n, c.data(), in.p.data());
      const Tally want =
          ContractTallyMap(in.idx.data(), n, c.data(), in.p.data());
      EXPECT_BITS_EQ(got.num, want.num);
      EXPECT_BITS_EQ(got.den, want.den);
    }
    {
      // edges index into conf; edge_slot maps each edge to a slot in p's
      // range.
      std::vector<uint32_t> edge_slot(in.conf.size());
      std::mt19937_64 rng(n * 1315423911u + 7);
      for (size_t i = 0; i < edge_slot.size(); ++i) {
        edge_slot[i] = static_cast<uint32_t>(rng() % in.p.size());
      }
      const Tally got = TallyEdges(in.idx.data(), n, in.conf.data(),
                                   edge_slot.data(), in.p.data());
      const Tally want = ContractTallyEdges(in.idx.data(), n, in.conf.data(),
                                            edge_slot.data(), in.p.data());
      EXPECT_BITS_EQ(got.num, want.num);
      EXPECT_BITS_EQ(got.den, want.den);
    }
  }
}

TEST(KernelParityTest, StagingSweepsMatchBitForBitAcrossSizes) {
  for (size_t n : kSweepSizes) {
    for (bool all_false : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n
                                        << " all_false=" << all_false);
      const KernelInputs in =
          MakeInputs(n, /*seed=*/0xc2b2ae3d27d4eb4f + n, all_false);
      std::vector<double> got(n, -1.0);
      std::vector<double> want(n, -2.0);

      // The input's 0/1 support mask, then an all-ones mask: the unmasked
      // vote, bit-exact because 1.0 * w == w.
      const std::vector<double> ones(n, 1.0);
      for (const std::vector<double>* mask : {&in.mask, &ones}) {
        StageVotesMasked(mask->data(), in.w.data(), in.idx.data(),
                         in.table.data(), 0, n, got.data());
        for (size_t i = 0; i < n; ++i) {
          want[i] = ContractVoteMasked(mask->data(), in.w.data(),
                                       in.idx.data(), in.table.data(), i);
        }
        ExpectVectorBitsEq(got, want, "StageVotesMasked");

        StageVotesMaskedSub(mask->data(), in.w.data(), in.idx.data(),
                            in.table.data(), in.sub.data(), 0, n, got.data());
        for (size_t i = 0; i < n; ++i) {
          want[i] = ContractVoteMaskedSub(mask->data(), in.w.data(),
                                          in.idx.data(), in.table.data(),
                                          in.sub.data(), i);
        }
        ExpectVectorBitsEq(got, want, "StageVotesMaskedSub");
      }

      StageEdgeTerms(in.conf.data(), in.group.data(), in.net.data(), 0, n,
                     got.data());
      for (size_t i = 0; i < n; ++i) {
        want[i] = ContractEdgeTerm(in.conf.data(), in.group.data(),
                                   in.net.data(), i);
      }
      ExpectVectorBitsEq(got, want, "StageEdgeTerms");
    }
  }
}

TEST(KernelParityTest, StagingHonorsNonZeroBegin) {
  // The blocked model loops always stage [begin, end) sub-ranges with
  // out[0] anchored at begin; an off-by-one here corrupts votes silently.
  const size_t n = 97;
  const KernelInputs in = MakeInputs(n, /*seed=*/71, /*all_false=*/false);
  const std::vector<double> ones(n, 1.0);
  for (const std::vector<double>* mask : {&in.mask, &ones}) {
    std::vector<double> whole(n);
    std::vector<double> whole_sub(n);
    for (size_t i = 0; i < n; ++i) {
      whole[i] = ContractVoteMasked(mask->data(), in.w.data(), in.idx.data(),
                                    in.table.data(), i);
      whole_sub[i] =
          ContractVoteMaskedSub(mask->data(), in.w.data(), in.idx.data(),
                                in.table.data(), in.sub.data(), i);
    }
    for (size_t begin : {size_t{0}, size_t{1}, size_t{3}, size_t{64}, n}) {
      for (size_t end : {begin, std::min(begin + 5, n), n}) {
        std::vector<double> part(end - begin, -7.0);
        std::vector<double> part_sub(end - begin, -7.0);
        StageVotesMasked(mask->data(), in.w.data(), in.idx.data(),
                         in.table.data(), begin, end, part.data());
        StageVotesMaskedSub(mask->data(), in.w.data(), in.idx.data(),
                            in.table.data(), in.sub.data(), begin, end,
                            part_sub.data());
        for (size_t i = 0; i < part.size(); ++i) {
          ASSERT_EQ(Bits(part[i]), Bits(whole[begin + i]))
              << "begin=" << begin << " end=" << end << " i=" << i;
          ASSERT_EQ(Bits(part_sub[i]), Bits(whole_sub[begin + i]))
              << "sub begin=" << begin << " end=" << end << " i=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ItemValuePass on adversarial item shapes
// ---------------------------------------------------------------------------

/// Runs ItemValuePassIndexed over one item, building its value index the
/// way ValueLayer does (BuildValueIndex once, into a separate scratch).
double IndexedPass(uint32_t num_slots, const double* votes,
                   const uint8_t* mask, const uint32_t* values, int num_false,
                   double* prob, uint8_t* cov, double* unobserved,
                   EmScratch* scratch) {
  std::vector<uint32_t> slot_vi(num_slots, 999);
  EmScratch vi_scratch;
  const uint32_t num_values =
      BuildValueIndex(0, num_slots, values, slot_vi.data(), &vi_scratch);
  return ItemValuePassIndexed(0, num_slots, votes, 0, mask, slot_vi.data(),
                              num_values, num_false, prob, cov, unobserved,
                              scratch);
}

TEST(KernelParityTest, ItemValuePassSingleValueAndAllFalseItems) {
  // Items whose slots all claim ONE value, and items whose slots are all
  // unsupported (covered_mask zero), at votes near the clamp bounds.
  const std::vector<double> votes = {27.6, 27.6, -27.6};
  const std::vector<uint32_t> values = {5, 5, 5};  // single-value item
  for (uint8_t mask_value : {uint8_t{1}, uint8_t{0}}) {
    const std::vector<uint8_t> mask(3, mask_value);
    // The reference finisher with a clean scratch is the baseline; both
    // finishers through a dirty scratch must reproduce it bit for bit.
    std::vector<double> prob_ref(3, 0.0);
    std::vector<uint8_t> cov_ref(3, 2);
    double un_ref = -1.0;
    EmScratch scratch_ref;
    const double delta_ref =
        ItemValuePass(0, 3, votes.data(), 0, mask.data(), values.data(),
                      /*num_false=*/10, prob_ref.data(), cov_ref.data(),
                      &un_ref, &scratch_ref);
    for (bool indexed : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "mask=" << int(mask_value) << " indexed=" << indexed);
      // A pass through a DIRTY scratch (simulating buffer reuse across
      // items in one chunk) must not change anything.
      std::vector<double> prob_b(3, 0.0);
      std::vector<uint8_t> cov_b(3, 2);
      double un_b = -1.0;
      EmScratch scratch_b;
      scratch_b.values.assign(100, 9);
      scratch_b.value_votes.assign(100, 3.25);
      scratch_b.log_terms.assign(100, -8.5);
      const double delta_b =
          indexed ? IndexedPass(3, votes.data(), mask.data(), values.data(),
                                /*num_false=*/10, prob_b.data(), cov_b.data(),
                                &un_b, &scratch_b)
                  : ItemValuePass(0, 3, votes.data(), 0, mask.data(),
                                  values.data(),
                                  /*num_false=*/10, prob_b.data(),
                                  cov_b.data(), &un_b, &scratch_b);
      EXPECT_BITS_EQ(delta_ref, delta_b);
      EXPECT_BITS_EQ(un_ref, un_b);
      ExpectVectorBitsEq(prob_ref, prob_b, "slot_value_prob");
      EXPECT_EQ(cov_ref, cov_b);
    }
    // Coverage propagates from the mask: all slots covered or none.
    for (uint8_t c : cov_ref) EXPECT_EQ(c, mask_value);
    // The single value soaks up essentially all mass when votes are huge.
    if (votes[0] > 0) {
      EXPECT_GT(prob_ref[0], 0.99);
    }
    // All slots of a single-value item share the posterior bit for bit.
    EXPECT_BITS_EQ(prob_ref[0], prob_ref[1]);
    EXPECT_BITS_EQ(prob_ref[0], prob_ref[2]);
  }
}

TEST(KernelParityTest, ItemValuePassNoUnobservedMassWhenDomainIsFull) {
  // num_false + 1 distinct values observed => zero unobserved slots; the
  // unobserved branch must write exactly 0.0 and LogSumExp must run over
  // the observed votes only.
  const std::vector<double> votes = {1.0, -2.0, 0.5};
  const std::vector<uint32_t> values = {1, 2, 3};
  const std::vector<uint8_t> mask = {1, 1, 1};
  for (bool indexed : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "indexed=" << indexed);
    std::vector<double> prob(3, 0.0);
    std::vector<uint8_t> cov(3, 0);
    double unobserved = -1.0;
    EmScratch scratch;
    if (indexed) {
      IndexedPass(3, votes.data(), mask.data(), values.data(),
                  /*num_false=*/2, prob.data(), cov.data(), &unobserved,
                  &scratch);
    } else {
      ItemValuePass(0, 3, votes.data(), 0, mask.data(), values.data(),
                    /*num_false=*/2, prob.data(), cov.data(), &unobserved,
                    &scratch);
    }
    EXPECT_BITS_EQ(unobserved, 0.0);
    double total = prob[0] + prob[1] + prob[2];
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(KernelParityTest, ItemValuePassIndexedMatchesReferenceBitForBit) {
  // ValueLayer hoists the value grouping out of the iteration loop
  // (BuildValueIndex once per Run) and finishes items through
  // ItemValuePassIndexed. Per-item, that must be bit-identical to the
  // reference scanning ItemValuePass on adversarial vote streams.
  std::mt19937_64 rng(424242);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (size_t item = 0; item < 200; ++item) {
    SCOPED_TRACE(::testing::Message() << "item=" << item);
    const uint32_t num_slots = 1 + uint32_t(rng() % 12);
    std::vector<double> votes(num_slots);
    std::vector<uint32_t> values(num_slots);
    std::vector<uint8_t> mask(num_slots);
    for (uint32_t s = 0; s < num_slots; ++s) {
      // Mix huge, tiny and zero votes; few distinct values so repeats and
      // first-occurrence ordering both get exercised.
      const double scale = s % 3 == 0 ? 27.6 : (s % 3 == 1 ? 1e-8 : 1.0);
      votes[s] = (uni(rng) - 0.5) * 2.0 * scale;
      values[s] = uint32_t(rng() % 5);
      mask[s] = rng() % 4 == 0 ? 0 : 1;
    }
    const int num_false = 1 + int(rng() % 12);

    std::vector<double> prob_ref(num_slots, 0.25), prob_idx(num_slots, 0.25);
    std::vector<uint8_t> cov_ref(num_slots, 2), cov_idx(num_slots, 2);
    double un_ref = -1.0, un_idx = -1.0;
    EmScratch scratch_ref, scratch_idx, vi_scratch;
    const double d_ref = ItemValuePass(
        0, num_slots, votes.data(), 0, mask.data(), values.data(), num_false,
        prob_ref.data(), cov_ref.data(), &un_ref, &scratch_ref);

    std::vector<uint32_t> slot_vi(num_slots, 999);
    const uint32_t num_values = BuildValueIndex(0, num_slots, values.data(),
                                                slot_vi.data(), &vi_scratch);
    ASSERT_GE(num_values, 1u);
    ASSERT_LE(num_values, num_slots);
    for (uint32_t s = 0; s < num_slots; ++s) ASSERT_LT(slot_vi[s], num_values);
    const double d_idx = ItemValuePassIndexed(
        0, num_slots, votes.data(), 0, mask.data(), slot_vi.data(),
        num_values, num_false, prob_idx.data(), cov_idx.data(), &un_idx,
        &scratch_idx);

    EXPECT_BITS_EQ(d_ref, d_idx);
    EXPECT_BITS_EQ(un_ref, un_idx);
    ExpectVectorBitsEq(prob_ref, prob_idx, "slot_value_prob");
    EXPECT_EQ(cov_ref, cov_idx);
  }
}

// ---------------------------------------------------------------------------
// Whole-model parity: flip only config.kernel, compare everything bitwise.
// ---------------------------------------------------------------------------

extract::CompiledMatrix BuildMatrix(const extract::RawDataset& data,
                                    bool provenance) {
  const extract::GroupAssignment assignment =
      provenance ? granularity::ProvenanceAssignment(data)
                 : granularity::FinestAssignment(data);
  auto matrix = extract::CompiledMatrix::Build(data, assignment);
  EXPECT_TRUE(matrix.ok());
  return std::move(*matrix);
}

void ExpectSingleLayerBitsEq(const fusion::SingleLayerResult& a,
                             const fusion::SingleLayerResult& b) {
  ExpectVectorBitsEq(a.source_accuracy, b.source_accuracy, "source_accuracy");
  EXPECT_EQ(a.source_supported, b.source_supported);
  ExpectVectorBitsEq(a.slot_value_prob, b.slot_value_prob, "slot_value_prob");
  EXPECT_EQ(a.slot_covered, b.slot_covered);
  ExpectVectorBitsEq(a.item_unobserved_value_prob,
                     b.item_unobserved_value_prob, "item_unobserved");
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

void ExpectMultiLayerBitsEq(const core::MultiLayerResult& a,
                            const core::MultiLayerResult& b) {
  ExpectVectorBitsEq(a.source_accuracy, b.source_accuracy, "source_accuracy");
  EXPECT_EQ(a.source_supported, b.source_supported);
  ExpectVectorBitsEq(a.extractor_precision, b.extractor_precision,
                     "extractor_precision");
  ExpectVectorBitsEq(a.extractor_recall, b.extractor_recall,
                     "extractor_recall");
  ExpectVectorBitsEq(a.extractor_q, b.extractor_q, "extractor_q");
  EXPECT_EQ(a.extractor_supported, b.extractor_supported);
  ExpectVectorBitsEq(a.slot_correct_prob, b.slot_correct_prob,
                     "slot_correct_prob");
  ExpectVectorBitsEq(a.slot_value_prob, b.slot_value_prob, "slot_value_prob");
  ExpectVectorBitsEq(a.slot_alpha, b.slot_alpha, "slot_alpha");
  EXPECT_EQ(a.slot_covered, b.slot_covered);
  ExpectVectorBitsEq(a.item_unobserved_value_prob,
                     b.item_unobserved_value_prob, "item_unobserved");
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

/// The model-level cubes: the uniform synthetic cube under a fixed n and
/// the schema n, plus a cube whose per-predicate domain sizes differ, run
/// under the schema n only (no single n serves every item there).
struct ParityCube {
  const char* name;
  extract::RawDataset data;
  std::vector<int> n_overrides;
};

std::vector<ParityCube> ParityCubes(int fixed_n) {
  std::vector<ParityCube> cubes;
  cubes.push_back(ParityCube{
      "uniform", exp::GenerateSynthetic(exp::SyntheticConfig{}).data,
      {fixed_n, -1}});
  extract::RawDataset varied =
      exp::GenerateSynthetic(exp::SyntheticConfig{}).data;
  // One n per predicate of the default config's five: below, at and above
  // the generated domain (10), including n = 1 where items observe more
  // values than the domain holds.
  varied.num_false_by_predicate = {10, 3, 25, 1, 60};
  cubes.push_back(ParityCube{"varied_n_by_predicate", std::move(varied), {-1}});
  return cubes;
}

TEST(KernelParityTest, SingleLayerModelMatchesAcrossEstimatorVariants) {
  for (const ParityCube& cube : ParityCubes(/*fixed_n=*/100)) {
    const extract::CompiledMatrix matrix =
        BuildMatrix(cube.data, /*provenance=*/true);
    for (core::ValueModel vm :
         {core::ValueModel::kAccu, core::ValueModel::kPopAccu}) {
      for (int n_override : cube.n_overrides) {
        for (bool confidence_weights : {true, false}) {
          SCOPED_TRACE(::testing::Message()
                       << "cube=" << cube.name << " value_model=" << int(vm)
                       << " n=" << n_override
                       << " conf_weights=" << confidence_weights);
          fusion::SingleLayerConfig config;
          config.min_source_support = 1;
          config.value_model = vm;
          config.num_false_override = n_override;
          config.use_confidence_weights = confidence_weights;

          config.kernel = Kind::kScalarReference;
          auto scalar = fusion::SingleLayerModel::Run(matrix, config);
          ASSERT_TRUE(scalar.ok());
          config.kernel = Kind::kVectorized;
          auto vectorized = fusion::SingleLayerModel::Run(matrix, config);
          ASSERT_TRUE(vectorized.ok());
          ExpectSingleLayerBitsEq(*scalar, *vectorized);
        }
      }
    }
  }
}

TEST(KernelParityTest, SingleLayerModelMatchesAtExtremeInitialAccuracies) {
  // Initial accuracies pinned at the clamp bounds drive SourceVote through
  // its largest magnitudes (~ +-27.6 at n = 100) — the regime where a
  // reassociated sum would diverge first.
  const exp::SyntheticData syn = exp::GenerateSynthetic(exp::SyntheticConfig{});
  const extract::CompiledMatrix matrix =
      BuildMatrix(syn.data, /*provenance=*/true);
  std::vector<double> initial(matrix.num_sources());
  for (size_t w = 0; w < initial.size(); ++w) {
    initial[w] = (w % 2 == 0) ? 1e-4 : 1.0 - 1e-4;
  }
  fusion::SingleLayerConfig config;
  config.min_source_support = 1;
  config.kernel = Kind::kScalarReference;
  auto scalar = fusion::SingleLayerModel::Run(matrix, config, initial);
  ASSERT_TRUE(scalar.ok());
  config.kernel = Kind::kVectorized;
  auto vectorized = fusion::SingleLayerModel::Run(matrix, config, initial);
  ASSERT_TRUE(vectorized.ok());
  ExpectSingleLayerBitsEq(*scalar, *vectorized);
}

TEST(KernelParityTest, MultiLayerModelMatchesAcrossEstimatorVariants) {
  for (const ParityCube& cube : ParityCubes(/*fixed_n=*/10)) {
    const extract::CompiledMatrix matrix =
        BuildMatrix(cube.data, /*provenance=*/false);
    for (bool weighted : {true, false}) {
      for (bool calibrate : {true, false}) {
        for (core::ValueModel vm :
             {core::ValueModel::kAccu, core::ValueModel::kPopAccu}) {
          for (int n_override : cube.n_overrides) {
            SCOPED_TRACE(::testing::Message()
                         << "cube=" << cube.name << " weighted=" << weighted
                         << " calibrate=" << calibrate
                         << " value_model=" << int(vm) << " n=" << n_override);
            core::MultiLayerConfig config;
            config.min_source_support = 1;
            config.min_extractor_support = 1;
            config.weighted_value_votes = weighted;
            config.calibrate_correctness = calibrate;
            config.value_model = vm;
            config.num_false_override = n_override;

            config.kernel = Kind::kScalarReference;
            auto scalar = core::MultiLayerModel::Run(matrix, config);
            ASSERT_TRUE(scalar.ok());
            config.kernel = Kind::kVectorized;
            auto vectorized = core::MultiLayerModel::Run(matrix, config);
            ASSERT_TRUE(vectorized.ok());
            ExpectMultiLayerBitsEq(*scalar, *vectorized);
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, MultiLayerModelMatchesOnMotivatingExample) {
  // The paper's 8-page worked example: tiny item counts, frozen Table 3
  // quality, no calibration — the regime the worked-example tests pin.
  const extract::RawDataset data = exp::MotivatingExample::Dataset();
  const extract::GroupAssignment assignment =
      granularity::PageSourcePlainExtractor(data);
  auto matrix = extract::CompiledMatrix::Build(data, assignment);
  ASSERT_TRUE(matrix.ok());
  core::MultiLayerConfig config;
  config.min_source_support = 1;
  config.min_extractor_support = 1;
  config.calibrate_correctness = false;
  config.update_extractor_quality = false;
  config.num_false_override = 10;
  const core::InitialQuality initial =
      exp::MotivatingExample::Table3Quality();

  config.kernel = Kind::kScalarReference;
  auto scalar = core::MultiLayerModel::Run(*matrix, config, initial);
  ASSERT_TRUE(scalar.ok());
  config.kernel = Kind::kVectorized;
  auto vectorized = core::MultiLayerModel::Run(*matrix, config, initial);
  ASSERT_TRUE(vectorized.ok());
  ExpectMultiLayerBitsEq(*scalar, *vectorized);
}

// ---------------------------------------------------------------------------
// End-to-end parity on the corpus fixture: plain, sharded, stream tick.
// ---------------------------------------------------------------------------

kbt::testing::CorpusFixtureOptions FixtureOptions() {
  kbt::testing::CorpusFixtureOptions options;
  options.num_subjects = 80;
  options.num_websites = 25;
  options.num_extractors = 4;
  return options;
}

api::Options PipelineOptions(api::Model model, Kind kind) {
  api::Options options;
  options.model = model;
  options.granularity = model == api::Model::kSingleLayer
                            ? api::Granularity::kProvenance
                            : api::Granularity::kPageSource;
  options.multilayer.min_source_support = 1;
  options.multilayer.min_extractor_support = 1;
  options.multilayer.kernel = kind;
  options.single_layer.min_source_support = 1;
  options.single_layer.kernel = kind;
  return options;
}

void ExpectReportsBitsEq(const api::TrustReport& a, const api::TrustReport& b) {
  ExpectMultiLayerBitsEq(a.inference, b.inference);
  ASSERT_EQ(a.website_kbt.size(), b.website_kbt.size());
  for (size_t w = 0; w < a.website_kbt.size(); ++w) {
    ASSERT_EQ(Bits(a.website_kbt[w].kbt), Bits(b.website_kbt[w].kbt)) << w;
    ASSERT_EQ(Bits(a.website_kbt[w].evidence), Bits(b.website_kbt[w].evidence))
        << w;
  }
  ASSERT_EQ(a.source_kbt.size(), b.source_kbt.size());
  for (size_t s = 0; s < a.source_kbt.size(); ++s) {
    ASSERT_EQ(Bits(a.source_kbt[s].kbt), Bits(b.source_kbt[s].kbt)) << s;
  }
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i].item, b.predictions[i].item) << i;
    ASSERT_EQ(a.predictions[i].value, b.predictions[i].value) << i;
    ASSERT_EQ(Bits(a.predictions[i].probability),
              Bits(b.predictions[i].probability))
        << i;
    ASSERT_EQ(a.predictions[i].covered, b.predictions[i].covered) << i;
  }
}

TEST(KernelParityEndToEndTest, PipelineRunMatchesOnBothModels) {
  auto fixture = kbt::testing::MakeCorpusFixture(FixtureOptions());
  ASSERT_TRUE(fixture.ok());
  for (api::Model model : {api::Model::kMultiLayer, api::Model::kSingleLayer}) {
    SCOPED_TRACE(api::ModelName(model));
    auto scalar =
        api::PipelineBuilder()
            .FromDataset(fixture->dataset)
            .WithOptions(PipelineOptions(model, Kind::kScalarReference))
            .Build();
    ASSERT_TRUE(scalar.ok());
    auto vectorized =
        api::PipelineBuilder()
            .FromDataset(fixture->dataset)
            .WithOptions(PipelineOptions(model, Kind::kVectorized))
            .Build();
    ASSERT_TRUE(vectorized.ok());
    auto report_s = scalar->Run();
    ASSERT_TRUE(report_s.ok());
    auto report_v = vectorized->Run();
    ASSERT_TRUE(report_v.ok());
    ExpectReportsBitsEq(*report_s, *report_v);
  }
}

TEST(KernelParityEndToEndTest, ShardedPipelineMatchesAtKEquals2) {
  auto fixture = kbt::testing::MakeCorpusFixture(FixtureOptions());
  ASSERT_TRUE(fixture.ok());
  api::ShardOptions shard_options;
  shard_options.num_shards = 2;
  auto scalar = api::ShardedPipeline::Create(
      fixture->dataset,
      PipelineOptions(api::Model::kMultiLayer, Kind::kScalarReference),
      shard_options);
  ASSERT_TRUE(scalar.ok());
  auto vectorized = api::ShardedPipeline::Create(
      fixture->dataset,
      PipelineOptions(api::Model::kMultiLayer, Kind::kVectorized),
      shard_options);
  ASSERT_TRUE(vectorized.ok());
  auto report_s = scalar->Run();
  ASSERT_TRUE(report_s.ok());
  auto report_v = vectorized->Run();
  ASSERT_TRUE(report_v.ok());
  ASSERT_EQ(report_s->shards.size(), 2u);
  ASSERT_EQ(report_v->shards.size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    SCOPED_TRACE(::testing::Message() << "shard " << k);
    ExpectReportsBitsEq(report_s->shards[k], report_v->shards[k]);
  }
  ExpectReportsBitsEq(report_s->merged, report_v->merged);
}

TEST(KernelParityEndToEndTest, ShardedServiceCubeMatchesOnEveryExecutor) {
  // The seed-18 synthetic cube of the sharded TrustService tests, at K = 1
  // and 2: a replayed Stage I intercept once missed the literal bisection
  // here by a few ULPs (under a non-monotone sigmoid). The reference kind
  // runs the literal loop, so its report is the oracle of the replay.
  exp::SyntheticConfig config;
  config.num_sources = 15;
  config.num_extractors = 4;
  config.seed = 18;
  const extract::RawDataset cube = exp::GenerateSynthetic(config).data;
  const auto options = [](Kind kind) {
    api::Options o = PipelineOptions(api::Model::kMultiLayer, kind);
    o.granularity = api::Granularity::kFinest;
    return o;
  };
  for (uint32_t k : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "K=" << k);
    api::ShardOptions shard_options;
    shard_options.num_shards = k;
    auto scalar = api::ShardedPipeline::Create(
        cube, options(Kind::kScalarReference), shard_options);
    ASSERT_TRUE(scalar.ok());
    auto report_s = scalar->Run();
    ASSERT_TRUE(report_s.ok());
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      dataflow::Executor executor(threads);
      auto vectorized = api::ShardedPipeline::Create(
          cube, options(Kind::kVectorized), shard_options);
      ASSERT_TRUE(vectorized.ok());
      vectorized->AttachExecutor(&executor);
      auto report_v = vectorized->Run();
      ASSERT_TRUE(report_v.ok());
      for (size_t s = 0; s < k; ++s) {
        ExpectReportsBitsEq(report_s->shards[s], report_v->shards[s]);
      }
      ExpectReportsBitsEq(report_s->merged, report_v->merged);
    }
  }
}

TEST(KernelParityEndToEndTest, StreamTicksMatchAcrossKernels) {
  auto fixture = kbt::testing::MakeCorpusFixture(FixtureOptions());
  ASSERT_TRUE(fixture.ok());
  auto slices = kbt::testing::SliceObservations(fixture->dataset, 3);
  extract::RawDataset seed = fixture->dataset;
  seed.observations = slices[0];

  auto run_stream = [&](Kind kind) {
    auto pipeline =
        api::PipelineBuilder()
            .FromDataset(seed)
            .WithOptions(PipelineOptions(api::Model::kMultiLayer, kind))
            .Build();
    EXPECT_TRUE(pipeline.ok());
    auto feed = std::make_shared<stream::QueueFeed>();
    auto engine =
        stream::StreamEngine::Create(&*pipeline, feed, stream::StreamOptions{});
    EXPECT_TRUE(engine.ok());
    std::vector<std::shared_ptr<const query::Snapshot>> snapshots;
    double now = 10.0;
    for (size_t b = 1; b < slices.size(); ++b, now += 10.0) {
      std::vector<stream::TimedObservation> timed;
      for (const extract::RawObservation& obs : slices[b]) {
        timed.push_back(stream::TimedObservation{obs, now});
      }
      feed->PushBatch(std::move(timed));
      auto tick = (*engine)->Tick(now);
      EXPECT_TRUE(tick.ok());
      EXPECT_TRUE(tick->published);
      snapshots.push_back(tick->snapshot);
    }
    return snapshots;
  };

  const auto scalar_snaps = run_stream(Kind::kScalarReference);
  const auto vector_snaps = run_stream(Kind::kVectorized);
  ASSERT_EQ(scalar_snaps.size(), vector_snaps.size());
  for (size_t g = 0; g < scalar_snaps.size(); ++g) {
    SCOPED_TRACE(::testing::Message() << "generation " << g);
    const query::Snapshot& a = *scalar_snaps[g];
    const query::Snapshot& b = *vector_snaps[g];
    ASSERT_EQ(a.num_sources(), b.num_sources());
    ASSERT_EQ(a.num_triples(), b.num_triples());
    for (uint32_t s = 0; s < a.num_sources(); ++s) {
      const auto sa = a.SourceTrust(s);
      const auto sb = b.SourceTrust(s);
      ASSERT_TRUE(sa.has_value());
      ASSERT_TRUE(sb.has_value());
      ASSERT_EQ(Bits(sa->kbt), Bits(sb->kbt)) << "source " << s;
    }
    const auto ta = a.TopKTriples(a.num_triples());
    const auto tb = b.TopKTriples(b.num_triples());
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta[i].item, tb[i].item) << i;
      ASSERT_EQ(ta[i].value, tb[i].value) << i;
      ASSERT_EQ(Bits(ta[i].probability), Bits(tb[i].probability)) << i;
    }
  }
}

}  // namespace
}  // namespace kbt::kernels
