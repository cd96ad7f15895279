// Numeric edge cases the sanitizers care about: denormal inputs, votes at
// the log-clamp boundaries, empty ranges, 1-element reduction blocks. Every
// primitive case asserts bit-for-bit agreement with the independent
// contract transcription (tests/support/kernel_contract.h), so a
// UBSan-visible shortcut (reading past n, skipping the empty-range early
// return, widening a denormal differently) cannot hide in the kernels.
// Also home of the M-step scratch-reuse regression: the blocked tallies
// must equal an independently computed sequential tally.
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "common/math.h"
#include "dataflow/parallel.h"
#include "support/kernel_contract.h"

namespace kbt::kernels {
namespace {

using kbt::testing::ContractTallyIndexed;
using kbt::testing::ContractVoteMasked;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(KernelEdgesTest, EmptyRangesAreExactZeroOnBothKinds) {
  // n = 0 with null-ish data: the kernels must not touch any pointer. (The
  // primitives are shared by both kinds, so one pass covers both.)
  const uint32_t* no_idx = nullptr;
  const double* no_d = nullptr;
  const float* no_f = nullptr;
  const Tally t1 = TallyIndexed(no_idx, 0, no_d, no_d);
  EXPECT_EQ(Bits(t1.num), Bits(0.0));
  EXPECT_EQ(Bits(t1.den), Bits(0.0));
  const Tally t2 = TallyMap(no_idx, 0, no_d, no_d);
  EXPECT_EQ(Bits(t2.num), Bits(0.0));
  EXPECT_EQ(Bits(t2.den), Bits(0.0));
  const Tally t3 = TallyEdges(no_idx, 0, no_f, no_idx, no_d);
  EXPECT_EQ(Bits(t3.num), Bits(0.0));
  EXPECT_EQ(Bits(t3.den), Bits(0.0));
  // begin == end staging ranges are no-ops.
  double out = 42.0;
  StageVotesMasked(no_d, no_d, no_idx, no_d, 5, 5, &out);
  StageVotesMaskedSub(no_d, no_d, no_idx, no_d, no_d, 5, 5, &out);
  StageEdgeTerms(no_f, no_idx, no_d, 5, 5, &out);
  EXPECT_EQ(out, 42.0);
}

TEST(KernelEdgesTest, DenormalWeightsAgreeBitForBit) {
  // Weights and probabilities deep in the denormal range: a flush-to-zero
  // or differently widened product in the kernels would show up here.
  const double denorm = 5e-324;             // smallest positive denormal
  const double tiny = 1e-310;               // mid-range denormal
  ASSERT_LT(tiny, std::numeric_limits<double>::min());
  const std::vector<double> w = {denorm, tiny, 1.0, tiny * 3, denorm, 0.5,
                                 tiny, denorm * 7, 2e-320};
  const std::vector<double> p = {1e-4, 0.5, tiny, 1.0 - 1e-4, denorm,
                                 0.25, 1.0,  0.75, tiny};
  std::vector<uint32_t> idx(w.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = uint32_t(i);
  const Tally got = TallyIndexed(idx.data(), idx.size(), w.data(), p.data());
  const Tally want =
      ContractTallyIndexed(idx.data(), idx.size(), w.data(), p.data());
  EXPECT_EQ(Bits(got.num), Bits(want.num));
  EXPECT_EQ(Bits(got.den), Bits(want.den));

  // Unmasked staging (all-ones mask; 1.0 * w == w, denormals included).
  const std::vector<double> ones(w.size(), 1.0);
  std::vector<double> out(w.size());
  StageVotesMasked(ones.data(), w.data(), idx.data(), p.data(), 0, w.size(),
                   out.data());
  for (size_t i = 0; i < w.size(); ++i) {
    const double vote =
        ContractVoteMasked(ones.data(), w.data(), idx.data(), p.data(), i);
    ASSERT_EQ(Bits(out[i]), Bits(vote)) << i;
    ASSERT_EQ(Bits(out[i]), Bits(w[i] * p[i])) << i;
  }
}

TEST(KernelEdgesTest, VotesAtClampBoundariesStayFinite) {
  // SourceVote at the probability clamps is the largest finite vote the
  // models produce; sums of many of them must stay finite and identical.
  const double hi = SourceVote(ClampProbability(1.0), 100);
  const double lo = SourceVote(ClampProbability(0.0), 100);
  ASSERT_TRUE(std::isfinite(hi));
  ASSERT_TRUE(std::isfinite(lo));
  std::vector<double> table = {hi, lo, hi, lo, hi, hi, lo};
  std::vector<double> w(table.size(), 1.0);
  std::vector<uint32_t> idx(table.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = uint32_t(i);
  const std::vector<double> ones(table.size(), 1.0);
  std::vector<double> out_s(table.size());
  StageVotesMasked(ones.data(), w.data(), idx.data(), table.data(), 0,
                   table.size(), out_s.data());
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(std::isfinite(out_s[i]));
    ASSERT_EQ(Bits(out_s[i]), Bits(ContractVoteMasked(ones.data(), w.data(),
                                                      idx.data(),
                                                      table.data(), i)))
        << i;
  }
  // An item voted entirely at the clamp bounds still yields a normalized
  // posterior (LogSumExp shifts by the max, so no overflow).
  const std::vector<uint32_t> values = {1, 2, 1, 2, 1, 1, 2};
  const std::vector<uint8_t> mask(table.size(), 1);
  std::vector<double> prob(table.size(), 0.0);
  std::vector<uint8_t> cov(table.size(), 0);
  double unobserved = -1.0;
  EmScratch scratch;
  ItemValuePass(0, uint32_t(table.size()), out_s.data(), 0, mask.data(),
                values.data(),
                /*num_false=*/10, prob.data(), cov.data(), &unobserved,
                &scratch);
  double total = unobserved * 10.0;  // 10 - 1 observed... upper bound check
  for (double p : prob) {
    ASSERT_TRUE(std::isfinite(p));
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
  }
  ASSERT_TRUE(std::isfinite(unobserved));
  ASSERT_GE(total, 0.0);
}

TEST(KernelEdgesTest, SingleElementAndLaneBoundaryTallies) {
  // n = 1..5 crosses the lane horizon (4): the single element must land in
  // lane 0 and the first tail element back in lane 0 after a full row.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> w(8), p(8);
  std::vector<uint32_t> idx(8);
  for (size_t i = 0; i < 8; ++i) {
    w[i] = uni(rng);
    p[i] = uni(rng);
    idx[i] = uint32_t(7 - i);
  }
  for (size_t n = 1; n <= 5; ++n) {
    SCOPED_TRACE(n);
    const Tally s = TallyIndexed(idx.data(), n, w.data(), p.data());
    // The laned program really is the documented one: element k in lane
    // k % 4, lanes combined (l0 + l1) + (l2 + l3).
    double lane_num[kTallyLanes] = {0, 0, 0, 0};
    double lane_den[kTallyLanes] = {0, 0, 0, 0};
    for (size_t k = 0; k < n; ++k) {
      lane_num[k % kTallyLanes] += w[idx[k]] * p[idx[k]];
      lane_den[k % kTallyLanes] += w[idx[k]];
    }
    ASSERT_EQ(Bits((lane_num[0] + lane_num[1]) + (lane_num[2] + lane_num[3])),
              Bits(s.num));
    ASSERT_EQ(Bits((lane_den[0] + lane_den[1]) + (lane_den[2] + lane_den[3])),
              Bits(s.den));
  }
}

TEST(KernelEdgesTest, BlockedSumWithOneElementBlocks) {
  // block_size = 1: every element is its own partial — the combine loop IS
  // the whole sum, sequentially in element order.
  const std::vector<double> xs = {1e16, 1.0, -1e16, 3.5, 5e-324, -1.25};
  const auto block_sum = [&xs](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += xs[i];
    return s;
  };
  double expected = 0.0;
  for (double x : xs) expected += x;
  dataflow::Executor executor(3);
  ASSERT_EQ(Bits(expected),
            Bits(dataflow::BlockedSum(&executor, xs.size(), block_sum, 1)));
  ASSERT_EQ(Bits(expected),
            Bits(dataflow::BlockedSum(nullptr, xs.size(), block_sum, 1)));
  // block_size = 0 is clamped to 1, not UB.
  ASSERT_EQ(Bits(expected),
            Bits(dataflow::BlockedSum(nullptr, xs.size(), block_sum, 0)));
}

// ---------------------------------------------------------------------------
// M-step scratch-reuse regression
// ---------------------------------------------------------------------------

TEST(KernelEdgesTest, MStepTallyMatchesIndependentSequentialComputation) {
  // The scratch-churn fix moved the M-step through reusable buffers and
  // laned tallies; this guards the RESULT against that plumbing: the laned
  // tally must equal a plainly written sequential sum to 1e-12 relative,
  // and the contract transcription exactly.
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const size_t num_slots = 1537;  // odd, > kStageBlock / 4, not lane-aligned
  std::vector<double> weight(num_slots), prob(num_slots);
  std::vector<uint32_t> idx(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    weight[s] = uni(rng);
    prob[s] = ClampProbability(uni(rng));
    idx[s] = uint32_t(s);
  }
  // Shuffle the index list the way a source's CSR slot list is permuted.
  for (size_t s = num_slots; s > 1; --s) {
    std::swap(idx[s - 1], idx[rng() % s]);
  }
  const Tally tally =
      TallyIndexed(idx.data(), num_slots, weight.data(), prob.data());
  const Tally contract =
      ContractTallyIndexed(idx.data(), num_slots, weight.data(), prob.data());
  ASSERT_EQ(Bits(tally.num), Bits(contract.num));
  ASSERT_EQ(Bits(tally.den), Bits(contract.den));
  double num = 0.0, den = 0.0;
  for (size_t k = 0; k < num_slots; ++k) {
    num += weight[idx[k]] * prob[idx[k]];
    den += weight[idx[k]];
  }
  EXPECT_NEAR(tally.num, num, 1e-12 * std::abs(num));
  EXPECT_NEAR(tally.den, den, 1e-12 * std::abs(den));
  // And the derived accuracy (Eq. 4 / 28 shape) is a sane probability.
  const double accuracy = tally.num / tally.den;
  EXPECT_GT(accuracy, 0.0);
  EXPECT_LT(accuracy, 1.0);
}

TEST(KernelEdgesTest, EmScratchReuseAcrossManyItemsIsStable) {
  // One scratch instance across a whole chunk of differently-shaped items
  // (the production reuse pattern) must give the same answers as a fresh
  // scratch per item (the old allocation-churn behavior).
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const size_t num_items = 64;
  EmScratch shared_ref, shared_indexed, vi_scratch;
  for (size_t item = 0; item < num_items; ++item) {
    const uint32_t num_slots = 1 + uint32_t(rng() % 9);
    std::vector<double> votes(num_slots);
    std::vector<uint32_t> values(num_slots);
    std::vector<uint8_t> mask(num_slots);
    for (uint32_t s = 0; s < num_slots; ++s) {
      votes[s] = (uni(rng) - 0.5) * 20.0;
      values[s] = uint32_t(rng() % 4);  // few distinct values, repeats
      mask[s] = rng() % 2 ? 1 : 0;
    }
    // Fresh-scratch reference finisher is the baseline; each finisher
    // through its own chunk-shared scratch must match it bit for bit.
    std::vector<double> prob_fresh(num_slots, 0.0);
    std::vector<uint8_t> cov_fresh(num_slots, 0);
    double un_fresh = 0.0;
    EmScratch fresh;
    const double d_fresh = ItemValuePass(
        0, num_slots, votes.data(), 0, mask.data(), values.data(),
        /*num_false=*/10, prob_fresh.data(), cov_fresh.data(), &un_fresh,
        &fresh);
    std::vector<uint32_t> slot_vi(num_slots);
    const uint32_t num_values = BuildValueIndex(0, num_slots, values.data(),
                                                slot_vi.data(), &vi_scratch);
    for (bool indexed : {false, true}) {
      std::vector<double> prob_shared(num_slots, 0.0);
      std::vector<uint8_t> cov_shared(num_slots, 0);
      double un_shared = 0.0;
      const double d_shared =
          indexed ? ItemValuePassIndexed(
                        0, num_slots, votes.data(), 0, mask.data(),
                        slot_vi.data(), num_values, /*num_false=*/10,
                        prob_shared.data(), cov_shared.data(), &un_shared,
                        &shared_indexed)
                  : ItemValuePass(0, num_slots, votes.data(), 0, mask.data(),
                                  values.data(),
                                  /*num_false=*/10, prob_shared.data(),
                                  cov_shared.data(), &un_shared, &shared_ref);
      ASSERT_EQ(Bits(d_shared), Bits(d_fresh))
          << "item " << item << " indexed " << indexed;
      ASSERT_EQ(Bits(un_shared), Bits(un_fresh))
          << "item " << item << " indexed " << indexed;
      ASSERT_EQ(cov_shared, cov_fresh)
          << "item " << item << " indexed " << indexed;
      for (uint32_t s = 0; s < num_slots; ++s) {
        ASSERT_EQ(Bits(prob_shared[s]), Bits(prob_fresh[s]))
            << "item " << item << " slot " << s << " indexed " << indexed;
      }
    }
  }
}

}  // namespace
}  // namespace kbt::kernels
