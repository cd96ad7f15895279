// Reduction determinism: the blocked reductions behind every served score
// must be a pure function of the data — invariant to the executor's thread
// count, to ParallelFor chunking, and to the kernel kind. Plus golden score
// pins on one fixed corpus, asserted on BOTH kernel kinds, so a silent
// change to the summation tree (lane count, combine order, block size)
// fails loudly instead of drifting every score the system serves.
#include "dataflow/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "core/multilayer_model.h"
#include "exp/synthetic.h"
#include "extract/observation_matrix.h"
#include "fusion/single_layer.h"
#include "granularity/assignments.h"
#include "kernels/kernels.h"

namespace kbt {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::vector<double> NastyDoubles(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> xs(n);
  for (size_t i = 0; i < n; ++i) {
    // Magnitudes spanning ~24 orders with mixed signs: any reassociation
    // of the summation tree changes the rounded result here.
    const double mag = std::pow(10.0, double(i % 25) - 12.0);
    xs[i] = (i % 3 == 0 ? -1.0 : 1.0) * uni(rng) * mag;
  }
  return xs;
}

TEST(BlockedSumTest, InvariantToExecutorThreadCount) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                   size_t{4097}, size_t{100000}}) {
    SCOPED_TRACE(n);
    const std::vector<double> xs = NastyDoubles(n, /*seed=*/n + 13);
    const auto block_sum = [&xs](size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) s += xs[i];
      return s;
    };
    const double serial = dataflow::BlockedSum(nullptr, n, block_sum);
    for (int threads : {1, 2, 8}) {
      dataflow::Executor executor(threads);
      const double parallel = dataflow::BlockedSum(&executor, n, block_sum);
      ASSERT_EQ(Bits(serial), Bits(parallel)) << "threads=" << threads;
    }
  }
}

TEST(BlockedSumTest, MatchesTheFixedBlockProgramExactly) {
  // The contract is not "some deterministic answer": it is THIS summation
  // tree — per-block partials in block order. Recompute it by hand.
  const size_t n = 12345;
  const std::vector<double> xs = NastyDoubles(n, /*seed=*/99);
  const auto block_sum = [&xs](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += xs[i];
    return s;
  };
  double expected = 0.0;
  for (size_t begin = 0; begin < n; begin += dataflow::kBlockedSumBlock) {
    expected += block_sum(begin, std::min(n, begin + dataflow::kBlockedSumBlock));
  }
  dataflow::Executor executor(4);
  ASSERT_EQ(Bits(expected), Bits(dataflow::BlockedSum(&executor, n, block_sum)));
}

TEST(BlockedSumTest, PairSumsEachAccumulatorAsBlockedSumDoes) {
  // BlockedSumPair is BlockedSum run on two accumulators at once: each
  // combines in block order exactly as BlockedSum would on its own.
  const size_t n = 3 * dataflow::kBlockedSumBlock + 123;
  const std::vector<double> xs = NastyDoubles(n, /*seed=*/7);
  const std::vector<double> ys = NastyDoubles(n, /*seed=*/8);
  const auto sum_of = [](const std::vector<double>& v) {
    return [&v](size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) s += v[i];
      return s;
    };
  };
  const auto pair_sum = [&](size_t begin, size_t end) {
    return std::pair<double, double>(sum_of(xs)(begin, end),
                                     sum_of(ys)(begin, end));
  };
  for (int threads : {0, 1, 2, 8}) {
    SCOPED_TRACE(threads);
    std::optional<dataflow::Executor> executor;
    if (threads > 0) executor.emplace(threads);
    dataflow::Executor* ex = executor ? &*executor : nullptr;
    const auto [x_total, y_total] = dataflow::BlockedSumPair(ex, n, pair_sum);
    ASSERT_EQ(Bits(x_total), Bits(dataflow::BlockedSum(ex, n, sum_of(xs))));
    ASSERT_EQ(Bits(y_total), Bits(dataflow::BlockedSum(ex, n, sum_of(ys))));
  }
  const auto empty = dataflow::BlockedSumPair(nullptr, 0, pair_sum);
  EXPECT_EQ(empty.first, 0.0);
  EXPECT_EQ(empty.second, 0.0);
}

TEST(BlockedSumTest, BlockSizeIsPartOfTheResultIdentity) {
  // Different block sizes legitimately produce different roundings on
  // adversarial data; the default must therefore never drift silently.
  const size_t n = 10000;
  const std::vector<double> xs = NastyDoubles(n, /*seed=*/7);
  const auto block_sum = [&xs](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += xs[i];
    return s;
  };
  EXPECT_EQ(dataflow::kBlockedSumBlock, 4096u);
  const double a = dataflow::BlockedSum(nullptr, n, block_sum, 4096);
  const double b = dataflow::BlockedSum(nullptr, n, block_sum);
  ASSERT_EQ(Bits(a), Bits(b));
}

// ---------------------------------------------------------------------------
// Model-level determinism across executors, on both kernel kinds.
// ---------------------------------------------------------------------------

extract::CompiledMatrix SyntheticMatrix(bool provenance) {
  exp::SyntheticConfig config;
  config.seed = 5;
  const exp::SyntheticData syn = exp::GenerateSynthetic(config);
  const extract::GroupAssignment assignment =
      provenance ? granularity::ProvenanceAssignment(syn.data)
                 : granularity::FinestAssignment(syn.data);
  auto matrix = extract::CompiledMatrix::Build(syn.data, assignment);
  EXPECT_TRUE(matrix.ok());
  return std::move(*matrix);
}

TEST(ReductionDeterminismTest, MultiLayerRunInvariantToThreadCount) {
  const extract::CompiledMatrix matrix = SyntheticMatrix(/*provenance=*/false);
  for (kernels::Kind kind :
       {kernels::Kind::kScalarReference, kernels::Kind::kVectorized}) {
    SCOPED_TRACE(kernels::KindName(kind));
    core::MultiLayerConfig config;
    config.min_source_support = 1;
    config.min_extractor_support = 1;
    config.kernel = kind;
    auto serial = core::MultiLayerModel::Run(matrix, config);
    ASSERT_TRUE(serial.ok());
    for (int threads : {1, 2, 8}) {
      dataflow::Executor executor(threads);
      auto parallel = core::MultiLayerModel::Run(matrix, config, {}, &executor);
      ASSERT_TRUE(parallel.ok());
      for (size_t s = 0; s < serial->slot_value_prob.size(); ++s) {
        ASSERT_EQ(Bits(serial->slot_value_prob[s]),
                  Bits(parallel->slot_value_prob[s]))
            << "threads=" << threads << " slot=" << s;
        ASSERT_EQ(Bits(serial->slot_correct_prob[s]),
                  Bits(parallel->slot_correct_prob[s]))
            << "threads=" << threads << " slot=" << s;
      }
      for (size_t w = 0; w < serial->source_accuracy.size(); ++w) {
        ASSERT_EQ(Bits(serial->source_accuracy[w]),
                  Bits(parallel->source_accuracy[w]))
            << "threads=" << threads << " source=" << w;
      }
      ASSERT_EQ(serial->iterations, parallel->iterations);
    }
  }
}

TEST(ReductionDeterminismTest, SingleLayerRunInvariantToThreadCount) {
  const extract::CompiledMatrix matrix = SyntheticMatrix(/*provenance=*/true);
  for (kernels::Kind kind :
       {kernels::Kind::kScalarReference, kernels::Kind::kVectorized}) {
    SCOPED_TRACE(kernels::KindName(kind));
    fusion::SingleLayerConfig config;
    config.min_source_support = 1;
    config.kernel = kind;
    auto serial = fusion::SingleLayerModel::Run(matrix, config);
    ASSERT_TRUE(serial.ok());
    for (int threads : {1, 2, 8}) {
      dataflow::Executor executor(threads);
      auto parallel =
          fusion::SingleLayerModel::Run(matrix, config, {}, &executor);
      ASSERT_TRUE(parallel.ok());
      for (size_t s = 0; s < serial->slot_value_prob.size(); ++s) {
        ASSERT_EQ(Bits(serial->slot_value_prob[s]),
                  Bits(parallel->slot_value_prob[s]))
            << "threads=" << threads << " slot=" << s;
      }
      for (size_t w = 0; w < serial->source_accuracy.size(); ++w) {
        ASSERT_EQ(Bits(serial->source_accuracy[w]),
                  Bits(parallel->source_accuracy[w]))
            << "threads=" << threads << " source=" << w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden score pins: one fixed corpus, literals asserted on both kinds.
// ---------------------------------------------------------------------------

TEST(ReductionDeterminismTest, GoldenScorePinsHoldOnBothKernels) {
  // These literals were produced by this exact test on the seed corpus
  // (SyntheticConfig{seed = 5}, defaults otherwise). They pin the whole
  // float program: kernels, lane order, BlockedSum calibration, clamps. A
  // legitimate numeric change must update them CONSCIOUSLY — with a note in
  // docs/ARCHITECTURE.md ("EM kernels") that every served score moves.
  const extract::CompiledMatrix matrix = SyntheticMatrix(/*provenance=*/false);
  for (kernels::Kind kind :
       {kernels::Kind::kScalarReference, kernels::Kind::kVectorized}) {
    SCOPED_TRACE(kernels::KindName(kind));
    core::MultiLayerConfig config;
    config.min_source_support = 1;
    config.min_extractor_support = 1;
    config.kernel = kind;
    dataflow::Executor executor(4);
    auto result = core::MultiLayerModel::Run(matrix, config, {}, &executor);
    ASSERT_TRUE(result.ok());
    ASSERT_GE(result->source_accuracy.size(), 3u);
    ASSERT_GE(result->slot_value_prob.size(), 3u);
    EXPECT_NEAR(result->source_accuracy[0], 0.72632222533314905, 1e-9);
    EXPECT_NEAR(result->source_accuracy[2], 0.69445854970164345, 1e-9);
    EXPECT_NEAR(result->slot_value_prob[0], 0.0016563813524343421, 1e-9);
    EXPECT_NEAR(result->slot_value_prob[2], 0.0016776722310779177, 1e-9);
    EXPECT_NEAR(result->slot_correct_prob[0], 0.20067420692335949, 1e-9);
    double mean_value_prob = 0.0;
    for (double p : result->slot_value_prob) mean_value_prob += p;
    mean_value_prob /= double(result->slot_value_prob.size());
    EXPECT_NEAR(mean_value_prob, 0.33037372716497215, 1e-9);
  }
}

}  // namespace
}  // namespace kbt
