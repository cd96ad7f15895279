// google-benchmark microbenchmarks of the inference kernels: vote
// computation, sigmoid/log-sum-exp, the SoA EM kernels (src/kernels/) with
// bytes-processed GB/s, the Stage I intercept solve, matrix compilation,
// one EM iteration, and a PageRank sweep. These are the building blocks
// whose cost the Table 7 stage timings aggregate.
#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/math.h"
#include "core/calibration.h"
#include "corpus/link_graph.h"
#include "exp/synthetic.h"
#include "extract/observation_matrix.h"
#include "granularity/assignments.h"
#include "kernels/kernels.h"
#include "pagerank/pagerank.h"
#include "core/multilayer_model.h"

namespace {

using namespace kbt;

void BM_Sigmoid(benchmark::State& state) {
  double x = -8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sigmoid(x));
    x += 0.001;
    if (x > 8.0) x = -8.0;
  }
}
BENCHMARK(BM_Sigmoid);

void BM_VoteComputation(benchmark::State& state) {
  double r = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeVotes(r, 0.2 * r, 1.0));
    r += 1e-4;
    if (r > 0.95) r = 0.1;
  }
}
BENCHMARK(BM_VoteComputation);

void BM_LogSumExp(benchmark::State& state) {
  std::vector<double> xs(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i % 37) - 18.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogSumExp(xs));
  }
}
BENCHMARK(BM_LogSumExp)->Arg(4)->Arg(64)->Arg(1024);

// ---- SoA EM kernels: bytes-processed so the reporter prints
// GB/s next to each timing (the bytes are the streams the kernel actually
// touches: indices, gathered tables, weight/posterior reads, staged
// writes — matching the bytes-touched model in bench_table7_efficiency).

struct KernelStreams {
  std::vector<uint32_t> idx;
  std::vector<double> w;
  std::vector<double> p;
  std::vector<double> mask;
  std::vector<double> table;
  std::vector<double> out;
  std::vector<float> conf;
  std::vector<uint32_t> group;
  std::vector<double> net;
};

KernelStreams& SharedStreams() {
  static KernelStreams streams = [] {
    constexpr size_t kN = 1 << 18;
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    KernelStreams s;
    s.idx.resize(kN);
    s.w.resize(kN);
    s.p.resize(kN);
    s.mask.resize(kN);
    s.table.resize(kN);
    s.out.resize(kN);
    s.conf.resize(kN);
    s.group.resize(kN);
    s.net.resize(kN);
    for (size_t i = 0; i < kN; ++i) {
      s.idx[i] = static_cast<uint32_t>(rng() % kN);
      s.w[i] = uni(rng);
      s.p[i] = ClampProbability(uni(rng));
      s.mask[i] = rng() % 4 ? 1.0 : 0.0;
      s.table[i] = (uni(rng) - 0.5) * 20.0;
      s.conf[i] = static_cast<float>(uni(rng));
      s.group[i] = static_cast<uint32_t>(rng() % 64);
      s.net[i] = (uni(rng) - 0.5) * 10.0;
    }
    return s;
  }();
  return streams;
}

void BM_TallyIndexed(benchmark::State& state) {
  const KernelStreams& s = SharedStreams();
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::TallyIndexed(s.idx.data(), n, s.w.data(), s.p.data()));
  }
  // idx 4 + gathered w 8 + gathered p 8 per element.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * (4 + 8 + 8));
}
BENCHMARK(BM_TallyIndexed)->Arg(4096)->Arg(262144);

void BM_TallyEdges(benchmark::State& state) {
  const KernelStreams& s = SharedStreams();
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::TallyEdges(
        s.idx.data(), n, s.conf.data(), s.group.data(), s.p.data()));
  }
  // edge idx 4 + conf 4 + slot idx 4 + gathered correctness 8 per element.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * (4 + 4 + 4 + 8));
}
BENCHMARK(BM_TallyEdges)->Arg(4096)->Arg(262144);

void BM_StageVotesMasked(benchmark::State& state) {
  KernelStreams& s = SharedStreams();
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    kernels::StageVotesMasked(s.mask.data(), s.w.data(), s.idx.data(),
                              s.table.data(), 0, n, s.out.data());
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  // mask 8 + weight 8 + idx 4 + gathered table 8 + staged write 8.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * (8 + 8 + 4 + 8 + 8));
}
BENCHMARK(BM_StageVotesMasked)->Arg(4096)->Arg(262144);

void BM_StageEdgeTerms(benchmark::State& state) {
  KernelStreams& s = SharedStreams();
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    kernels::StageEdgeTerms(s.conf.data(), s.group.data(), s.net.data(), 0, n,
                            s.out.data());
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  // conf 4 + group 4 + gathered net 8 + term write 8.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * (4 + 4 + 8 + 8));
}
BENCHMARK(BM_StageEdgeTerms)->Arg(4096)->Arg(262144);

// ---- Stage I intercept solve on the table7 cube's slot count: the
// literal 60-step bisection (Arg 0) against the bracket-and-replay solve
// warm-started cold at 0 (Arg 1) and at the previous iteration's tau, the
// logits having moved by a small shift (Arg 2). Both return the same tau
// bits; `sweeps` counts full passes over the logits per solve.

void BM_CalibrateIntercept(benchmark::State& state) {
  constexpr size_t kSlots = 502353;
  constexpr double kTarget = 0.4;
  static const std::vector<double> logits = [] {
    std::mt19937_64 rng(3);
    std::normal_distribution<double> normal(-1.5, 2.5);
    std::vector<double> x(kSlots);
    for (double& v : x) v = normal(rng);
    return x;
  }();
  static const double previous_tau = [] {
    std::vector<double> moved = logits;
    for (double& v : moved) v += 0.05;
    return core::SolveIntercept(nullptr, moved, kTarget, 0.0).tau;
  }();
  const int mode = static_cast<int>(state.range(0));
  int64_t sweeps = 0;
  for (auto _ : state) {
    const core::InterceptSolve solve =
        mode == 0 ? core::SolveInterceptLiteral(nullptr, logits, kTarget)
                  : core::SolveIntercept(nullptr, logits, kTarget,
                                         mode == 1 ? 0.0 : previous_tau);
    benchmark::DoNotOptimize(solve.tau);
    sweeps += solve.sweeps;
  }
  state.counters["sweeps"] = benchmark::Counter(
      static_cast<double>(sweeps), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CalibrateIntercept)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

exp::SyntheticData& SharedSynthetic() {
  static exp::SyntheticData data = [] {
    exp::SyntheticConfig config;
    config.num_sources = 50;
    config.num_subjects = 40;
    config.num_predicates = 5;
    config.num_extractors = 10;
    return exp::GenerateSynthetic(config);
  }();
  return data;
}

void BM_CompileMatrix(benchmark::State& state) {
  const auto& synthetic = SharedSynthetic();
  const auto assignment =
      granularity::PageSourcePlainExtractor(synthetic.data);
  for (auto _ : state) {
    auto matrix = extract::CompiledMatrix::Build(synthetic.data, assignment);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(synthetic.data.size()));
}
BENCHMARK(BM_CompileMatrix);

void BM_MultiLayerIteration(benchmark::State& state) {
  const auto& synthetic = SharedSynthetic();
  const auto assignment =
      granularity::PageSourcePlainExtractor(synthetic.data);
  const auto matrix =
      extract::CompiledMatrix::Build(synthetic.data, assignment);
  core::MultiLayerConfig config;
  config.max_iterations = static_cast<int>(state.range(0));
  config.convergence_tol = 0.0;
  config.min_source_support = 1;
  config.min_extractor_support = 1;
  config.num_false_override = 10;
  for (auto _ : state) {
    auto result = core::MultiLayerModel::Run(*matrix, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(matrix->num_slots()) *
                          state.range(0));
}
BENCHMARK(BM_MultiLayerIteration)->Arg(1)->Arg(5);

void BM_SplitAndMerge(benchmark::State& state) {
  const auto& synthetic = SharedSynthetic();
  granularity::SplitMergeOptions source_options;
  source_options.min_size = 3;
  source_options.max_size = 50;
  granularity::SplitMergeOptions extractor_options = source_options;
  for (auto _ : state) {
    auto assignment = granularity::SplitMergeAssignment(
        synthetic.data, source_options, extractor_options);
    benchmark::DoNotOptimize(assignment);
  }
}
BENCHMARK(BM_SplitAndMerge);

void BM_PageRank(benchmark::State& state) {
  std::vector<corpus::Website> sites(
      static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i].id = static_cast<uint32_t>(i);
    sites[i].popularity = 1.0 / static_cast<double>(i + 1);
  }
  Rng rng(5);
  const auto graph = corpus::LinkGraph::Generate(sites, 8.0, rng);
  for (auto _ : state) {
    auto rank = pagerank::ComputePageRank(graph);
    benchmark::DoNotOptimize(rank);
  }
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(10000);

}  // namespace

// Expanded BENCHMARK_MAIN(): defaults the native google-benchmark JSON
// report to BENCH_micro_kernels.json so the perf-trend tooling finds this
// bench's results next to the bench_json.h envelopes (its schema is
// google-benchmark's, not ours — documented in docs/OBSERVABILITY.md). An
// explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
