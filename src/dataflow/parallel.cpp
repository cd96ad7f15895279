#include "dataflow/parallel.h"

#include <algorithm>
#include <atomic>
#include <vector>

namespace kbt::dataflow {

Executor::Executor(int num_threads)
    : pool_(std::make_unique<ThreadPool>(num_threads)) {}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForRanges(
      n,
      [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      },
      /*num_chunks=*/0);
}

void Executor::ParallelForRanges(
    size_t n, const std::function<void(size_t, size_t)>& fn, int num_chunks) {
  if (n == 0) return;
  size_t chunks = num_chunks > 0
                      ? static_cast<size_t>(num_chunks)
                      : static_cast<size_t>(pool_->num_threads()) * 4;
  chunks = std::min(chunks, n);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  const size_t chunk_size = (n + chunks - 1) / chunks;
  TaskGroup group(pool_.get());
  for (size_t begin = chunk_size; begin < n; begin += chunk_size) {
    const size_t end = std::min(begin + chunk_size, n);
    group.Submit([&fn, begin, end] { fn(begin, end); });
  }
  // The caller works the first chunk instead of idling, then joins (and
  // keeps helping with queued chunks while the group drains).
  fn(0, std::min(chunk_size, n));
  group.Wait();
}

void Executor::ParallelForGroups(size_t num_groups,
                                 const std::function<void(size_t)>& fn) {
  if (num_groups == 0) return;
  const size_t workers = std::min(
      num_groups, static_cast<size_t>(pool_->num_threads()));
  if (workers <= 1 || num_groups == 1) {
    for (size_t g = 0; g < num_groups; ++g) fn(g);
    return;
  }
  // One drain loop per worker, claiming groups one at a time off a shared
  // counter. This keeps the reducer-per-key scheduling grain — group sizes
  // stay invisible to the scheduler and a whale group still pins a worker
  // for its whole duration (the Table 7 "Normal" straggler) — without
  // allocating a queue task per group, which dominated wall clock on
  // group-heavy stages (one tiny tally per source at finest granularity).
  std::atomic<size_t> next{0};
  const auto drain = [&fn, &next, num_groups] {
    for (size_t g = next.fetch_add(1, std::memory_order_relaxed);
         g < num_groups;
         g = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(g);
    }
  };
  TaskGroup group(pool_.get());
  for (size_t w = 1; w < workers; ++w) {
    group.Submit(drain);
  }
  drain();
  group.Wait();
}

Executor& DefaultExecutor() {
  static Executor executor(0);
  return executor;
}

void ForRange(Executor* ex, size_t n,
              const std::function<void(size_t, size_t)>& fn) {
  if (ex != nullptr) {
    ex->ParallelForRanges(n, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

void ForGroups(Executor* ex, size_t n, const std::function<void(size_t)>& fn) {
  if (ex != nullptr) {
    ex->ParallelForGroups(n, fn);
  } else {
    for (size_t g = 0; g < n; ++g) fn(g);
  }
}

double BlockedSum(Executor* ex, size_t n,
                  const std::function<double(size_t, size_t)>& block_sum,
                  size_t block_size) {
  return BlockedSumPair(
             ex, n,
             [&block_sum](size_t begin, size_t end) {
               return std::pair<double, double>(block_sum(begin, end), 0.0);
             },
             block_size)
      .first;
}

std::pair<double, double> BlockedSumPair(
    Executor* ex, size_t n,
    const std::function<std::pair<double, double>(size_t, size_t)>& block_sums,
    size_t block_size) {
  if (n == 0) return {0.0, 0.0};
  block_size = std::max<size_t>(1, block_size);
  const size_t num_blocks = (n + block_size - 1) / block_size;
  std::vector<std::pair<double, double>> partial(num_blocks);
  const auto run_block = [&](size_t blk) {
    const size_t begin = blk * block_size;
    partial[blk] = block_sums(begin, std::min(n, begin + block_size));
  };
  if (ex != nullptr) {
    ex->ParallelFor(num_blocks, run_block);
  } else {
    for (size_t blk = 0; blk < num_blocks; ++blk) run_block(blk);
  }
  std::pair<double, double> total(0.0, 0.0);
  for (size_t blk = 0; blk < num_blocks; ++blk) {
    total.first += partial[blk].first;
    total.second += partial[blk].second;
  }
  return total;
}

}  // namespace kbt::dataflow
