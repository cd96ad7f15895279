#ifndef KBT_DATAFLOW_PARALLEL_H_
#define KBT_DATAFLOW_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/thread_pool.h"

namespace kbt::dataflow {

/// Shared-memory stand-in for the paper's FlumeJava/MapReduce substrate.
///
/// Two scheduling modes matter for reproducing Table 7:
///  * `ParallelFor` chunks an index range evenly across workers - the
///    best case with no data skew.
///  * `ParallelForGroups` schedules at GROUP grain (per source / per
///    extractor), mirroring a MapReduce reducer per key: workers claim one
///    group at a time, group sizes are invisible to the scheduler, and a
///    group is never split across workers. A group holding a hundred times
///    more triples than its peers becomes a straggler and dominates the
///    stage's wall clock - exactly the pathology SPLITANDMERGE (Section 4)
///    removes.
///
/// The parallel loops join through a scoped TaskGroup (never the pool-wide
/// barrier), and a joining caller donates its thread to the loop's own
/// remaining chunks, so the loops are *reentrant*: a task already running
/// on this executor can open another ParallelFor without deadlocking a
/// saturated pool. That is what lets one executor be shared between
/// api::TrustService's request loop and the parallel stages running inside
/// each request.
///
/// Beyond the loops, the executor exposes the underlying task interface:
/// `Submit` schedules one task and returns its result (and any exception)
/// through a std::future, and `pool()` hands out the ThreadPool for
/// building SerialQueues / TaskGroups on the same workers.
class Executor {
 public:
  /// `num_threads` <= 0 selects hardware concurrency.
  explicit Executor(int num_threads = 0);

  int num_threads() const { return pool_->num_threads(); }

  /// Runs `fn(i)` for every i in [0, n), chunked evenly. Blocks until done.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs `fn(begin, end)` over contiguous chunks covering [0, n).
  /// `num_chunks` <= 0 picks 4 chunks per worker. Blocks until done. The
  /// calling thread executes the first chunk itself.
  void ParallelForRanges(size_t n,
                         const std::function<void(size_t, size_t)>& fn,
                         int num_chunks = 0);

  /// Runs `fn(g)` for each group g in [0, num_groups). One drain loop per
  /// worker claims groups one at a time off a shared counter; a group is
  /// never split across workers. Blocks until done. Group sizes are
  /// invisible to the scheduler, so a skewed group serializes the stage
  /// (the Table 7 "Normal" column).
  void ParallelForGroups(size_t num_groups,
                         const std::function<void(size_t)>& fn);

  /// Schedules `fn` on the pool and returns a future for its result.
  /// Exceptions thrown by `fn` are rethrown from `future.get()`.
  template <typename F, typename R = std::invoke_result_t<F>>
  std::future<R> Submit(F fn) {
    return pool_->SubmitWithResult(std::move(fn));
  }

  /// The worker pool behind this executor, for layering per-key
  /// SerialQueues or explicit TaskGroups onto the same threads.
  ThreadPool& pool() { return *pool_; }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

/// Process-wide default executor (hardware concurrency), used when callers
/// do not supply their own.
Executor& DefaultExecutor();

/// Runs `fn(begin, end)` over chunks covering [0, n) on `ex`
/// (Executor::ParallelForRanges), or as the single range [0, n) on the
/// calling thread when `ex` is null. Nothing runs when n == 0.
void ForRange(Executor* ex, size_t n,
              const std::function<void(size_t, size_t)>& fn);

/// Runs `fn(g)` for each g in [0, n) on `ex` (Executor::ParallelForGroups),
/// or in ascending order on the calling thread when `ex` is null.
void ForGroups(Executor* ex, size_t n, const std::function<void(size_t)>& fn);

/// Fixed block size of BlockedSum. Part of its determinism contract: the
/// partial-sum boundaries never move, whatever the executor looks like.
inline constexpr size_t kBlockedSumBlock = 4096;

/// Deterministic chunked reduction: sum of `block_sum(begin, end)` over
/// fixed `block_size`-wide blocks covering [0, n). The per-block partials
/// are computed in parallel on `ex` (serially when null) but ALWAYS stored
/// per block and combined sequentially in block order, so the result is
/// bit-for-bit identical for every thread count and every ParallelFor
/// chunking — the summation tree depends only on n and block_size. The
/// callback must itself be deterministic over its range.
double BlockedSum(Executor* ex, size_t n,
                  const std::function<double(size_t, size_t)>& block_sum,
                  size_t block_size = kBlockedSumBlock);

/// BlockedSum of two accumulators in one pass: `block_sums(begin, end)`
/// returns both partials of a block, and each accumulator is combined
/// exactly as BlockedSum combines its one (BlockedSum is this function with
/// the second partial unused), so `.first` is bit-identical to BlockedSum
/// over the same first partials.
std::pair<double, double> BlockedSumPair(
    Executor* ex, size_t n,
    const std::function<std::pair<double, double>(size_t, size_t)>& block_sums,
    size_t block_size = kBlockedSumBlock);

}  // namespace kbt::dataflow

#endif  // KBT_DATAFLOW_PARALLEL_H_
