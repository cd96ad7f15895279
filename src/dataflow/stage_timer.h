#ifndef KBT_DATAFLOW_STAGE_TIMER_H_
#define KBT_DATAFLOW_STAGE_TIMER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/mutex.h"
#include "kbt/obs.h"

namespace kbt::dataflow {

/// Accumulates wall-clock time per named pipeline stage. The Table 7
/// reproduction reads stage totals for "Prep.Source", "Prep.Extractor",
/// "I.ExtCorr", "II.TriplePr", "III.SrcAccu", "IV.ExtQuality". Every Add
/// also records into the obs histogram kbt_em_stage_seconds{stage=...}.
class StageTimers {
 public:
  StageTimers() = default;
  StageTimers(const StageTimers&) = delete;
  StageTimers& operator=(const StageTimers&) = delete;

  /// Adds `seconds` to `stage`'s total and bumps its invocation count.
  void Add(const std::string& stage, double seconds);

  /// Total seconds accumulated for `stage` (0 when unknown).
  double TotalSeconds(const std::string& stage) const;

  /// Invocations recorded for `stage`.
  int Count(const std::string& stage) const;

  void Clear();

  /// RAII scope: records the obs::MonotonicNanos() time elapsed until
  /// destruction into `timers` under `stage`. A null `timers` makes the
  /// scope a no-op that never reads the clock, so callers time a stage
  /// with one line whether or not a run collects timings. `stage` must
  /// outlive the scope (a string literal).
  class Scope {
   public:
    Scope(StageTimers* timers, const char* stage)
        : timers_(timers),
          stage_(stage),
          start_ns_(timers != nullptr ? obs::MonotonicNanos() : 0) {}
    ~Scope() {
      if (timers_ != nullptr) {
        timers_->Add(stage_, static_cast<double>(obs::MonotonicNanos() -
                                                 start_ns_) * 1e-9);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageTimers* timers_;
    const char* stage_;
    uint64_t start_ns_;
  };

 private:
  struct Entry {
    double total_seconds = 0.0;
    int count = 0;
    /// Cached kbt_em_stage_seconds{stage=...} handle on the process-wide
    /// obs registry (resolved on first Add, null until then).
    obs::Histogram* histogram = nullptr;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ KBT_GUARDED_BY(mutex_);
};

}  // namespace kbt::dataflow

#endif  // KBT_DATAFLOW_STAGE_TIMER_H_
