#include "dataflow/stage_timer.h"

#include "kbt/obs.h"

namespace kbt::dataflow {

void StageTimers::Add(const std::string& stage, double seconds) {
  // Forward every recorded stage into the process-wide dashboard so EM
  // per-iteration timings land beside the serving metrics. The handle is
  // resolved inside the instance map (one registry lookup per new stage
  // name), then recorded lock-free; cardinality is bounded by the fixed
  // stage vocabulary (Pipeline.* and the paper's I..IV stages).
  MutexLock lock(mutex_);
  Entry& e = entries_[stage];
  e.total_seconds += seconds;
  e.count += 1;
  if (obs::MetricsEnabled()) {
    if (e.histogram == nullptr) {
      e.histogram = obs::MetricsRegistry::Default().GetHistogram(
          "kbt_em_stage_seconds", {{"stage", stage}});
    }
    e.histogram->Record(seconds);
  }
}

double StageTimers::TotalSeconds(const std::string& stage) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(stage);
  return it == entries_.end() ? 0.0 : it->second.total_seconds;
}

int StageTimers::Count(const std::string& stage) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(stage);
  return it == entries_.end() ? 0 : it->second.count;
}

void StageTimers::Clear() {
  MutexLock lock(mutex_);
  entries_.clear();
}

}  // namespace kbt::dataflow
