// Shared helpers of the benchmark binary: the clock, layer timing with
// optional trace spans, bit-level digests of reports and snapshots, the
// fixed read-request mix, the open-loop event loop, and the raw-result
// JSON writer. Everything here calls only the public kbt/* API.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sched.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kbt/data.h"
#include "kbt/kbt.h"

namespace perfbench {

// ---- Clock ----

inline double Now() { return kbt::obs::MonotonicSeconds(); }

// ---- Command line ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string raw_out;
  std::string trace_out;
};

// ---- Raw result: samples, scalars and text, written as one JSON object ----

class RawResult {
 public:
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Scalar(const std::string& name, double value) {
    scalars_[name] = value;
  }
  void Text(const std::string& name, const std::string& value) {
    texts_[name] = value;
  }
  void Fail(const std::string& what) {
    errors_.push_back(what);
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }

  bool correct() const { return errors_.empty(); }
  const std::vector<double>* samples(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? nullptr : &it->second;
  }

  bool Write(const std::string& path) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::string> texts_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Layer timing ----

// Times one call into a layer. With tracing on, the same interval is also
// a kbt::obs trace span named after the layer (nested under whatever span
// is open on this thread), so the Perfetto trace and the per-layer numbers
// come from the same boundaries.
class LayerTimer {
 public:
  explicit LayerTimer(std::string layer) : start_(Now()) {
    if (kbt::obs::TracingEnabled()) {
      span_ = std::make_unique<kbt::obs::TraceSpan>(layer);
    }
  }
  ~LayerTimer() { Stop(); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

  // Ends the interval (once) and returns its length in seconds.
  double Stop() {
    if (!stopped_) {
      elapsed_ = Now() - start_;
      span_.reset();
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  double start_;
  double elapsed_ = 0.0;
  bool stopped_ = false;
  std::unique_ptr<kbt::obs::TraceSpan> span_;
};

// Seconds of a named pipeline stage in a report (0 when absent).
double StageSeconds(const kbt::api::TrustReport& report,
                    const std::string& stage);

// ---- Digests ----

// FNV-1a over raw bytes: equal digests mean bit-identical inputs.
class Digest {
 public:
  void Bytes(const void* data, size_t n);
  template <typename T>
  void Pod(const T& value) {
    Bytes(&value, sizeof(value));
  }
  template <typename T>
  void Vector(const std::vector<T>& values) {
    Pod(values.size());
    if (!values.empty()) Bytes(values.data(), values.size() * sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

uint64_t ReportDigest(const kbt::api::TrustReport& report);
uint64_t SnapshotDigest(const kbt::query::Snapshot& snapshot);
uint64_t MergedDigest(const kbt::query::MergedSnapshot& merged);
std::string Hex(uint64_t value);

// ---- Read requests ----

// The keys of one read request, the fixed mix every workload issues: four
// website lookups, two triple lookups that hit, two that miss, and one
// top-10 website ranking.
struct ReadKeys {
  uint32_t websites[4];
  std::pair<uint64_t, uint32_t> hits[2];
  std::pair<uint64_t, uint32_t> misses[2];
};

// Draws the keys of `n` read requests uniformly over every website and
// every published triple of `snapshots`, as bench_soak draws its sources.
// Keys are drawn before a request is timed, so the draw costs it nothing.
std::vector<ReadKeys> DrawReadKeys(
    const std::vector<const kbt::query::Snapshot*>& snapshots, size_t n,
    uint64_t seed);

template <typename View>
double ReadRequest(const View& view, const ReadKeys& keys) {
  double sum = 0.0;
  for (const uint32_t w : keys.websites) {
    if (const auto s = view.WebsiteTrust(w)) sum += s->kbt;
  }
  for (size_t k = 0; k < 2; ++k) {
    const auto& h = keys.hits[k];
    if (const auto t = view.TripleTruth(h.first, h.second)) {
      sum += t->probability;
    }
    const auto& m = keys.misses[k];
    if (const auto t = view.TripleTruth(m.first, m.second)) {
      sum += t->probability;
    }
  }
  for (const auto& top : view.TopKWebsites(10)) sum += top.kbt;
  return sum;
}

// ---- Open loop ----

// One scheduled event of an open loop: when it is due, and when the
// generator actually got to it.
struct Sent {
  double due = 0.0;
  double sent = 0.0;
};

// Fires event i at due[i] (seconds on `clock`), in order, never earlier.
// The schedule is fixed before the loop starts and never re-based, so a
// stall in one event makes every later event late, and a request timed
// from its due time is charged that lateness. `wait_until(t)` returns
// once the clock reads at least t; `fire(i, sent)` issues the event.
template <typename Clock, typename WaitUntil, typename Fire>
void RunOpenLoop(const std::vector<double>& due, Clock clock,
                 WaitUntil wait_until, Fire fire) {
  for (size_t i = 0; i < due.size(); ++i) {
    if (clock() < due[i]) wait_until(due[i]);
    fire(i, Sent{due[i], clock()});
  }
}

// Returns once the monotonic clock reaches `t`.
void WaitUntil(double t);

// ---- Process ----

int HardwareThreads();
// The process's peak resident set so far, in MB. Each workload reads it
// right after its measured loop, before its correctness replays, so the
// figure covers set-up and the loop but not the checker's own copies.
double PeakRssMb();
// Returns freed heap memory to the system, so that the peak resident set
// measures what the workload holds rather than what the allocator kept
// from earlier phases. Called between phases, outside timed regions.
void ReleaseFreeMemory();

// The CPUs this process may run on, split into the last one and the rest,
// so that an open-loop generator can have a CPU of its own: threads
// inherit their creator's CPU set, so everything started while the
// calling thread is limited to `rest` stays off `last`.
struct CpuSplit {
  cpu_set_t all;
  cpu_set_t rest;
  cpu_set_t last;
  bool ok = false;  // false with fewer than two CPUs
};
CpuSplit SplitCpus();
// Limits the calling thread to `cpus`.
void RunOn(const cpu_set_t& cpus);

// Writes the trace recorder's spans as Chrome/Perfetto JSON.
bool WriteTrace(const std::string& path);

// Workload entry points. Each fills `result` and returns normally; fatal
// setup errors are recorded with RawResult::Fail.
void RunBatch(const Args& args, RawResult* result);
void RunServe(const Args& args, RawResult* result);
void RunShard(const Args& args, RawResult* result);

// Unit checks of RunOpenLoop, run before every workload.
bool SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
