#ifndef KBT_OBS_H_
#define KBT_OBS_H_

/// kbt::obs — the unified observability substrate: one process-wide
/// registry of lock-free counters, gauges and fixed-bucket latency
/// histograms that every layer (service, shards, stream ticks, EM
/// kernels, caches, the query read path) reports into, plus a
/// lightweight trace-span layer exportable to Chrome tracing / Perfetto.
///
///   // Metrics: register once (cheap mutex), record lock-free forever.
///   auto* hist = kbt::obs::MetricsRegistry::Default().GetHistogram(
///       "kbt_service_execute_seconds", {{"kind", "run"}});
///   { kbt::obs::ScopedTimer timer(hist);  DoWork(); }
///
///   // Tracing: scoped spans with implicit (or explicit) parent links.
///   { KBT_TRACE_SPAN("stream.tick");  Tick(); }
///   std::string json = kbt::obs::TraceRecorder::Default()
///                          .RenderChromeTrace();   // load in Perfetto
///
/// Three export surfaces: MetricsRegistry::Snapshot() (structured C++,
/// mergeable across shard/thread registries), RenderPrometheus() (text
/// exposition format) and RenderJson().
///
/// Contracts (pinned by tests/obs/):
///  * Determinism: observation-only. Nothing read from this layer feeds
///    back into inference — enabling or disabling obs never changes any
///    score bit (tests/obs/parity_test.cpp).
///  * Overhead: the KBT_OBS_* macro hooks and KBT_TRACE_SPAN cost one
///    relaxed atomic load + branch when the corresponding switch is off
///    (single-digit ns; measured by bench_soak's disabled-path
///    microbench). Enabled counters are one relaxed fetch_add.
///  * Thread safety: every metric object is safe for concurrent use from
///    any number of threads; all synchronization is relaxed atomics (no
///    fences on the hot path) plus a registration-time mutex.
///
/// Metric naming scheme (linted by scripts/lint_invariants.py, documented
/// in docs/OBSERVABILITY.md): kbt_<layer>_<name>_<unit> — counters end in
/// _total, histograms in _seconds/_bytes, gauges in a unit noun (_depth,
/// _ratio, _version, ...). Label cardinality must stay bounded (sessions,
/// shards, stages — never ids or triples).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kbt/sync.h"

namespace kbt::obs {

// ---------------------------------------------------------------------------
// Global switches
// ---------------------------------------------------------------------------

namespace internal {
/// Process-wide metric switch. Inline variable: one relaxed load to test,
/// no function-local-static guard on the hot path.
inline std::atomic<bool> g_metrics_enabled{true};
/// Process-wide tracing switch; tracing is opt-in (spans cost a clock read
/// and a ring push when on).
inline std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

/// Whether the KBT_OBS_* instrumentation macros record. Direct method
/// calls on metric objects (Counter::Increment etc.) are NOT gated — the
/// switch exists so instrumentation hooks can be compiled in everywhere
/// and turned off wholesale, while analysis code (e.g. the paper-figure
/// histograms) always records.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

/// Whether KBT_TRACE_SPAN records spans (off by default).
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}
inline void SetTracingEnabled(bool enabled) {
  internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

/// Monotonic (steady-clock) nanoseconds since an arbitrary epoch — the
/// one timing source of the observability layer. Implemented out of line
/// so the clock include stays out of this public header.
uint64_t MonotonicNanos();
inline double MonotonicSeconds() {
  return static_cast<double>(MonotonicNanos()) * 1e-9;
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonic event counter. Increment is one relaxed fetch_add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (queue depth, straggler ratio, registry version).
/// Set is a relaxed store; Add is a relaxed CAS loop (for +1/-1 depth
/// tracking from concurrent submitters).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-spaced latency bucket edges: 10^(1/4)-spaced from 1 ns to 1000 s
/// (50 buckets including the >= 1000 s catch-all). Quantiles estimated on
/// these edges are exact to within a factor of 10^(1/4) ~ 1.78 — tight
/// enough to tell a 10 us lookup from a 100 ms run.
std::vector<double> LatencyBucketEdges();

/// Generic log-spaced edges: `per_decade` edges per factor of 10 from
/// `lo` up to and including ~`hi` (both > 0).
std::vector<double> LogBucketEdges(double lo, double hi, int per_decade);

/// A plain-data histogram capture: what Snapshot() hands out and what
/// merging/quantile math runs on. Bucket i covers [edges[i], edges[i+1]);
/// the final bucket is the >= edges.back() catch-all; values below
/// edges.front() clamp into bucket 0.
struct HistogramSnapshot {
  std::vector<double> edges;
  /// One weight total per bucket (edges.size() buckets).
  std::vector<double> counts;
  /// Sum of weights / of value*weight over all Add calls.
  double total_weight = 0.0;
  double weighted_sum = 0.0;
  /// Number of Add calls (unweighted), and the observed value range.
  uint64_t samples = 0;
  double min_value = 0.0;
  double max_value = 0.0;

  /// Estimated value at quantile q in [0, 1]: linear interpolation inside
  /// the bucket holding the q-th weight, clamped to the observed
  /// [min_value, max_value]. q = 1 returns max_value exactly. 0 when
  /// empty.
  double Quantile(double q) const;
  double Mean() const {
    return total_weight > 0.0 ? weighted_sum / total_weight : 0.0;
  }
  /// Fraction of total weight in bucket i (0 when empty).
  double Fraction(size_t i) const;

  /// Accumulates `other` into this snapshot. The merge is exact at bucket
  /// resolution: merging two captures then estimating a quantile equals
  /// estimating it over the combined stream (pinned by
  /// tests/obs/histogram_test.cpp). Returns false (and leaves this
  /// snapshot untouched) when the edges differ.
  bool MergeFrom(const HistogramSnapshot& other);
};

/// Index of the bucket `value` falls into for `edges` (see
/// HistogramSnapshot for the bucket convention).
size_t BucketIndexFor(const std::vector<double>& edges, double value);
/// Human-readable label for bucket i, e.g. "[0.05,0.1)" or ">=1".
std::string BucketLabelFor(const std::vector<double>& edges, size_t i);

/// Fixed-bucket concurrent histogram: immutable edges chosen at
/// construction, per-bucket atomic weight accumulation, O(log buckets)
/// Add. Registered instances default to LatencyBucketEdges(); the paper's
/// figure histograms construct one from the edges in common/histogram.h.
class Histogram {
 public:
  /// `edges` must be strictly increasing with at least one entry (checked
  /// by assert).
  explicit Histogram(std::vector<double> edges);
  /// Copy is a (racy-snapshot) capture of the source's current values —
  /// for analysis-style use; registered metrics are never copied.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  /// Adds `weight` at `value`. Lock-free (relaxed CAS per touched word).
  void Add(double value, double weight = 1.0);
  /// Add with weight 1 — the latency-sample spelling.
  void Record(double value) { Add(value, 1.0); }

  /// Plain-data capture of the current state (each word read relaxed; a
  /// capture concurrent with writers is a consistent-enough observation,
  /// not a linearization point).
  HistogramSnapshot Snapshot() const;

  /// Resets all accumulation, keeping the edges.
  void Clear();

  // -- Direct accessors (relaxed reads) --
  size_t num_buckets() const { return counts_.size(); }
  size_t BucketIndex(double value) const {
    return BucketIndexFor(edges_, value);
  }
  double bucket_count(size_t i) const;
  double bucket_lower(size_t i) const { return edges_[i]; }
  /// Upper edge; the last bucket reports +inf.
  double bucket_upper(size_t i) const;
  double total_weight() const;
  double Fraction(size_t i) const;
  std::string BucketLabel(size_t i) const {
    return BucketLabelFor(edges_, i);
  }
  const std::vector<double>& edges() const { return edges_; }

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<double>> counts_;
  std::atomic<double> total_weight_{0.0};
  std::atomic<double> weighted_sum_{0.0};
  std::atomic<uint64_t> samples_{0};
  std::atomic<double> min_value_;
  std::atomic<double> max_value_;
};

/// RAII latency sample: records elapsed seconds into `histogram` on
/// destruction. Gated on MetricsEnabled() at construction (a disabled
/// timer never reads the clock); pass nullptr to no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(MetricsEnabled() ? histogram : nullptr),
        start_ns_(histogram_ != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(
          static_cast<double>(MonotonicNanos() - start_ns_) * 1e-9);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// (key, value) metric labels; registration sorts them, so label order
/// never distinguishes metrics.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// One metric's captured state inside a RegistrySnapshot.
struct MetricSnapshot {
  std::string name;
  Labels labels;  // sorted by key
  MetricType type = MetricType::kCounter;
  uint64_t counter_value = 0;
  double gauge_value = 0.0;
  HistogramSnapshot histogram;  // engaged for kHistogram only
};

/// A structured capture of a whole registry, ordered by (name, labels) so
/// renders are deterministic. Mergeable across shard/thread registries.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// The metric with this exact (name, sorted labels), or nullptr.
  const MetricSnapshot* Find(const std::string& name,
                             const Labels& labels = {}) const;

  /// Accumulates `other`: counters and histograms sum, gauges sum (the
  /// useful semantics for depth-style gauges aggregated across shards —
  /// document per-metric when a max would be truer). Metrics present only
  /// in `other` are adopted. Returns false on a type or bucket-edge
  /// conflict (conflicting entries are skipped, the rest still merge).
  bool MergeFrom(const RegistrySnapshot& other);

  /// Prometheus text exposition format (one # TYPE line per family;
  /// histograms as cumulative _bucket{le=...}/_sum/_count series).
  std::string RenderPrometheus() const;
  /// JSON dump: {"metrics": [{name, type, labels, ...}, ...]}; histograms
  /// carry count/sum/min/max/p50/p90/p99 plus per-bucket counts.
  std::string RenderJson() const;
};

/// Registry of named metrics with stable handle addresses: Get* registers
/// on first use (mutex) and returns the same lock-free object forever
/// after — call once, cache the pointer, record forever. One process-wide
/// Default() instance is the library's dashboard; per-component instances
/// (e.g. a bench's private registry, one registry per shard process) are
/// cheap and merge via RegistrySnapshot::MergeFrom.
class MetricsRegistry {
 public:
  // Out-of-line so entries_ can hold unique_ptrs to the incomplete Entry.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every library layer reports into.
  static MetricsRegistry& Default();

  /// Returns the metric registered under (name, labels), creating it on
  /// first use. The pointer stays valid for the registry's lifetime. A
  /// (name, labels) pair re-requested as a DIFFERENT type is a
  /// programming error: it logs once and returns a detached dummy (so
  /// callers never crash or corrupt the real metric).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// `edges` applies on first registration only (empty selects
  /// LatencyBucketEdges()); later calls return the existing histogram.
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          std::vector<double> edges = {});

  RegistrySnapshot Snapshot() const;
  std::string RenderPrometheus() const { return Snapshot().RenderPrometheus(); }
  std::string RenderJson() const { return Snapshot().RenderJson(); }

  /// Number of registered metrics (distinct (name, labels) pairs).
  size_t size() const;

  /// Zeroes every registered metric's value, keeping registrations and
  /// handle addresses valid. For tests and benches that reuse the
  /// process-wide registry.
  void ResetValues();

 private:
  struct Entry;
  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      MetricType type, std::vector<double>* edges);

  mutable Mutex mutex_;
  /// Keyed by name + serialized sorted labels; Entry addresses are stable
  /// (unique_ptr) so handles survive rehashing.
  std::vector<std::unique_ptr<Entry>> entries_ KBT_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// One completed span, as captured in a thread's ring buffer.
struct TraceEvent {
  std::string name;
  /// Process-unique span id (1, 2, ...) and the id of the enclosing span
  /// (0 = root). Parents are linked implicitly from the per-thread span
  /// stack, or explicitly via the TraceSpan(name, parent_id) constructor
  /// for cross-thread edges (e.g. a service request's queue hop).
  uint64_t id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  /// Small dense index of the recording thread (assigned at its first
  /// span), the "tid" of the Chrome-trace export.
  uint32_t thread_index = 0;
};

/// Collects completed spans into fixed-capacity per-thread ring buffers
/// (oldest spans overwritten on wrap) and exports them as Chrome-trace /
/// Perfetto JSON. Buffers outlive their threads, so a Snapshot after a
/// worker exits still sees its spans.
class TraceRecorder {
 public:
  static TraceRecorder& Default();

  /// Per-thread ring capacity for buffers created AFTER this call
  /// (existing rings keep their size). Default 8192 spans.
  void SetRingCapacity(size_t spans);

  /// Every retained span across all threads, in start-time order.
  std::vector<TraceEvent> Snapshot() const;
  /// Chrome trace-event JSON ({"traceEvents": [...]}) — load in
  /// chrome://tracing or https://ui.perfetto.dev.
  std::string RenderChromeTrace() const;
  /// Drops all retained spans (thread registrations survive).
  void Clear();
  /// Total spans recorded (monotonic, includes overwritten ones).
  uint64_t spans_recorded() const;

 private:
  friend class TraceSpan;
  struct Ring;
  TraceRecorder() = default;
  /// The calling thread's ring, registering it on first use.
  Ring* ThreadRing();

  mutable Mutex mutex_;
  std::vector<std::shared_ptr<Ring>> rings_ KBT_GUARDED_BY(mutex_);
  size_t ring_capacity_ KBT_GUARDED_BY(mutex_) = 8192;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> spans_recorded_{0};
};

/// Scoped RAII span recorded into the calling thread's ring on
/// destruction. Construction when tracing is off is one relaxed load + a
/// branch (no clock read, no allocation). Spans nest: a span started
/// while another is open on the same thread records it as parent.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  /// Explicit parent link (use TraceSpan::CurrentId() captured on another
  /// thread to stitch cross-thread request flows).
  TraceSpan(std::string_view name, uint64_t parent_id);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// This span's id (0 when tracing was off at construction).
  uint64_t id() const { return id_; }
  /// The innermost open span id on the calling thread (0 = none).
  static uint64_t CurrentId();

 private:
  std::string name_;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace kbt::obs

// ---------------------------------------------------------------------------
// Instrumentation macros — the hooks library code uses. All of them are
// one relaxed load + branch when the corresponding switch is off; see the
// overhead contract at the top of this header.
// ---------------------------------------------------------------------------

/// Increments `counter` (an obs::Counter*) by n (default 1).
#define KBT_OBS_INC(counter) \
  do {                                                        \
    if (::kbt::obs::MetricsEnabled()) (counter)->Increment(); \
  } while (0)
#define KBT_OBS_ADD(counter, n) \
  do {                                                          \
    if (::kbt::obs::MetricsEnabled()) (counter)->Increment(n);  \
  } while (0)
/// Sets / adjusts `gauge` (an obs::Gauge*).
#define KBT_OBS_GAUGE_SET(gauge, value) \
  do {                                                         \
    if (::kbt::obs::MetricsEnabled()) (gauge)->Set(value);     \
  } while (0)
#define KBT_OBS_GAUGE_ADD(gauge, delta) \
  do {                                                         \
    if (::kbt::obs::MetricsEnabled()) (gauge)->Add(delta);     \
  } while (0)
/// Records `value` into `histogram` (an obs::Histogram*).
#define KBT_OBS_RECORD(histogram, value) \
  do {                                                           \
    if (::kbt::obs::MetricsEnabled()) (histogram)->Record(value); \
  } while (0)

#define KBT_OBS_CONCAT_INNER_(a, b) a##b
#define KBT_OBS_CONCAT_(a, b) KBT_OBS_CONCAT_INNER_(a, b)
/// Opens a scoped trace span for the rest of the enclosing block.
#define KBT_TRACE_SPAN(name) \
  ::kbt::obs::TraceSpan KBT_OBS_CONCAT_(kbt_trace_span_, __LINE__)(name)
/// As KBT_TRACE_SPAN with an explicit parent span id (cross-thread links).
#define KBT_TRACE_SPAN_LINKED(name, parent_id)                    \
  ::kbt::obs::TraceSpan KBT_OBS_CONCAT_(kbt_trace_span_,          \
                                        __LINE__)(name, parent_id)

#endif  // KBT_OBS_H_
