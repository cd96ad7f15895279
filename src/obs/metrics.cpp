#include "kbt/obs.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace kbt::obs {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Bucket edges
// ---------------------------------------------------------------------------

std::vector<double> LogBucketEdges(double lo, double hi, int per_decade) {
  std::vector<double> edges;
  if (!(lo > 0.0) || !(hi > lo) || per_decade <= 0) return edges;
  // Regenerate each edge from the exponent instead of multiplying up, so
  // the edges are bit-identical regardless of how many precede them.
  const double log_lo = std::log10(lo);
  for (int k = 0;; ++k) {
    const double edge =
        std::pow(10.0, log_lo + static_cast<double>(k) / per_decade);
    edges.push_back(edge);
    if (edge >= hi * (1.0 - 1e-12)) break;
  }
  return edges;
}

std::vector<double> LatencyBucketEdges() {
  // 1 ns .. 1000 s, four buckets per decade: quantile estimates are exact
  // to within 10^(1/4) ~ 1.78x anywhere in the 12-decade span.
  return LogBucketEdges(1e-9, 1e3, 4);
}

size_t BucketIndexFor(const std::vector<double>& edges, double value) {
  // Bucket i covers [edges[i], edges[i+1]); the final bucket catches
  // >= edges.back(); values below edges.front() clamp into bucket 0.
  auto it = std::upper_bound(edges.begin(), edges.end(), value);
  if (it == edges.begin()) return 0;
  return static_cast<size_t>(std::distance(edges.begin(), it)) - 1;
}

namespace {

/// Formats a double compactly and deterministically: integers (within the
/// exactly-representable range) print without a fraction, everything else
/// as shortest %.9g. Shared by the Prometheus and JSON renderers so golden
/// files stay stable.
std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string BucketLabelFor(const std::vector<double>& edges, size_t i) {
  if (i + 1 >= edges.size()) {
    return ">=" + FormatNumber(edges.back());
  }
  return "[" + FormatNumber(edges[i]) + "," + FormatNumber(edges[i + 1]) +
         ")";
}

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

double HistogramSnapshot::Fraction(size_t i) const {
  if (total_weight <= 0.0 || i >= counts.size()) return 0.0;
  return counts[i] / total_weight;
}

double HistogramSnapshot::Quantile(double q) const {
  if (samples == 0 || total_weight <= 0.0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return max_value;
  const double target = q * total_weight;
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0.0) continue;
    if (cumulative + counts[i] >= target) {
      const double lower = edges[i];
      // The open-ended final bucket has no upper edge: use the observed
      // maximum as its extent (exact when all its mass is one value).
      const double upper =
          (i + 1 < edges.size()) ? edges[i + 1] : std::max(max_value, lower);
      const double within =
          counts[i] > 0.0 ? (target - cumulative) / counts[i] : 0.0;
      const double estimate = lower + (upper - lower) * within;
      // Never estimate outside the observed range.
      return std::clamp(estimate, min_value, max_value);
    }
    cumulative += counts[i];
  }
  return max_value;
}

bool HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (edges != other.edges || counts.size() != other.counts.size()) {
    return false;
  }
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total_weight += other.total_weight;
  weighted_sum += other.weighted_sum;
  if (other.samples > 0) {
    min_value = samples > 0 ? std::min(min_value, other.min_value)
                            : other.min_value;
    max_value = samples > 0 ? std::max(max_value, other.max_value)
                            : other.max_value;
  }
  samples += other.samples;
  return true;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

void AtomicAddDouble(std::atomic<double>& slot, double delta) {
  double current = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value < current && !slot.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value > current && !slot.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)),
      counts_(edges_.size()),
      min_value_(std::numeric_limits<double>::infinity()),
      max_value_(-std::numeric_limits<double>::infinity()) {
  assert(!edges_.empty());
  for (size_t i = 1; i < edges_.size(); ++i) {
    assert(edges_[i] > edges_[i - 1]);
  }
  for (auto& c : counts_) c.store(0.0, std::memory_order_relaxed);
}

Histogram::Histogram(const Histogram& other) : Histogram(other.edges_) {
  *this = other;
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  // Racy-snapshot copy: each word read relaxed. Copies are an
  // analysis-time convenience; registered metrics are never copied.
  edges_ = other.edges_;
  std::vector<std::atomic<double>> counts(edges_.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i].store(other.counts_[i].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  counts_ = std::move(counts);
  total_weight_.store(other.total_weight_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  weighted_sum_.store(other.weighted_sum_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  samples_.store(other.samples_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  min_value_.store(other.min_value_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  max_value_.store(other.max_value_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

void Histogram::Add(double value, double weight) {
  const size_t bucket = BucketIndexFor(edges_, value);
  AtomicAddDouble(counts_[bucket], weight);
  AtomicAddDouble(total_weight_, weight);
  AtomicAddDouble(weighted_sum_, value * weight);
  samples_.fetch_add(1, std::memory_order_relaxed);
  AtomicMinDouble(min_value_, value);
  AtomicMaxDouble(max_value_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.edges = edges_;
  snap.counts.resize(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.total_weight = total_weight_.load(std::memory_order_relaxed);
  snap.weighted_sum = weighted_sum_.load(std::memory_order_relaxed);
  snap.samples = samples_.load(std::memory_order_relaxed);
  if (snap.samples > 0) {
    snap.min_value = min_value_.load(std::memory_order_relaxed);
    snap.max_value = max_value_.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::Clear() {
  for (auto& c : counts_) c.store(0.0, std::memory_order_relaxed);
  total_weight_.store(0.0, std::memory_order_relaxed);
  weighted_sum_.store(0.0, std::memory_order_relaxed);
  samples_.store(0, std::memory_order_relaxed);
  min_value_.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
  max_value_.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
}

double Histogram::bucket_count(size_t i) const {
  return i < counts_.size() ? counts_[i].load(std::memory_order_relaxed)
                            : 0.0;
}

double Histogram::bucket_upper(size_t i) const {
  return i + 1 < edges_.size() ? edges_[i + 1]
                               : std::numeric_limits<double>::infinity();
}

double Histogram::total_weight() const {
  return total_weight_.load(std::memory_order_relaxed);
}

double Histogram::Fraction(size_t i) const {
  const double total = total_weight();
  if (total <= 0.0) return 0.0;
  return bucket_count(i) / total;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string LabelKey(const Labels& sorted) {
  std::string key;
  for (const auto& [k, v] : sorted) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

struct MetricsRegistry::Entry {
  std::string name;
  Labels labels;  // sorted
  std::string label_key;
  MetricType type;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, const Labels& labels, MetricType type,
    std::vector<double>* edges) {
  Labels sorted = SortedLabels(labels);
  const std::string label_key = LabelKey(sorted);
  MutexLock lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->label_key == label_key) {
      if (entry->type != type) {
        // Programming error; never crash the host over a metric.
        std::fprintf(stderr,
                     "kbt::obs: metric '%s' requested as %s but registered "
                     "as %s; returning a detached dummy\n",
                     name.c_str(), TypeName(type), TypeName(entry->type));
        return nullptr;
      }
      return entry.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = std::move(sorted);
  entry->label_key = label_key;
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<Histogram>(
          (edges != nullptr && !edges->empty()) ? std::move(*edges)
                                                : LatencyBucketEdges());
      break;
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  Entry* entry = FindOrCreate(name, labels, MetricType::kCounter, nullptr);
  if (entry != nullptr) return entry->counter.get();
  static Counter* dummy = new Counter();  // detached type-mismatch sink
  return dummy;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  Entry* entry = FindOrCreate(name, labels, MetricType::kGauge, nullptr);
  if (entry != nullptr) return entry->gauge.get();
  static Gauge* dummy = new Gauge();
  return dummy;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         std::vector<double> edges) {
  Entry* entry = FindOrCreate(name, labels, MetricType::kHistogram, &edges);
  if (entry != nullptr) return entry->histogram.get();
  static Histogram* dummy = new Histogram(LatencyBucketEdges());
  return dummy;
}

size_t MetricsRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::ResetValues() {
  MutexLock lock(mutex_);
  for (const auto& entry : entries_) {
    switch (entry->type) {
      case MetricType::kCounter:
        entry->counter->Reset();
        break;
      case MetricType::kGauge:
        entry->gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry->histogram->Clear();
        break;
    }
  }
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  {
    MutexLock lock(mutex_);
    snap.metrics.reserve(entries_.size());
    for (const auto& entry : entries_) {
      MetricSnapshot m;
      m.name = entry->name;
      m.labels = entry->labels;
      m.type = entry->type;
      switch (entry->type) {
        case MetricType::kCounter:
          m.counter_value = entry->counter->Value();
          break;
        case MetricType::kGauge:
          m.gauge_value = entry->gauge->Value();
          break;
        case MetricType::kHistogram:
          m.histogram = entry->histogram->Snapshot();
          break;
      }
      snap.metrics.push_back(std::move(m));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

// ---------------------------------------------------------------------------
// RegistrySnapshot
// ---------------------------------------------------------------------------

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const Labels& labels) const {
  const Labels sorted = SortedLabels(labels);
  for (const auto& m : metrics) {
    if (m.name == name && m.labels == sorted) return &m;
  }
  return nullptr;
}

bool RegistrySnapshot::MergeFrom(const RegistrySnapshot& other) {
  bool ok = true;
  for (const auto& theirs : other.metrics) {
    MetricSnapshot* mine = nullptr;
    for (auto& m : metrics) {
      if (m.name == theirs.name && m.labels == theirs.labels) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      metrics.push_back(theirs);
      continue;
    }
    if (mine->type != theirs.type) {
      ok = false;
      continue;
    }
    switch (mine->type) {
      case MetricType::kCounter:
        mine->counter_value += theirs.counter_value;
        break;
      case MetricType::kGauge:
        mine->gauge_value += theirs.gauge_value;
        break;
      case MetricType::kHistogram:
        ok = mine->histogram.MergeFrom(theirs.histogram) && ok;
        break;
    }
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return ok;
}

namespace {

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders {k="v",...} including the braces; empty labels render nothing.
/// `extra` appends one preformatted pair (the histogram le= bound).
std::string PromLabelBlock(const Labels& labels,
                           const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string RegistrySnapshot::RenderPrometheus() const {
  std::string out;
  std::string last_family;
  for (const auto& m : metrics) {
    if (m.name != last_family) {
      out += "# TYPE " + m.name + " " + TypeName(m.type) + "\n";
      last_family = m.name;
    }
    switch (m.type) {
      case MetricType::kCounter:
        out += m.name + PromLabelBlock(m.labels) + " " +
               FormatNumber(static_cast<double>(m.counter_value)) + "\n";
        break;
      case MetricType::kGauge:
        out += m.name + PromLabelBlock(m.labels) + " " +
               FormatNumber(m.gauge_value) + "\n";
        break;
      case MetricType::kHistogram: {
        // Prometheus histograms are cumulative with an upper-bound label:
        // bucket i's le is edges[i+1]; the catch-all is le="+Inf".
        double cumulative = 0.0;
        for (size_t i = 0; i < m.histogram.counts.size(); ++i) {
          cumulative += m.histogram.counts[i];
          const std::string le =
              (i + 1 < m.histogram.edges.size())
                  ? FormatNumber(m.histogram.edges[i + 1])
                  : "+Inf";
          out += m.name + "_bucket" +
                 PromLabelBlock(m.labels, "le=\"" + le + "\"") + " " +
                 FormatNumber(cumulative) + "\n";
        }
        out += m.name + "_sum" + PromLabelBlock(m.labels) + " " +
               FormatNumber(m.histogram.weighted_sum) + "\n";
        out += m.name + "_count" + PromLabelBlock(m.labels) + " " +
               FormatNumber(m.histogram.total_weight) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string RegistrySnapshot::RenderJson() const {
  std::ostringstream out;
  out << "{\n  \"metrics\": [";
  bool first_metric = true;
  for (const auto& m : metrics) {
    out << (first_metric ? "\n" : ",\n");
    first_metric = false;
    out << "    {\"name\": \"" << EscapeJson(m.name) << "\", \"type\": \""
        << TypeName(m.type) << "\", \"labels\": {";
    bool first_label = true;
    for (const auto& [k, v] : m.labels) {
      if (!first_label) out << ", ";
      first_label = false;
      out << "\"" << EscapeJson(k) << "\": \"" << EscapeJson(v) << "\"";
    }
    out << "}";
    switch (m.type) {
      case MetricType::kCounter:
        out << ", \"value\": "
            << FormatNumber(static_cast<double>(m.counter_value));
        break;
      case MetricType::kGauge:
        out << ", \"value\": " << FormatNumber(m.gauge_value);
        break;
      case MetricType::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        out << ", \"count\": " << FormatNumber(h.total_weight)
            << ", \"samples\": "
            << FormatNumber(static_cast<double>(h.samples))
            << ", \"sum\": " << FormatNumber(h.weighted_sum);
        if (h.samples > 0) {
          out << ", \"min\": " << FormatNumber(h.min_value)
              << ", \"max\": " << FormatNumber(h.max_value)
              << ", \"p50\": " << FormatNumber(h.Quantile(0.50))
              << ", \"p90\": " << FormatNumber(h.Quantile(0.90))
              << ", \"p99\": " << FormatNumber(h.Quantile(0.99));
        }
        out << ", \"buckets\": [";
        bool first_bucket = true;
        for (size_t i = 0; i < h.counts.size(); ++i) {
          if (h.counts[i] <= 0.0) continue;  // sparse: skip empty buckets
          if (!first_bucket) out << ", ";
          first_bucket = false;
          const std::string le = (i + 1 < h.edges.size())
                                     ? FormatNumber(h.edges[i + 1])
                                     : "\"+Inf\"";
          out << "{\"le\": " << le
              << ", \"count\": " << FormatNumber(h.counts[i]) << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace kbt::obs
