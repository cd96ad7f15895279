#include "util.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <thread>

#include <malloc.h>
#include <pthread.h>

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool RawResult::Write(const std::string& path) const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors_[i]);
  }
  out += "], \"scalars\": {";
  bool first = true;
  for (const auto& [name, value] : scalars_) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  out += "}, \"texts\": {";
  first = true;
  for (const auto& [name, value] : texts_) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonString(value);
    first = false;
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [name, values] : samples_) {
    out += (first ? "\n" : ",\n") + JsonString(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(values[i]);
    }
    out += "]";
    first = false;
  }
  out += "}}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

double StageSeconds(const kbt::api::TrustReport& report,
                    const std::string& stage) {
  for (const auto& [name, seconds] : report.stage_seconds) {
    if (name == stage) return seconds;
  }
  return 0.0;
}

void Digest::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;
  }
}

uint64_t ReportDigest(const kbt::api::TrustReport& report) {
  Digest d;
  const kbt::core::MultiLayerResult& r = report.inference;
  d.Vector(r.source_accuracy);
  d.Vector(r.extractor_precision);
  d.Vector(r.extractor_recall);
  d.Vector(r.extractor_q);
  d.Vector(r.slot_correct_prob);
  d.Vector(r.slot_value_prob);
  d.Vector(r.slot_alpha);
  d.Vector(r.item_unobserved_value_prob);
  d.Pod(r.iterations);
  for (const auto& s : report.website_kbt) {
    d.Pod(s.kbt);
    d.Pod(s.evidence);
  }
  for (const auto& s : report.source_kbt) {
    d.Pod(s.kbt);
    d.Pod(s.evidence);
  }
  for (const auto& p : report.predictions) {
    d.Pod(p.item);
    d.Pod(p.value);
    d.Pod(p.probability);
  }
  return d.value();
}

namespace {

void DigestTrust(Digest* d, const std::optional<kbt::query::SourceTrust>& s) {
  d->Pod(s.has_value());
  if (s) {
    d->Pod(s->id);
    d->Pod(s->kbt);
    d->Pod(s->evidence);
    d->Pod(s->scored);
  }
}

}  // namespace

uint64_t SnapshotDigest(const kbt::query::Snapshot& snapshot) {
  Digest d;
  for (uint32_t s = 0; s < snapshot.num_sources(); ++s) {
    DigestTrust(&d, snapshot.SourceTrust(s));
  }
  for (uint32_t w = 0; w < snapshot.num_websites(); ++w) {
    DigestTrust(&d, snapshot.WebsiteTrust(w));
  }
  for (const auto& t : snapshot.TopKTriples(snapshot.num_triples())) {
    d.Pod(t.item);
    d.Pod(t.value);
    d.Pod(t.probability);
    d.Pod(t.covered);
  }
  return d.value();
}

uint64_t MergedDigest(const kbt::query::MergedSnapshot& merged) {
  Digest d;
  for (uint32_t i = 0; i < merged.num_shards(); ++i) {
    const kbt::query::Snapshot* shard = merged.shard(i);
    d.Pod(shard == nullptr ? uint64_t{0} : SnapshotDigest(*shard));
  }
  return d.value();
}

std::string Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::vector<ReadKeys> DrawReadKeys(
    const std::vector<const kbt::query::Snapshot*>& snapshots, size_t n,
    uint64_t seed) {
  uint32_t num_websites = 1;
  std::vector<std::pair<uint64_t, uint32_t>> triples;
  for (const kbt::query::Snapshot* snapshot : snapshots) {
    num_websites = std::max<uint32_t>(
        num_websites, static_cast<uint32_t>(snapshot->num_websites()));
    for (const auto& t : snapshot->TopKTriples(snapshot->num_triples())) {
      triples.emplace_back(t.item, t.value);
    }
  }
  if (triples.empty()) triples.emplace_back(0, 0);
  std::mt19937_64 rng(seed ^ 0x5eadbeefULL);
  std::uniform_int_distribution<uint32_t> website(0, num_websites - 1);
  std::uniform_int_distribution<size_t> triple(0, triples.size() - 1);
  std::vector<ReadKeys> keys(n);
  for (ReadKeys& k : keys) {
    for (uint32_t& w : k.websites) w = website(rng);
    for (size_t j = 0; j < 2; ++j) {
      k.hits[j] = triples[triple(rng)];
      // A value id no extractor ever emits: the lookup misses.
      k.misses[j] = {triples[triple(rng)].first,
                     0x7ffffff0u + static_cast<uint32_t>(rng() % 8)};
    }
  }
  return keys;
}

void WaitUntil(double t) {
  // Sleep while more than two milliseconds remain, then spin without
  // entering the kernel, so the waiting thread keeps its caches warm and
  // wakes on time.
  const double remaining = t - Now();
  if (remaining > 2e-3) {
    std::this_thread::sleep_for(std::chrono::duration<double>(remaining - 1e-3));
  }
  while (Now() < t) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

int HardwareThreads() {
  // The CPUs this process may use, which a container can limit below what
  // the machine has.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0 && CPU_COUNT(&cpus) > 0) {
    return CPU_COUNT(&cpus);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

CpuSplit SplitCpus() {
  CpuSplit split;
  CPU_ZERO(&split.all);
  CPU_ZERO(&split.rest);
  CPU_ZERO(&split.last);
  if (sched_getaffinity(0, sizeof(split.all), &split.all) != 0) return split;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &split.all)) last = cpu;
  }
  if (last < 0 || CPU_COUNT(&split.all) < 2) return split;
  split.rest = split.all;
  CPU_CLR(last, &split.rest);
  CPU_SET(last, &split.last);
  split.ok = true;
  return split;
}

void RunOn(const cpu_set_t& cpus) {
  pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus);
}

void ReleaseFreeMemory() { malloc_trim(0); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool WriteTrace(const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << kbt::obs::TraceRecorder::Default().RenderChromeTrace();
  return static_cast<bool>(file);
}

bool SelfTest() {
  // A fake clock: every event takes 1 ms, except event 3, which stalls
  // for 50 ms. Events are due every 10 ms.
  double clock = 0.0;
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(0.010 * i);
  std::vector<double> latency(due.size(), 0.0);
  RunOpenLoop(
      due, [&] { return clock; }, [&](double t) { clock = t; },
      [&](size_t i, Sent sent) {
        clock += (i == 3) ? 0.050 : 0.001;
        latency[i] = clock - sent.due;
      });
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ok = false;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  expect(near(latency[2], 0.001), "an on-time event costs only its own time");
  expect(near(latency[3], 0.050), "the stalled event costs its stall");
  // Event 4 was due at 40 ms but could only start at 80 ms.
  expect(near(latency[4], 0.041), "the stall's lateness is charged onward");
  expect(latency[5] > 0.001 + 1e-9, "lateness persists until absorbed");
  expect(near(latency[9], 0.001), "the backlog drains on schedule");
  return ok;
}

}  // namespace perfbench
