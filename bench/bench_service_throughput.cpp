// Serving throughput: concurrent multi-session TrustService vs serial
// single-session serving.
//
// The paper's production setting is a serving problem: many consumers ask
// for trust estimates over many cubes while extraction events stream in.
// This bench replays identical mixed traffic (runs + appends, per-session
// FIFO) two ways:
//   serial_seconds      — one session at a time, direct Pipeline calls on
//                         one thread (the old one-batch-job-at-a-time model,
//                         serial stages);
//   concurrent_seconds  — every session registered on one TrustService and
//                         all requests submitted up front; sessions run
//                         concurrently AND each request's stages
//                         parallelize on the shared executor the service
//                         attaches to adopted pipelines.
// The ratio measures the served system as deployed against the batch
// model it replaces. Results land in BENCH_service.json for the
// perf-trend tooling.
//
// Usage: bench_service_throughput [--smoke]  (--smoke: tiny cubes for CI)
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "kbt/kbt.h"

namespace {

using namespace kbt;

struct Traffic {
  extract::RawDataset base;
  std::vector<std::vector<extract::RawObservation>> deltas;
};

/// Per-session traffic: a base cube plus `num_deltas` append batches carved
/// off its tail. The request sequence per session is
///   Run, Append x num_deltas, Run  =>  2 + num_deltas requests —
/// the appends land back to back, so the service can coalesce them into
/// one incremental patch while the first run is still executing.
Traffic MakeTraffic(uint64_t seed, bool smoke, size_t num_deltas) {
  exp::SyntheticConfig config;
  config.num_sources = smoke ? 25 : 120;
  config.num_extractors = smoke ? 4 : 6;
  config.num_subjects = smoke ? 20 : 40;
  config.num_predicates = smoke ? 5 : 6;
  config.seed = seed;
  Traffic traffic;
  traffic.base = exp::GenerateSynthetic(config).data;
  const size_t batch = smoke ? 32 : 256;
  for (size_t d = 0; d < num_deltas; ++d) {
    const size_t end = traffic.base.size() - d * batch;
    traffic.deltas.insert(
        traffic.deltas.begin(),
        {traffic.base.observations.begin() + static_cast<long>(end - batch),
         traffic.base.observations.begin() + static_cast<long>(end)});
  }
  traffic.base.observations.resize(traffic.base.size() -
                                   num_deltas * batch);
  return traffic;
}

api::Options ServingOptions() {
  api::Options options;
  options.granularity = api::Granularity::kFinest;
  options.multilayer.min_source_support = 1;
  options.multilayer.min_extractor_support = 1;
  options.multilayer.max_iterations = 10;
  return options;
}

StatusOr<api::Pipeline> BuildSession(const Traffic& traffic) {
  return api::PipelineBuilder()
      .FromDataset(extract::RawDataset(traffic.base))
      .WithOptions(ServingOptions())
      .Build();
}

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const size_t num_sessions = smoke ? 3 : 6;
  const size_t num_deltas = 2;
  const size_t requests_per_session = 2 + num_deltas;

  std::vector<Traffic> traffic;
  traffic.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    traffic.push_back(MakeTraffic(2015 + s, smoke, num_deltas));
  }

  // ---- Serial single-session serving: direct Pipeline calls ----
  // Sessions are constructed outside the timed span, mirroring the
  // concurrent pass (whose CreateSession calls precede its clock read): both
  // modes time request traffic only.
  std::vector<api::Pipeline> serial_pipelines;
  for (const Traffic& t : traffic) {
    auto pipeline = BuildSession(t);
    if (!pipeline.ok()) Die("serial build", pipeline.status());
    serial_pipelines.push_back(std::move(*pipeline));
  }
  const double serial_start = obs::MonotonicSeconds();
  std::vector<size_t> serial_final_sizes;
  for (size_t s = 0; s < num_sessions; ++s) {
    const Traffic& t = traffic[s];
    api::Pipeline& pipeline = serial_pipelines[s];
    auto report = pipeline.Run();
    if (!report.ok()) Die("serial run", report.status());
    for (const auto& delta : t.deltas) {
      const Status appended = pipeline.AppendObservations(delta);
      if (!appended.ok()) Die("serial append", appended);
    }
    report = pipeline.Run();
    if (!report.ok()) Die("serial re-run", report.status());
    serial_final_sizes.push_back(report->counts.num_observations);
  }
  const double serial_seconds = obs::MonotonicSeconds() - serial_start;

  // ---- Concurrent serving: one TrustService, shared executor ----
  dataflow::Executor executor;
  api::TrustService::ServiceOptions service_options;
  service_options.executor = &executor;
  api::TrustService service(service_options);
  for (size_t s = 0; s < num_sessions; ++s) {
    auto pipeline = BuildSession(traffic[s]);
    if (!pipeline.ok()) Die("service build", pipeline.status());
    const Status created = service.CreateSession(
        "session-" + std::to_string(s), std::move(*pipeline));
    if (!created.ok()) Die("create session", created);
  }

  const double concurrent_start = obs::MonotonicSeconds();
  std::vector<std::future<StatusOr<api::TrustReport>>> runs;
  std::vector<std::future<Status>> appends;
  for (size_t s = 0; s < num_sessions; ++s) {
    const std::string name = "session-" + std::to_string(s);
    runs.push_back(service.SubmitRun(name));
    for (const auto& delta : traffic[s].deltas) {
      appends.push_back(service.SubmitAppend(name, delta));
    }
    runs.push_back(service.SubmitRun(name));
  }
  for (auto& f : appends) {
    const Status status = f.get();
    if (!status.ok()) Die("served append", status);
  }
  size_t run_index = 0;
  for (size_t s = 0; s < num_sessions; ++s) {
    StatusOr<api::TrustReport> last = Status::Internal("no runs");
    for (size_t r = 0; r < 2; ++r) {
      last = runs[run_index++].get();
      if (!last.ok()) Die("served run", last.status());
    }
    // The served session saw exactly the traffic the serial pass did.
    if (last->counts.num_observations != serial_final_sizes[s]) {
      std::fprintf(stderr, "session %zu served %zu observations, serial saw "
                   "%zu\n", s, last->counts.num_observations,
                   serial_final_sizes[s]);
      return 1;
    }
  }
  const double concurrent_seconds = obs::MonotonicSeconds() - concurrent_start;

  const size_t total_requests = num_sessions * requests_per_session;
  const double serial_rps = static_cast<double>(total_requests) /
                            serial_seconds;
  const double concurrent_rps = static_cast<double>(total_requests) /
                                concurrent_seconds;
  const api::TrustService::Stats stats = service.stats();

  exp::PrintBanner("Service throughput: concurrent sessions vs serial");
  exp::TablePrinter table({"Mode", "Sessions", "Requests", "Seconds",
                           "Requests/s"});
  table.AddRow({"serial", std::to_string(num_sessions),
                std::to_string(total_requests),
                exp::TablePrinter::Fmt(serial_seconds),
                exp::TablePrinter::Fmt(serial_rps, 1)});
  table.AddRow({"concurrent", std::to_string(num_sessions),
                std::to_string(total_requests),
                exp::TablePrinter::Fmt(concurrent_seconds),
                exp::TablePrinter::Fmt(concurrent_rps, 1)});
  table.Print();
  // On a 1-core box the two passes interleave on the same core, so the
  // ratio measures scheduling overhead, not concurrency: label it so
  // nobody reads a ~1.0x "speedup" as a regression (or a win).
  const bool scaling_meaningful = std::thread::hardware_concurrency() >= 2;
  std::printf("\nspeedup %.2fx on %d threads; %zu of %zu appends coalesced\n",
              serial_seconds / concurrent_seconds, executor.num_threads(),
              stats.appends_coalesced, stats.appends_submitted);
  if (!scaling_meaningful) {
    std::printf(
        "NOTE: only %u hardware thread(s) — the speedup above is not a "
        "concurrency measurement\n",
        std::thread::hardware_concurrency());
  }

  // ---- Machine-readable output for the perf trajectory ----
  bench::BenchJsonWriter writer("service_throughput", smoke);
  writer.AddMetadata("num_sessions", static_cast<double>(num_sessions));
  writer.AddMetadata("requests_per_session",
                     static_cast<double>(requests_per_session));
  writer.AddMetadata("num_threads",
                     static_cast<double>(executor.num_threads()));
  writer.AddMetadata("hardware_threads",
                     static_cast<double>(std::thread::hardware_concurrency()));
  writer.AddMetadata("scaling_meaningful", scaling_meaningful);
  writer.AddMetric("serial_seconds", serial_seconds, "seconds");
  writer.AddMetric("concurrent_seconds", concurrent_seconds, "seconds");
  writer.AddMetric("serial_requests_per_second", serial_rps,
                   "ops_per_second");
  writer.AddMetric("concurrent_requests_per_second", concurrent_rps,
                   "ops_per_second");
  writer.AddMetric("speedup", serial_seconds / concurrent_seconds, "ratio");
  writer.AddMetric("appends_submitted",
                   static_cast<double>(stats.appends_submitted), "count");
  writer.AddMetric("appends_coalesced",
                   static_cast<double>(stats.appends_coalesced), "count");
  writer.AddMetric("append_batches_executed",
                   static_cast<double>(stats.append_batches_executed),
                   "count");
  return writer.WriteFile("BENCH_service.json") ? 0 : 1;
}
