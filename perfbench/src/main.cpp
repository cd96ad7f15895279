// kbt_perfbench: runs one seeded workload against the KBT library and
// writes its raw samples (per-request latencies, per-layer times, counts,
// the run's context) as JSON for perfbench/run.py to summarise.
//
//   kbt_perfbench --workload batch_skewed|serve_open|shard_stream
//                 --seed N --seconds S --trace 0|1
//                 --work-dir DIR --raw-out FILE [--trace-out FILE]
//   kbt_perfbench --selftest
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::SelfTest() ? 0 : 1;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--raw-out") {
      args.raw_out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.raw_out.empty() || args.seconds <= 0.0) {
    std::fprintf(stderr, "--raw-out and a positive --seconds are required\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  perfbench::RawResult result;
  if (args.trace) {
    // What one span costs the thread that records it: the tracing overhead
    // of a traced run is its span count times this.
    auto& recorder = kbt::obs::TraceRecorder::Default();
    recorder.SetRingCapacity(1 << 16);
    kbt::obs::SetTracingEnabled(true);
    constexpr int kProbeSpans = 20000;
    const double start = perfbench::Now();
    for (int i = 0; i < kProbeSpans; ++i) {
      kbt::obs::TraceSpan span("perfbench.span_cost_probe");
    }
    result.Scalar("trace.span_cost_ns",
                  (perfbench::Now() - start) * 1e9 / kProbeSpans);
    kbt::obs::SetTracingEnabled(false);
    recorder.Clear();
  }
  result.Scalar("hardware_threads", perfbench::HardwareThreads());
  result.Scalar("seed", static_cast<double>(args.seed));
  result.Scalar("seconds", args.seconds);
  result.Text("workload", args.workload);
  if (args.workload == "batch_skewed") {
    perfbench::RunBatch(args, &result);
  } else if (args.workload == "serve_open") {
    perfbench::RunServe(args, &result);
  } else if (args.workload == "shard_stream") {
    perfbench::RunShard(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  kbt::obs::SetTracingEnabled(false);
  if (args.trace && !args.trace_out.empty() &&
      !perfbench::WriteTrace(args.trace_out)) {
    result.Fail("cannot write trace " + args.trace_out);
  }
  if (!result.Write(args.raw_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.raw_out.c_str());
    return 1;
  }
  return 0;
}
