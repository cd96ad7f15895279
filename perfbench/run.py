#!/usr/bin/env python3
"""The repository benchmark: builds the KBT library and the benchmark
benchmark binary from source, runs one seeded workload, checks its outputs, and
prints every metric by name and unit.

    python3 perfbench/run.py --workload batch_skewed --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics and writes a
Perfetto-loadable trace. --workload all runs every workload in turn. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full result, with the run's context,
lands in <build dir>/results/. Build output, inputs and traces stay in the
build directory (CARGO_TARGET_DIR when set, else .bench_build).
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_skewed", "serve_open", "shard_stream")
RUN_TIMEOUT_S = 170
# Lookups one read request makes (see ReadRequest in src/util.h).
LOOKUPS_PER_READ = 9
# The serve_open latency limit at its stated rates (see BENCHMARK.md).
SERVE_LIMIT = {"query_tail_us": 50.0, "append_tail_ms": 500.0,
               "fresh_tail_ms": 1000.0}
# Per-update layer samples that together make up the update time.
LAYER_PARTS = ("io.read_s", "io.fingerprint_s", "api.build_s",
               "granularity.assign_s", "extract.update_s", "core.em_s",
               "eval.score_s", "api.run_other_s", "query.publish_s",
               "query.diff_s", "api.unattributed_s")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(out):
    """Configures and builds kbt_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no KBT sources beside perfbench/ to build")
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as build_log:
            for cmd in (["cmake", "-S", HERE, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"],
                        ["cmake", "--build", cmake_dir, "--target",
                         "kbt_perfbench", "-j", str(os.cpu_count() or 1)]):
                done = subprocess.run(cmd, stdout=build_log,
                                      stderr=subprocess.STDOUT, cwd=ROOT)
                if done.returncode != 0:
                    with open(log_path) as f:
                        log(f.read()[-4000:])
                    raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "kbt_perfbench")


def source_digest():
    """sha256 over the library sources and the benchmark, so results from
    checkouts without git history can still be matched to code."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as data:
                h.update(data.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or None if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def metric_value(raw, name):
    """A per-layer value: the median of its per-update samples, or the
    scalar kbt_perfbench recorded, or 0 when the workload has no such layer."""
    if name == "trace.overhead_frac":
        s = raw["scalars"]
        return (s.get("trace.spans", 0) * s.get("trace.span_cost_ns", 0)
                * 1e-9 / s["seconds"])
    if raw["samples"].get(name):
        return stats.median(raw["samples"][name])
    return raw["scalars"].get(name, 0.0)


def end_to_end(raw):
    """The end-to-end metrics of one run, keyed by BENCHMARK.json name."""
    samples = raw["samples"]
    return {
        "setup_s": stats.median(samples["setup_s"]),
        "peak_rss_mb": raw["scalars"]["peak_rss_mb"],
        "update_p50_ms": stats.median(samples["update_s"]) * 1e3,
    }


def layer_check(workload, seed, raw, out, digest):
    """For a traced run, for information only (it never fails a run): the
    per-update sum of the layer times against the traced update time, and
    the traced update time against the latest untraced run of the same
    workload, seed and source digest (the tracing overhead; n/a without
    such a run). The first pair agrees by construction, since
    api.unattributed_s is the remainder."""
    samples = raw["samples"]
    parts = [samples[p] for p in LAYER_PARTS if samples.get(p)]
    n = min(len(p) for p in parts)
    check = {
        "layer_sum_p50_ms": stats.median(
            [sum(p[i] for p in parts) for i in range(n)]) * 1e3,
        "traced_update_p50_ms": stats.median(samples["update_s"]) * 1e3,
        "untraced_update_p50_ms": None,
        "tracing_overhead_ms": None,
    }
    results = os.path.join(out, "results")
    prefix = f"{workload}-s{seed}-t0-"
    for name in sorted((f for f in os.listdir(results)
                        if f.startswith(prefix)), reverse=True):
        with open(os.path.join(results, name)) as f:
            base = json.load(f)
        if base["context"]["source_digest"] != digest:
            continue
        value = base["metrics"]["update_p50_ms"]["value"]
        check["untraced_update_p50_ms"] = value
        check["tracing_overhead_ms"] = check["traced_update_p50_ms"] - value
        break
    return check


def workload_metrics(workload, raw):
    """The same run under the names that fit its workload: batch job
    times, service latencies by request class, stream tick times."""
    samples, scalars = raw["samples"], raw["scalars"]
    d = {k: stats.describe(v) for k, v in samples.items() if v}
    out = {
        "setup_s": (d["setup_s"]["median"], "s"),
        "peak_rss_mb": (scalars["peak_rss_mb"], "MB"),
        "fail_frac": (raw["failed"] / max(1, raw["attempted"]), "frac"),
    }
    if workload == "batch_skewed":
        out["batch_run_s"] = (d["update_s"]["median"], "s")
        out["batch_warm_run_s"] = (d["warm.update_s"]["median"], "s")
    elif workload == "serve_open":
        # The latency limit at the stated rates; a failed request misses it.
        out["limit_met"] = (float(
            d["read_s"]["tail"] <= SERVE_LIMIT["query_tail_us"] * 1e-6
            and d["append_s"]["tail"] <= SERVE_LIMIT["append_tail_ms"] * 1e-3
            and d["update_s"]["tail"] <= SERVE_LIMIT["fresh_tail_ms"] * 1e-3
            and raw["failed"] == 0), "bool")
        out["query_p50_us"] = (d["read_s"]["median"] * 1e6, "us")
        out["query_tail_us"] = (d["read_s"]["tail"] * 1e6, "us")
        out["append_p50_ms"] = (d["append_s"]["median"] * 1e3, "ms")
        out["append_tail_ms"] = (d["append_s"]["tail"] * 1e3, "ms")
        out["fresh_p50_ms"] = (d["update_s"]["median"] * 1e3, "ms")
        out["fresh_tail_ms"] = (d["update_s"]["tail"] * 1e3, "ms")
        out["generator_lag_p50_ms"] = (d["lag_s"]["median"] * 1e3, "ms")
    elif workload == "shard_stream":
        out["stream_tick_p50_s"] = (d["update_s"]["median"], "s")
        out["stream_tick_tail_s"] = (d["update_s"]["tail"], "s")
        out["merged_lookups_per_s"] = (
            LOOKUPS_PER_READ * len(samples["read_s"]) / sum(samples["read_s"]),
            "1/s")
    return out


def run_one(workload, args, spec, binary, out):
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S.%f")
    name = f"{workload}-s{args.seed}-t{args.trace}-{stamp}"
    for sub in ("runs", "traces", "results", "work"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    raw_path = os.path.join(out, "runs", name + ".raw.json")
    trace_path = os.path.join(out, "traces", name + ".trace.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work"), "--raw-out", raw_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"kbt_perfbench {workload} exited {done.returncode}")
    with open(raw_path) as f:
        raw = json.load(f)

    errors = list(raw["errors"])
    if errors and ("update_s" not in raw["samples"]
                   or "peak_rss_mb" not in raw["scalars"]):
        raise RuntimeError(f"{workload} stopped early: " + "; ".join(errors))
    if (workload == "serve_open"
            and stats.median(raw["samples"]["lag_s"]) > 1e-3):
        errors.append("generator lag median above 1 ms: the open loop did "
                      "not keep its schedule, so the run is invalid")
    e2e = end_to_end(raw)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        chosen = {m["name"]: (metric_value(raw, m["name"]), m["unit"])
                  for m in spec["per_layer"]}
    else:
        chosen = {name: (e2e[name], units[name]) for name in units}
    named = workload_metrics(workload, raw)
    digest = source_digest()

    result = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not errors,
        "errors": errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
        "workload_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in named.items()},
        "context": {
            "hardware_threads": raw["scalars"]["hardware_threads"],
            "executor_threads": raw["scalars"].get("executor_threads"),
            "commit": git_commit(),
            "source_digest": digest,
            "wall_s": time.monotonic() - started,
            "trace_file": trace_path if args.trace else None,
        },
        "layer_check": (layer_check(workload, args.seed, raw, out, digest)
                        if args.trace else None),
        "samples": {k: stats.describe(v)
                    for k, v in raw["samples"].items() if v},
        "scalars": raw["scalars"],
        "texts": raw["texts"],
    }
    with open(os.path.join(out, "results", name + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    os.remove(raw_path)

    print(f"== {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} hardware_threads="
          f"{int(raw['scalars']['hardware_threads'])} "
          f"executor_threads={int(raw['scalars'].get('executor_threads', 0))}")
    for key in sorted(k for k in raw["scalars"] if k.startswith("cube.")):
        print(f"   {key} = {raw['scalars'][key]:g}")
    print("  workload metrics:")
    for k, (v, u) in named.items():
        print(f"   {k:24s} {v:14.6f} {u}")
    print("  " + ("per-layer" if args.trace else "end-to-end") +
          " metrics of BENCHMARK.json:")
    for k, (v, u) in chosen.items():
        print(f"   {k:24s} {v:14.6f} {u}")
    if result["layer_check"]:
        print("  layer check (ms, informational): " + ", ".join(
            f"{k} {v:.3f}" if v is not None else f"{k} n/a"
            for k, v in result["layer_check"].items()))
    for e in errors:
        print(f"   MISMATCH: {e}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        out = build_dir()
        binary = build(out)
        if subprocess.run([binary, "--selftest"]).returncode != 0:
            raise RuntimeError("open-loop self-test failed")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_one(w, args, spec, binary, out) for w in workloads]
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1

    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (results[0]["metrics"] if len(results) == 1 else
                    {r["workload"]: r["metrics"] for r in results}),
    }
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
