#!/usr/bin/env python3
"""Repo-specific invariant linter for the KBT codebase.

The KBT pipeline's contract is *bit-for-bit reproducible* trust scores
(Dong et al., VLDB 2015, Sec. 4: the EM estimates must not drift under
parallel reduction) served from a lock-free read path. These invariants
cannot be expressed in a compiler flag, so this linter enforces them
textually over src/ and include/ (bench/ and examples/ take only the
metric-naming and obs-timing rules):

  determinism        No wall-clock or ambient-randomness calls in the
                     inference layers (src/core, src/extract, src/fusion,
                     src/kernels). All stochastic behaviour must flow
                     through kbt::Rng (seeded, fork-able) and all timing
                     through callers.

  unordered-iter     No range-for iteration over std::unordered_map/set in
                     the inference layers without an explicit
                     "deterministic-reduction" comment tag: hash-order
                     iteration feeding a float accumulation silently breaks
                     run-to-run reproducibility. The tag asserts the loop
                     body is order-independent (e.g. pure counting into a
                     keyed slot) or is followed by a sort.

  public-includes    Public headers (include/kbt/*.h) may include only
                     kbt/* and the standard library. Pre-existing internal
                     includes are grandfathered in BASELINE below (the debt
                     register for the facade-isolation roadmap item); new
                     ones are errors. Baseline entries that disappear must
                     be deleted here (the ratchet only tightens).

  raw-sync           std::mutex & friends may appear only inside the
                     annotated locking layer (include/kbt/sync.h, spelled
                     src/common/mutex.h internally). Everything else must
                     use kbt::Mutex / kbt::MutexLock / kbt::CondVar so a
                     clang -Wthread-safety build can prove lock discipline.

  metric-naming      Every metric registered through obs (GetCounter /
                     GetGauge / GetHistogram with a literal name, in src/,
                     include/ and bench/) must follow the
                     kbt_<layer>_<name>_<unit> scheme documented in
                     docs/OBSERVABILITY.md: counters end in _total,
                     histograms in _seconds/_bytes, gauges in a unit noun
                     (_depth, _ratio, _version, _retained). A scrape with
                     mixed conventions is a dashboard nobody can query.

  obs-timing         One interval clock: src/ (outside src/obs), include/,
                     bench/ and examples/ time through kbt::obs
                     (MonotonicNanos / MonotonicSeconds, ScopedTimer,
                     StageTimers::Scope), never a Stopwatch class or a
                     direct std::chrono::steady_clock /
                     high_resolution_clock read. src/obs owns the one
                     steady_clock read behind MonotonicNanos.
                     std::chrono::system_clock stays allowed: it is a
                     wall-clock timestamp (the stream's tick time), not an
                     interval timer.

  isa-intrinsics     No hand-written SIMD in src/ or include/: no
                     intrinsic headers (<immintrin.h> and the other x86
                     *intrin.h headers, <arm_neon.h>), no
                     __builtin_cpu_supports runtime dispatch, no
                     __attribute__((target(...))) multiversioning. The EM
                     kernels are one portable scalar lane implementation
                     per primitive because the AVX2/NEON paths measured no
                     end-to-end gain; an ISA path returns only through a
                     change that adds it to ISA_ALLOWLIST together with a
                     measured win. The allowlist is empty.

A finding can be waived on its own line (or the line above) with
    // kbt-lint: allow(<rule>) -- <justification>
Use sparingly; the waiver text is grep-able review surface.

Usage: scripts/lint_invariants.py [--root DIR]   (exit 1 on any finding)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --- rule: determinism ------------------------------------------------------

DETERMINISM_DIRS = ("src/core", "src/extract", "src/fusion", "src/kernels")

DETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"),
     "std::chrono wall clock"),
    (re.compile(r"(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
    (re.compile(r"(?<![\w:])(?:clock_gettime|gettimeofday|clock)\s*\("),
     "C clock API"),
    (re.compile(r"(?<![\w:])(?:localtime|gmtime)(?:_r)?\s*\("), "date API"),
]

# --- rule: public-includes --------------------------------------------------

# Grandfathered (file -> includes) pairs: the public facade still re-exports
# internal types. Shrink only.
PUBLIC_INCLUDE_BASELINE = {
    "include/kbt/data.h": {
        "eval/gold_standard.h", "exp/kv_sim.h", "exp/motivating_example.h",
        "exp/runners.h", "exp/synthetic.h", "extract/raw_dataset.h",
        "io/dataset_io.h", "kb/ids.h",
    },
    "include/kbt/kbt.h": {
        "common/histogram.h", "common/math.h", "common/random.h",
        "corpus/link_graph.h", "dataflow/parallel.h", "dataflow/stage_timer.h",
        "exp/table_printer.h", "pagerank/pagerank.h",
    },
    "include/kbt/options.h": {
        "core/initialization.h", "core/multilayer_config.h",
        "fusion/single_layer.h", "granularity/split_merge.h",
    },
    "include/kbt/pipeline.h": {
        "common/status.h", "extract/raw_dataset.h",
    },
    "include/kbt/query.h": {"kb/ids.h"},
    "include/kbt/report.h": {
        "core/kbt_score.h", "core/multilayer_result.h", "eval/gold_standard.h",
    },
}

QUOTE_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')
ANGLE_INCLUDE_RE = re.compile(r"#\s*include\s+<([^>]+)>")

# --- rule: raw-sync ---------------------------------------------------------

SYNC_ALLOWLIST = {"include/kbt/sync.h", "src/common/mutex.h"}

RAW_SYNC_PATTERNS = [
    (re.compile(r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"),
     "raw std mutex type"),
    (re.compile(r"std::condition_variable(?:_any)?\b"),
     "raw std::condition_variable"),
    (re.compile(r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw std lock wrapper"),
    (re.compile(r"#\s*include\s+<(?:mutex|condition_variable|shared_mutex)>"),
     "raw sync header include"),
]

# --- rule: isa-intrinsics --------------------------------------------------

# Files allowed to carry hand-written SIMD. Empty: an entry comes only with a
# measured end-to-end win for the path it admits.
ISA_ALLOWLIST: set[str] = set()

ISA_PATTERNS = [
    (re.compile(r"#\s*include\s+<\w*intrin\.h>"), "x86 intrinsics header"),
    (re.compile(r"#\s*include\s+<arm_neon\.h>"), "<arm_neon.h>"),
    (re.compile(r"__builtin_cpu_supports\b"),
     "__builtin_cpu_supports runtime ISA dispatch"),
    (re.compile(r"__attribute__\s*\(\(\s*target\s*\("),
     "__attribute__((target(...))) ISA multiversioning"),
]

# --- rule: metric-naming ----------------------------------------------------

METRIC_CALL_RE = re.compile(r'Get(Counter|Gauge|Histogram)\(\s*"([^"]+)"')
METRIC_NAME_RE = re.compile(r"^kbt_[a-z][a-z0-9_]*$")
HISTOGRAM_SUFFIXES = ("_seconds", "_bytes")
GAUGE_SUFFIXES = ("_depth", "_ratio", "_version", "_retained")

# --- rule: obs-timing -------------------------------------------------------

OBS_TIMING_DIRS = ("src/", "include/", "bench/", "examples/")
# The clock's own home: MonotonicNanos reads steady_clock here and only here.
OBS_TIMING_EXEMPT = ("src/obs/",)
OBS_TIMING_PATTERNS = [
    (re.compile(r"\bStopwatch\b|common/stopwatch\.h"), "Stopwatch"),
    (re.compile(r"std::chrono::(?:steady|high_resolution)_clock"),
     "direct std::chrono interval clock"),
]

# --- rule: unordered-iter ---------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s*"
    r"(?:&\s*)?(\w+)\s*[;({=]")
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*:\s*\*?(\w+)\s*\)")
DETERMINISTIC_TAG = "deterministic-reduction"

WAIVER_RE = re.compile(r"kbt-lint:\s*allow\(([\w,\s-]+)\)")

BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    """Blanks comments (preserving newlines) so rules match code only."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.findings: list[str] = []

    def report(self, rule: str, path: pathlib.Path, lineno: int,
               message: str, raw_lines: list[str]) -> None:
        for probe in (lineno - 1, lineno - 2):
            if 0 <= probe < len(raw_lines):
                waiver = WAIVER_RE.search(raw_lines[probe])
                if waiver and rule in waiver.group(1):
                    return
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path: pathlib.Path) -> None:
        rel = str(path.relative_to(self.root))
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.split("\n")
        code_lines = strip_comments(raw).split("\n")

        self.check_metric_naming(path, code_lines, raw_lines)
        if (rel.startswith(OBS_TIMING_DIRS)
                and not rel.startswith(OBS_TIMING_EXEMPT)):
            self.check_obs_timing(path, code_lines, raw_lines)
        if rel.startswith(("bench/", "examples/")):
            # Benches and examples are scanned for metric naming and timing
            # only; the concurrency and layering rules target the library
            # proper.
            return
        if rel not in SYNC_ALLOWLIST:
            self.check_raw_sync(path, code_lines, raw_lines)
        if rel not in ISA_ALLOWLIST:
            self.check_isa_intrinsics(path, code_lines, raw_lines)
        if any(rel.startswith(d + "/") for d in DETERMINISM_DIRS):
            self.check_determinism(path, code_lines, raw_lines)
            self.check_unordered_iteration(path, code_lines, raw_lines)
        if rel.startswith("include/kbt/") and rel != "include/kbt/sync.h":
            self.check_public_includes(path, rel, code_lines, raw_lines)

    def check_raw_sync(self, path, code_lines, raw_lines) -> None:
        for i, line in enumerate(code_lines, 1):
            for pattern, what in RAW_SYNC_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "raw-sync", path, i,
                        f"{what}: use kbt::Mutex/MutexLock/CondVar from "
                        "common/mutex.h (public headers: kbt/sync.h)",
                        raw_lines)

    def check_isa_intrinsics(self, path, code_lines, raw_lines) -> None:
        for i, line in enumerate(code_lines, 1):
            for pattern, what in ISA_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "isa-intrinsics", path, i,
                        f"{what}: the EM kernels are portable scalar code; "
                        "an ISA path needs a measured end-to-end win and an "
                        "ISA_ALLOWLIST entry in scripts/lint_invariants.py",
                        raw_lines)

    def check_metric_naming(self, path, code_lines, raw_lines) -> None:
        for i, line in enumerate(code_lines, 1):
            for kind, name in METRIC_CALL_RE.findall(line):
                if not METRIC_NAME_RE.match(name):
                    self.report(
                        "metric-naming", path, i,
                        f'metric "{name}" does not match '
                        "kbt_<layer>_<name>_<unit> (lowercase, "
                        "kbt_-prefixed; see docs/OBSERVABILITY.md)",
                        raw_lines)
                    continue
                if kind == "Counter" and not name.endswith("_total"):
                    self.report(
                        "metric-naming", path, i,
                        f'counter "{name}" must end in _total',
                        raw_lines)
                elif (kind == "Histogram"
                      and not name.endswith(HISTOGRAM_SUFFIXES)):
                    self.report(
                        "metric-naming", path, i,
                        f'histogram "{name}" must end in the measured unit '
                        f"({' or '.join(HISTOGRAM_SUFFIXES)})",
                        raw_lines)
                elif kind == "Gauge" and not name.endswith(GAUGE_SUFFIXES):
                    self.report(
                        "metric-naming", path, i,
                        f'gauge "{name}" must end in a unit noun '
                        f"({', '.join(GAUGE_SUFFIXES)}; extend the set in "
                        "scripts/lint_invariants.py if a new unit is real)",
                        raw_lines)

    def check_obs_timing(self, path, code_lines, raw_lines) -> None:
        for i, line in enumerate(code_lines, 1):
            for pattern, what in OBS_TIMING_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "obs-timing", path, i,
                        f"{what}: time through kbt::obs (MonotonicNanos / "
                        "MonotonicSeconds, ScopedTimer into a registered "
                        "histogram, or StageTimers::Scope) so there is one "
                        "clock source",
                        raw_lines)

    def check_determinism(self, path, code_lines, raw_lines) -> None:
        for i, line in enumerate(code_lines, 1):
            for pattern, what in DETERMINISM_PATTERNS:
                if pattern.search(line):
                    self.report(
                        "determinism", path, i,
                        f"{what} in an inference layer: draw through "
                        "kbt::Rng / take timings from the caller so runs "
                        "stay bit-for-bit reproducible",
                        raw_lines)

    def check_unordered_iteration(self, path, code_lines, raw_lines) -> None:
        unordered_vars = set()
        for line in code_lines:
            match = UNORDERED_DECL_RE.search(line)
            if match:
                unordered_vars.add(match.group(1))
        if not unordered_vars:
            return
        for i, line in enumerate(code_lines, 1):
            match = RANGE_FOR_RE.search(line)
            if not match or match.group(1) not in unordered_vars:
                continue
            context = raw_lines[max(0, i - 4):i]
            if any(DETERMINISTIC_TAG in c for c in context):
                continue
            self.report(
                "unordered-iter", path, i,
                f"iteration over unordered container '{match.group(1)}' in "
                "an inference layer: hash order is not deterministic — sort "
                "first, or tag the loop with a "
                f"'// {DETERMINISTIC_TAG}: <why order cannot matter>' "
                "comment on the preceding line",
                raw_lines)

    def check_public_includes(self, path, rel, code_lines, raw_lines) -> None:
        grandfathered = PUBLIC_INCLUDE_BASELINE.get(rel, set())
        seen_grandfathered = set()
        for i, line in enumerate(code_lines, 1):
            quoted = QUOTE_INCLUDE_RE.search(line)
            if quoted:
                target = quoted.group(1)
                if target.startswith("kbt/"):
                    continue
                if target in grandfathered:
                    seen_grandfathered.add(target)
                    continue
                self.report(
                    "public-includes", path, i,
                    f'public header includes internal "{target}": public '
                    "headers may include only kbt/* and the standard "
                    "library (no new entries to the baseline)",
                    raw_lines)
                continue
            angled = ANGLE_INCLUDE_RE.search(line)
            if angled and "/" in angled.group(1):
                self.report(
                    "public-includes", path, i,
                    f"<{angled.group(1)}> is not a standard-library header",
                    raw_lines)
        for stale in sorted(grandfathered - seen_grandfathered):
            self.findings.append(
                f"{rel}:1: [public-includes] baseline entry '{stale}' is no "
                "longer included — delete it from PUBLIC_INCLUDE_BASELINE in "
                "scripts/lint_invariants.py (the ratchet only tightens)")

    def run(self) -> int:
        paths = []
        for top in ("src", "include"):
            paths.extend(sorted((self.root / top).rglob("*.h")))
            paths.extend(sorted((self.root / top).rglob("*.cpp")))
        # Benches and examples participate in the metric-naming rule (their
        # private registries feed the same dashboards) and in obs-timing;
        # see lint_file for scoping.
        for top in ("bench", "examples"):
            paths.extend(sorted((self.root / top).glob("*.h")))
            paths.extend(sorted((self.root / top).glob("*.cpp")))
        for path in paths:
            self.lint_file(path)
        for finding in self.findings:
            print(finding)
        grandfathered = sum(len(v) for v in PUBLIC_INCLUDE_BASELINE.values())
        print(f"lint_invariants: {len(paths)} files checked, "
              f"{len(self.findings)} finding(s), "
              f"{grandfathered} grandfathered public-header include(s)",
              file=sys.stderr)
        return 1 if self.findings else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="repository root (default: the checkout containing this script)")
    args = parser.parse_args()
    return Linter(pathlib.Path(args.root).resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
