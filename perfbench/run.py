#!/usr/bin/env python3
"""perfbench: host cost of simulating the Pathways paper's three regimes.

Builds the `pwbench` binary from this checkout (into .bench_build/ at the
checkout root), then runs one workload for a fixed wall-clock budget as a
sequence of single-threaded processes, one repetition per process. Every
repetition sets up the workload from scratch, runs it to a full drain and
checks its outputs. The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
repetitions); with --trace 1, untraced and traced repetitions alternate and
the metrics are the per-layer ones. A traced run also prints the per-span
table with self times and the tracing overhead, and writes the last traced
repetition's spans as Chrome trace-event JSON under .bench_build/traces/.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--quick]

Exit code 0 when every output check passed and no unit failed, 1 when the
result reports a failure, 2 when nothing could be run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pwbench"
WORKLOADS = ("dispatch_2048", "train_2island_flow", "serve_kv_spill")
MIN_REPS = 3         # per kind of repetition, whatever --seconds says
REP_TIMEOUT_S = 30   # one repetition; full size takes under 3 s here
DEADLINE_S = 140     # after measuring starts, no new repetition starts


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "pathways" / "pathways.h").is_file():
        log("perfbench: simulator sources (CMakeLists.txt, src/) not found "
            f"under {ROOT}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pwbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, env=env)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_rep(workload, seed, quick, trace_path=None):
    """One repetition in its own process. Returns its JSON record, or a
    record with "crashed" set when the process died without one."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {REP_TIMEOUT_S} s"}
    lines = p.stdout.strip().splitlines()
    if p.returncode in (0, 1) and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"crashed": f"exit {p.returncode}: {p.stderr.strip()[-500:]}"}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def value_map(group):
    return {k: v["value"] for k, v in group.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size workload (for the benchmark's tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    trace_dir = BUILD / "traces"
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)

    # Repetitions: untraced only, or untraced and traced alternating.
    kinds = (False, True) if args.trace else (False,)
    reps = {k: [] for k in kinds}
    measure_start = time.monotonic()
    while True:
        for traced in kinds:
            reps[traced].append(run_rep(args.workload, args.seed, args.quick,
                                        trace_path if traced else None))
        if any("crashed" in rs[-1] for rs in reps.values()):
            break
        now = time.monotonic()
        enough = min(len(rs) for rs in reps.values()) >= MIN_REPS
        if enough and now - measure_start >= args.seconds:
            break
        if now - measure_start >= DEADLINE_S:
            break

    # Output check and failed-unit accounting. A crashed repetition counts
    # every unit a completed repetition of the same seed attempted.
    all_reps = [r for rs in reps.values() for r in rs]
    good = [r for r in all_reps if "crashed" not in r]
    units_per_rep = good[0]["attempted"] if good else 1
    attempted = failed = 0
    problems = []
    for r in all_reps:
        if "crashed" in r:
            attempted += units_per_rep
            failed += units_per_rep
            problems.append("crashed: " + r["crashed"])
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        if not r["ok"]:
            problems.append(r["failure"])
    # Same seed, same simulated results and counters: in every repetition,
    # traced or not. The first record is untraced, so it holds counters only.
    if good:
        ref = value_map(good[0]["model"])
        ref_counts = value_map(good[0]["layers"])
        for r in good[1:]:
            if value_map(r["model"]) != ref:
                problems.append("model.* differs between repetitions")
                break
            counts = value_map(r["layers"])
            if any(counts.get(k) != v for k, v in ref_counts.items()):
                problems.append("layer counters differ between repetitions")
                break
    correct = not problems and failed == 0 and bool(good)
    for p in dict.fromkeys(problems):
        log("perfbench: output check failed:", p)

    untraced = [r for r in reps[False] if "crashed" not in r]
    metrics = {}
    if not args.trace and untraced:
        def med(key):
            return statistics.median(r[key] for r in untraced)
        metrics = {
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "units_per_s": {"value": med("units_per_s"), "unit": "1/s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
    elif args.trace:
        traced = [r for r in reps[True] if "crashed" not in r]
        if traced and untraced:
            metrics = per_layer_metrics(traced, untraced)

    print(json.dumps({
        "provenance": {
            "workload": args.workload, "seed": args.seed,
            "quick": args.quick, "trace": args.trace,
            "reps": {("traced" if k else "untraced"): len(v)
                     for k, v in reps.items()},
            "compiler": good[0]["compiler"] if good else "unknown",
            "build_type": good[0]["build_type"] if good else "unknown",
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "trace_file": str(trace_path.relative_to(ROOT))
            if args.trace else None,
        }}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_metrics(traced, untraced):
    """Per-layer metrics of the traced repetitions: counters from the first
    (they repeat exactly), host times as medians; plus the simulated
    results and the tracing overhead. Prints the per-span table."""
    metrics = {}
    for name, m in traced[0]["model"].items():
        metrics[name] = dict(m)
    for name, m in traced[0]["layers"].items():
        values = [r["layers"][name]["value"] for r in traced]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    ups_untraced = statistics.median(r["units_per_s"] for r in untraced)
    ups_traced = statistics.median(r["units_per_s"] for r in traced)
    overhead = (1 - ups_traced / ups_untraced) * 100 if ups_untraced else 0.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}

    # Span table of the median traced repetition by run time.
    rep = sorted(traced, key=lambda r: r["run_s"])[len(traced) // 2]
    wall = rep["setup_s"] + rep["run_s"]
    print(f"{'span':<20} {'count':>9} {'total_s':>10} {'self_s':>10} "
          f"{'self%':>6}")
    for name, s in sorted(rep["spans"].items(),
                          key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<20} {s['count']:>9} {s['total_s']:>10.4f} "
              f"{s['self_s']:>10.4f} {100 * s['self_s'] / wall:>6.1f}")
    print(f"tracing overhead: units_per_s {ups_traced:.6g} traced vs "
          f"{ups_untraced:.6g} untraced ({overhead:+.2f}%), "
          f"{len(traced)} traced / {len(untraced)} untraced repetitions")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
