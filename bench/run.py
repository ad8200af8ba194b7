"""End-to-end benchmark of sftlab: time to verdict on three workloads.

    python3 bench/run.py --workload {suites,deep-iterates,exact-dimension,all}
                         [--seed N] [--seconds S] [--trace 0|1] [--out PATH]

Run from the root of a source checkout; sftlab is imported from ``src/``.
Each repetition is a fresh interpreter (bench/child.py) that runs the
workload's operations once, one child at a time (a closed loop with one
client).  Repetitions continue until ``--seconds`` of measuring would be
exceeded, with at least three.  Every verdict is checked against a known
answer (workloads.py, expected.json).

With ``--trace 0`` the metrics are end to end: ``setup_s`` (spawn until
``sftlab`` and ``sftlab.cli`` are imported), ``verdict_ref`` (below) and
``peak_rss_mb`` (the child's ``ru_maxrss``), medians over the run.  The
table also gives the distribution of ``verdict_s``, the seconds the
repetition's operations took.  On a shared host that mostly reflects the
neighbours: the same repetition runs up to twice as slow while they are
busy, in spells of seconds to minutes.  ``verdict_ref`` is the steady
figure: each operation's time divided by the mean time of a fixed
reference computation sampled every fifth of a second while it ran
(child.py), its median over the run, summed over the workload's
operations.  It is the time to verdict in multiples of the reference, so a
slow spell, which slows both, cancels out, while a change to sftlab moves
it as it moves ``verdict_s``.

With ``--trace 1`` traced and untraced repetitions alternate and the
metrics are per layer, from the traced ones (tracer.py), plus
``trace.overhead_ratio``.  ``--workload all`` runs the three workloads
round-robin, so a slow period of the machine hits all of them, and
``--out`` saves every statistic with the machine's details.

A table goes to standard output first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
MIN_ROUNDS = 3
#: Set-up-only children per repetition: set-up is short and noisy, so it
#: gets more samples than the repetitions alone would give.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 60

#: The distributions the table and ``--out`` report.
DISTRIBUTIONS = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = (
    "ratmat", "shifts", "codes", "coding_range", "dimension", "entropy",
    "spectra", "builtins", "systems", "reports", "cli",
)
#: (metric, statistic of tracer.summarize()'s function table)
FUNCTION_METRICS = (
    ("codes.compose", "self_s"),
    ("codes.compose", "calls"),
    ("codes.verify_automorphism", "self_s"),
    ("codes.infer_inverse", "self_s"),
    ("ratmat.mat_mul", "calls"),
    ("ratmat.mat_mul", "self_s"),
    ("ratmat.char_poly", "self_s"),
    ("shifts.count_words", "total_s"),
    ("shifts.dimension_data", "total_s"),
    ("shifts.perron_data", "total_s"),
    ("dimension.theta", "total_s"),
    ("dimension.dimension_matrix", "total_s"),
    ("entropy.column_census", "self_s"),
)
COUNTERS = (
    "codes.compose.windows",
    "codes.compose.redundant_windows",
    "shifts.windows_budgeted",
)
SCAN = ("coding_range.coded_minus", "coding_range.coded_plus")
NAIVE = ("coding_range.coded_minus_naive", "coding_range.coded_plus_naive")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def preflight(env):
    """Fail unless sftlab imports from this checkout's src/; this also
    writes its bytecode, which a user compiles once, before timing."""
    src = os.path.join(ROOT, "src", "sftlab")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        sys.exit(f"error: no sftlab sources at {src}; run from a source checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import os, sftlab.cli; print(os.path.dirname(sftlab.__file__))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    found = probe.stdout.strip()
    if probe.returncode != 0 or os.path.realpath(found) != os.path.realpath(src):
        sys.exit(f"error: sftlab did not import from {src}: {probe.stderr.strip() or found}")


def run_child(env, *args):
    """One child (see child.py for ``args``); returns its result dict, with
    ``error`` set when the child failed as a whole."""
    spawned = time.monotonic()
    args = [sys.executable, os.path.join(BENCH, "child.py"), repr(spawned), *args]
    try:
        proc = subprocess.run(
            args, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "wall_s": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def percentile_summary(values):
    """Median, quartiles, n, and the highest whole percentile above the
    median with at least ten samples beyond it (nearest rank)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p > 50:
        out[f"p{p}"] = values[math.ceil(p * n / 100) - 1]
    return out


def in_reference_units(results):
    """Per operation, the median over the repetitions of its time over the
    mean reference time during it, summed over operations."""
    per_op = zip(*([op / ref for op, ref in zip(r["op_s"], r["ref_s"])] for r in results))
    return sum(statistics.median(ratios) for ratios in per_op)


def layer_metrics(summary, counts):
    functions = summary["functions"]

    def stat(name, key):
        return functions.get(name, {}).get(key, 0)

    metrics = {}
    for layer in LAYERS:
        got = summary["layers"].get(layer, {})
        metrics[f"{layer}.self_s"] = got.get("self_s", 0.0)
        metrics[f"{layer}.calls"] = got.get("calls", 0)
    for name, key in FUNCTION_METRICS:
        metrics[f"{name}.{key}"] = stat(name, key)
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    metrics["coding_range.scan.calls"] = sum(stat(n, "calls") for n in SCAN)
    metrics["coding_range.naive.self_s"] = sum(stat(n, "self_s") for n in NAIVE)
    metrics["trace.spans"] = sum(f["calls"] for f in functions.values())
    return metrics


def is_count(metric):
    return not metric.endswith("_s") and not metric.startswith("trace.overhead")


class WorkloadRun:
    """Repetitions of one workload and what they found."""

    def __init__(self, name, seed, work_dir):
        self.name = name
        self.inputs = os.path.join(work_dir, name)
        os.makedirs(self.inputs)
        self.plan = workloads.build_plan(name, seed, self.inputs)
        self.untraced = []
        self.setups = []
        self.traced = []
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def record(self, result):
        ops = len(self.plan["items"])
        self.attempted += ops
        if "error" in result:
            self.failed += ops
            self.problems.append(f"repetition failed: {result['error']}")
            return False
        for op in result["ops"]:
            if op["problems"]:
                self.failed += 1
                self.problems.append(f"{op['name']}: {'; '.join(op['problems'])}")
        self.digests.add(result["digest"])
        return True

    def repeat(self, env, trace):
        result = run_child(env, self.inputs)
        if self.record(result):
            self.untraced.append(result)
            self.setups.append(result["setup_s"])
        wall = result["wall_s"]
        for _ in range(SETUP_PROBES):
            probe = run_child(env)
            wall += probe["wall_s"]
            if "error" in probe:
                self.problems.append(f"set-up probe failed: {probe['error']}")
            else:
                self.setups.append(probe["setup_s"])
        if trace:
            path = os.path.join(self.inputs, "spans.json")
            result = run_child(env, self.inputs, path)
            if self.record(result):
                self.traced.append(result)
                spans, counts = tracer.load(path)
                result["layer_summary"] = tracer.summarize(spans)
                self.layers.append(layer_metrics(result["layer_summary"], counts))
            wall += result["wall_s"]
        return wall

    def check_consistency(self, trace):
        if len(self.digests) > 1:
            self.problems.append("verdicts differ between repetitions")
        for metric in (self.layers[0] if self.layers else {}):
            if is_count(metric) and len({m[metric] for m in self.layers}) > 1:
                self.problems.append(f"count {metric} differs between traced repetitions")
        if trace and not self.layers:
            self.problems.append("no traced repetition succeeded")
        if not self.untraced:
            self.problems.append("no repetition succeeded")

    def samples(self):
        return {
            "setup_s": self.setups,
            "verdict_s": [r["verdict_s"] for r in self.untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.untraced],
        }

    def end_to_end(self):
        return {metric: percentile_summary(values) for metric, values in self.samples().items()}

    def verdict_ref(self):
        return in_reference_units(self.untraced)

    def per_layer(self):
        stats = {}
        for metric in self.layers[0]:
            # counts repeat exactly (check_consistency), so keep them whole
            median = statistics.median_low if is_count(metric) else statistics.median
            stats[metric] = median(m[metric] for m in self.layers)
        stats["trace.overhead_ratio"] = in_reference_units(self.traced) / self.verdict_ref()
        return stats


def measure(names, seed, seconds, trace, work_dir):
    env = child_env()
    preflight(env)
    runs = [WorkloadRun(name, seed, work_dir) for name in names]
    start = time.monotonic()
    round_walls = []
    while True:
        wall = 0.0
        for run in runs:
            wall += run.repeat(env, trace)
        round_walls.append(wall)
        elapsed = time.monotonic() - start
        if len(round_walls) >= MIN_ROUNDS and elapsed + max(round_walls) > seconds:
            break
    for run in runs:
        run.check_consistency(trace)
    return runs


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_tables(runs, trace):
    for run in runs:
        print(f"== {run.name}: {len(run.untraced)} untraced, {len(run.traced)} traced repetitions")
        ratio = run.failed / run.attempted if run.attempted else float("nan")
        print(f"   failed_ratio {ratio:.4g} ratio ({run.failed}/{run.attempted} operations)")
        if run.untraced:
            e2e = run.end_to_end()
            for metric, unit in DISTRIBUTIONS:
                stats = e2e[metric]
                extra = " ".join(f"{k} {fmt(v)}" for k, v in stats.items() if k != "median")
                print(f"   {metric:13} {fmt(stats['median']):>10} {unit:3} median  ({extra})")
            print(f"   verdict_ref   {fmt(run.verdict_ref()):>10} ref (operation time / reference time)")
        if trace and run.layers:
            summary = run.traced[-1]["layer_summary"]
            total = summary["self_s"] or 1.0
            print(f"   {'layer':14} {'self_s':>9} {'share':>6} {'calls':>8}   (last traced repetition)")
            for layer, got in sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"   {layer:14} {got['self_s']:9.4f} {got['self_s'] / total:6.1%} {got['calls']:8d}")
            for metric, value in run.per_layer().items():
                print(f"   {metric:36} {fmt(value)}")
        for problem in sorted(set(run.problems))[:10]:
            print(f"   PROBLEM {problem}")


def result_line(runs, trace):
    metrics = {}
    prefix = len(runs) > 1
    for run in runs:
        if not run.untraced or (trace and not run.layers):
            continue
        if trace:
            values = {m: (v, "count" if is_count(m) else ("ratio" if "ratio" in m else "s"))
                      for m, v in run.per_layer().items()}
        else:
            e2e = run.end_to_end()
            values = {
                "setup_s": (e2e["setup_s"]["median"], "s"),
                "verdict_ref": (run.verdict_ref(), "ref"),
                "peak_rss_mb": (e2e["peak_rss_mb"]["median"], "MB"),
            }
        for metric, (value, unit) in values.items():
            key = f"{run.name}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and not any(r.problems for r in runs)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def machine_info():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def save(path, runs, args, line):
    doc = {
        "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "machine": machine_info(),
        "workloads": {},
        "result": line,
    }
    for run in runs:
        entry = {
            "repetitions": {"untraced": len(run.untraced), "traced": len(run.traced)},
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_ratio": run.failed / run.attempted if run.attempted else None,
            "problems": sorted(set(run.problems)),
        }
        if run.untraced:
            entry["end_to_end"] = run.end_to_end()
            entry["verdict_ref"] = run.verdict_ref()
            entry["op_s"] = [r["op_s"] for r in run.untraced]
            entry["ref_s"] = [r["ref_s"] for r in run.untraced]
            entry["samples"] = run.samples()
        if run.layers:
            entry["per_layer"] = run.per_layer()
            entry["functions"] = run.traced[-1]["layer_summary"]["functions"]
        doc["workloads"][run.name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every statistic to this JSON file")
    args = parser.parse_args()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        runs = measure(names, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    line = result_line(runs, bool(args.trace))
    print_tables(runs, bool(args.trace))
    if args.out:
        save(args.out, runs, args, line)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
