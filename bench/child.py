"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py <spawn time> [<input dir> [<trace file>]]

``<spawn time>`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from then until ``sftlab`` and ``sftlab.cli``
are imported, so nothing else may be imported before them.  Without an
input dir the child only reports its set-up time.  Otherwise the
repetition's operations come from ``<input dir>/plan.json``.  With a trace
file, every public sftlab function is wrapped (see tracer.py) and the spans
are written there at the end.  While the operations run, a fixed
reference computation is timed every fifth of a second (``SpeedProbe``).
The last line of standard output is a JSON object with the timings (of each
operation, and the mean reference time during it), peak RSS, the verdict of
every operation and a digest of all verdicts.
"""

import sys
import time

import sftlab
import sftlab.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

#: The reference computation: about 5 ms on a 2-vCPU Xeon VM, sampled
#: every PROBE_INTERVAL_S seconds of an operation, which costs it about 3%.
REFERENCE_KEYS = 4096
REFERENCE_PASSES = 4
PROBE_INTERVAL_S = 0.2


class SpeedProbe:
    """Gauges how fast the shared machine runs while an operation runs.

    A sample times a fixed computation of the kind sftlab spends its time
    on, looking up tuple keys in a dict built beforehand (so that no memory
    growth is timed).  Within ``with probe:`` a SIGALRM handler takes one
    every PROBE_INTERVAL_S seconds, between the bytecodes of whatever runs;
    ``sample()`` takes one at once, at the edges of an operation.
    """

    def __init__(self):
        self.table = {(i & 63, i >> 6, i & 7): 0 for i in range(REFERENCE_KEYS)}
        self.samples = []  # (start, duration)
        self.busy = False

    def sample(self, *_signal_args):
        if self.busy:
            return
        self.busy = True
        started = time.monotonic()
        for _ in range(REFERENCE_PASSES):
            for i in range(REFERENCE_KEYS):
                self.table[(i & 63, i >> 6, i & 7)] += 1
        self.samples.append((started, time.monotonic() - started))
        self.busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """``fn(*args)``, the seconds it took without the samples taken
        meanwhile, and the mean sample time from the sample before it to
        the one after it."""
        self.sample()
        first = len(self.samples) - 1
        started = time.monotonic()
        result = fn(*args)
        ended = time.monotonic()
        self.sample()
        inside = [d for t, d in self.samples[first + 1:] if t < ended]
        around = [d for _, d in self.samples[first:]]
        return result, ended - started - sum(inside), sum(around) / len(around)


def run_item(item):
    """Run one operation; returns (exit code or API result, error text)."""
    try:
        if "argv" in item:
            return sftlab.cli.main(item["argv"]), None
        return sftlab.spectra.verify_eb_failure(item["matrix"]), None
    except Exception as exc:  # one failed operation must not stop the repetition
        return None, f"{type(exc).__name__}: {exc}"


def verdict_of(item, outcome):
    """Problems found in one operation's outcome, and the verdict text that
    goes into the digest (statuses and exact payload, no timings)."""
    if "argv" not in item:
        return workloads.check_eb(item["expect"], outcome), [
            outcome["status"], outcome["lhs"], outcome["rhs"]
        ]
    doc = None
    if os.path.exists(item["report"]):
        with open(item["report"], encoding="utf-8") as handle:
            doc = json.load(handle)
        os.remove(item["report"])
    problems = workloads.check_report(item["expect"], outcome, doc)
    verdict = [outcome]
    if doc is not None:
        verdict += [[r["name"], r["status"]] for r in doc["records"]]
        verdict.append(doc.get("payload"))
    return problems, verdict


def main(argv):
    spawned = float(argv[1])
    if len(argv) == 2:
        print(json.dumps({"setup_s": IMPORTED - spawned}))
        return
    with open(os.path.join(argv[2], "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    trace = tracer.Tracer() if len(argv) > 3 else None
    if trace is not None:
        tracer.install(trace)
    outcomes = []
    op_s = []
    ref_s = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), SpeedProbe() as probe:
        for item in plan["items"]:
            outcome, elapsed, reference = probe.timed(run_item, item)
            outcomes.append(outcome)
            op_s.append(elapsed)
            ref_s.append(reference)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = []
    verdicts = []
    for item, (outcome, error) in zip(plan["items"], outcomes):
        if error is not None:
            problems, verdict = [error], [error]
        else:
            problems, verdict = verdict_of(item, outcome)
        ops.append({"name": item["name"], "problems": problems})
        verdicts.append([item["name"], verdict])
    if trace is not None:
        trace.dump(argv[3])
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    print(json.dumps({
        "setup_s": IMPORTED - spawned,
        "verdict_s": sum(op_s),
        "op_s": op_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "ops": ops,
        "digest": digest,
    }))


if __name__ == "__main__":
    main(sys.argv)
