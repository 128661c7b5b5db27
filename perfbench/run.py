"""Benchmark for dagsort: sort, queue and trace paths, timed layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload path-insertion --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One workload runs in one single-threaded process, as a closed loop: each
call into dagsort starts when the previous one returns. The fixed pass of
the workload is repeated until ``--seconds`` have passed (at least three
times), and every pass's outputs are checked. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the object holds the
per-layer metrics instead (see tracer.py). ``--workload all`` runs each
workload in its own child process, one after the other, and prints a table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

# Times of the program are reported in units of the reference loop (see
# reference_loop): this host's speed drifts by up to 60% within a minute.
END_TO_END = (
    ("run_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ref", "ref"),
    ("op_p99_ref", "ref"),
)
SETUPS = 7  # set-up is repeated and its median reported
MIN_PASSES = 3
TAIL_SAMPLES = 1000
REFERENCE_ITERATIONS = 100_000
REFERENCE_SHARE = 0.1
CHILD_TIMEOUT_S = 600


def import_dagsort() -> dict:
    """Import dagsort afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "dagsort" or m.startswith("dagsort.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"dagsort.{m}") for m in ("cli", "dag", "pqueue")}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"dagsort was imported from {where}, not from {SRC}")
    return mods


def op_percentiles(latencies: list[float]) -> tuple[float, float]:
    """Median and nearest-rank 99th percentile of one pass's operation
    latencies. With fewer than TAIL_SAMPLES operations the 99th percentile
    would rest on fewer than ten samples and be no tail, so the median
    stands in for it."""
    ordered = sorted(latencies)
    median = statistics.median(ordered)
    if len(ordered) < TAIL_SAMPLES:
        return median, median
    return median, ordered[math.ceil(0.99 * len(ordered)) - 1]


def run_workload(name, seed, seconds, trace, tiny=False, corrupt=None) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``corrupt``, when given, is applied to the first pass's outputs before
    they are checked, to show that the checks reject a wrong answer.
    """
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        setups = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            mods = import_dagsort()
            workload = WORKLOADS[name](seed, workdir, tiny)
            workload.make_inputs()
            setups.append(time.perf_counter() - start)
        return _measure(workload, mods, seconds, trace, setups, corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still has its directory there


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: integer arithmetic, list
    indexing and small tuples, the staples of dagsort's sifts. Timed
    between passes, it tracks how fast this machine runs Python right then;
    a pass's time divided by it is the pass's time in ``ref`` units."""
    start = time.perf_counter()
    slots = list(range(1024))
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        j = (i * 7) & 1023
        pair = (slots[j], i)
        if pair[0] > slots[j ^ 1]:
            slots[j], slots[j ^ 1] = slots[j ^ 1], pair[0]
        else:
            slots[j] = pair[1] & 4095
    for i in range(4 * REFERENCE_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - start


def reference_gap(pass_seconds: float) -> list[float]:
    """Time the reference loop after a pass, often enough to take about
    REFERENCE_SHARE of the pass's time, and at least once."""
    times = [reference_loop()]
    while sum(times) < REFERENCE_SHARE * pass_seconds:
        times.append(reference_loop())
    return times


def _measure(workload, mods, seconds, trace, setups, corrupt) -> dict:
    tracer = Tracer(mods) if trace else None
    total = Verdict()
    mismatches = []
    runs = {False: [], True: []}  # raw pass seconds, untraced and traced
    ratios: list[float] = []  # untraced pass / reference loop
    op_p50: list[float] = []  # per untraced pass, in ref units
    op_p99: list[float] = []
    timed_ops = 0
    expected = None
    passes = 0
    gaps = [reference_gap(0.0)]  # reference-loop times between passes
    start = time.perf_counter()
    while passes < (4 if trace else MIN_PASSES) or (
        time.perf_counter() - start < seconds
    ):
        traced = trace and passes % 2 == 1
        if traced:
            before = (tracer.count["reorder.comparisons"], tracer.count["reorder.exchanges"])
            tracer.install()
        try:
            elapsed, latencies, raw = workload.run_pass(mods)
        finally:
            if traced:
                tracer.uninstall()
        gaps.append(reference_gap(elapsed))
        runs[traced].append(elapsed)
        if not traced:
            unit = statistics.fmean(gaps[-2] + gaps[-1])
            ratios.append(elapsed / unit)
            p50, p99 = op_percentiles(latencies)
            op_p50.append(p50 / unit)
            op_p99.append(p99 / unit)
            timed_ops += len(latencies)

        outputs = workload.collect(raw)
        if corrupt is not None and passes == 0:
            outputs = corrupt(outputs)
        verdict = workload.check(outputs)
        total.attempted += verdict.attempted
        total.errors += verdict.errors
        total.rejected += verdict.rejected
        total.notes += verdict.notes
        if trace:
            # Untraced and traced passes must do exactly the work counted
            # apart from the program; the traced tallies come from wrappers.
            if expected is None:
                expected = workload.expected_counts(outputs)
            reported = workload.program_comparisons(outputs)
            if reported is not None and reported != expected[0]:
                mismatches.append(f"pass {passes}: program counted {reported} "
                                  f"comparisons, expected {expected[0]}")
            if traced:
                seen = (tracer.count["reorder.comparisons"] - before[0],
                        tracer.count["reorder.exchanges"] - before[1])
                if seen != expected:
                    mismatches.append(f"pass {passes}: traced (comparisons, exchanges) "
                                      f"{seen}, expected {expected}")
        passes += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for note in total.notes[:20] + mismatches[:20]:
        print(f"{workload.name}: {note}", file=sys.stderr)
    print(f"{workload.name}: wall run_s={statistics.median(runs[False]):.6g} "
          f"reference_loop_s={statistics.median(t for gap in gaps for t in gap):.6g} "
          f"passes={passes} timed_operations={timed_ops}", file=sys.stderr)
    if trace:
        # adjacent passes see the same machine speed, so pair them
        paired = [t - u for u, t in zip(runs[False], runs[True])]
        values = tracer.metrics(len(runs[True]), statistics.median(paired))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        values = {
            "run_ref": statistics.median(ratios),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
            "op_p50_ref": statistics.median(op_p50),
            "op_p99_ref": statistics.median(op_p99),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": total.rejected == 0 and not mismatches,
        "attempted": total.attempted,
        "failed": total.errors + total.rejected,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own child process; a table, then one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "dagsort" / "__init__.py").is_file():
        print(f"error: no dagsort sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
