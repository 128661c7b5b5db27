"""Alternating benchmark pairs of two checkouts, judged by the pairs rule.

    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS FIRST_SEED

Pair i runs ``perfbench/run.py --workload WORKLOAD --seed FIRST_SEED+i
--seconds S --trace 0`` in each checkout, S being ``run_seconds`` from the
parent's BENCHMARK.json; the parent runs first in even pairs, the change in
odd ones. One JSON object goes to standard output: for every end-to-end
metric, each side's runs, median and quartiles, the pairs each side won
(ties count for neither), ``gain`` (the change won at least 9/10 of the pairs
and the medians differ by more than the parent's interquartile range, in the
better direction) and ``within_bound`` (the change's median is no worse than
the parent's by more than the metric's bound; "unresolved" when the parent's
interquartile range exceeds the bound, unless every change run beats every
parent run); plus incorrect runs and failed operations per side.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def side(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def judge(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1 if spec["better"] == "lower" else -1  # positive: the change is better
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    p, c = side(parent), side(change)
    wins = sum(g > 0 for g in gaps)
    iqr = p["q3"] - p["q1"]
    within = sign * (p["median"] - c["median"]) / abs(p["median"]) >= -spec["bound"]
    if iqr / abs(p["median"]) > spec["bound"]:  # too spread to call unchanged
        within = all(sign * (x - y) > 0 for x in parent for y in change) or "unresolved"
    return {"unit": spec["unit"], "better": spec["better"], "parent": p, "change": c,
            "change_wins": wins, "parent_wins": sum(g < 0 for g in gaps),
            "gain": wins >= 0.9 * len(gaps) and sign * (p["median"] - c["median"]) > iqr,
            "rel_change": (c["median"] - p["median"]) / abs(p["median"]),
            "bound": spec["bound"], "within_bound": within}


def main(argv: list[str]) -> int:
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, pairs, first_seed = argv[2], int(argv[3]), int(argv[4])
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    results = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            checkout = parent if name == "parent" else change
            results[name].append(run(checkout, workload, first_seed + i, bench["run_seconds"]))
            print(f"pair {i} {name}: {results[name][-1]['metrics']['run_ref']['value']:.4f}",
                  file=sys.stderr)
    report = {"workload": workload, "pairs": pairs, "seeds": [first_seed, first_seed + pairs - 1],
              "seconds": bench["run_seconds"], "metrics": {}}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        report["metrics"][name] = judge(spec, *([r["metrics"][name]["value"] for r in results[s]]
                                                for s in ("parent", "change")))
    for s in ("parent", "change"):
        report[f"{s}_incorrect_runs"] = sum(not r["correct"] for r in results[s])
        report[f"{s}_failed_ops"] = sum(r["failed"] for r in results[s])
        report[f"{s}_attempted_ops"] = sum(r["attempted"] for r in results[s])
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
