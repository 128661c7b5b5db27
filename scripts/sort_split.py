"""Where the time of one in-process hypercube sort goes, for several checkouts.

    python3 scripts/sort_split.py ROUNDS CHECKOUT [CHECKOUT ...]

Each checkout's ``src/dagsort`` is imported under its own package name in
this one process, so the checkouts are timed side by side within seconds of
each other, and the host's drift in speed cancels in their ratios. Round r
sorts one seeded random input (seed r) on ``hypercube:14`` with every
checkout, in an order that rotates from round to round, timing: ``build``;
the queue's ``__init__`` (its insertion order is computed untimed); the
insert phase, a loop of ``queue.insert``; the remove phase, a loop of
``queue.remove_min``; after an untimed refill, the drain phase, one
``queue.drain``, which is how sorts remove; ``dag_sort`` as a whole; and
``cli.main`` for ``dagsort sort --topology hypercube:14`` with in-memory
standard streams. One JSON object goes to standard output: per checkout and
phase, the median and quartiles of the seconds, and the median over rounds
of the ratio to the first checkout's time in the same round, with the number
of rounds in which that ratio was below 1. A checkout whose queue has no
``drain`` reports ``null`` for that phase, and so do the ratios of every
checkout when the first has none, so older checkouts still run beside newer
ones.
"""

import importlib.util
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

PHASES = ("build", "init", "insert", "remove", "drain", "dag_sort", "cli")


def load(checkout: Path, alias: str):
    """Import ``checkout/src/dagsort`` as the package ``alias``."""
    pkg = checkout / "src" / "dagsort"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return [importlib.import_module(f"{alias}.{m}") for m in ("cli", "dag", "pqueue", "sorting", "topologies")]


def one_round(mods, values: list[int], text: str) -> list[float | None]:
    cli, dag, pqueue, sorting, topologies = mods
    clock, seconds = time.perf_counter, dict.fromkeys(PHASES)
    start = clock()

    def lap(phase: str) -> None:  # seconds since the last lap or restart
        nonlocal start
        seconds[phase], start = clock() - start, clock()

    g = topologies.build(topologies.Hypercube(14))
    lap("build")
    order = dag.topological_order(g)  # the popcount order on every checkout
    start = clock()
    q = pqueue.OrderedDagQueue(g, order=order)
    lap("init")
    for v in values:
        q.insert(v)
    lap("insert")
    for _ in values:
        q.remove_min()
    lap("remove")
    if hasattr(q, "drain"):  # else the phase stays None
        for v in values:
            q.insert(v)
        start = clock()
        q.drain()
        lap("drain")
    start = clock()
    sorting.dag_sort(g, values, order=order)
    lap("dag_sort")
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        cli.main(["sort", "--topology", "hypercube:14"])
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    lap("cli")
    return [seconds[phase] for phase in PHASES]


def main(argv: list[str]) -> int:
    rounds, checkouts = int(argv[0]), argv[1:]
    mods = [load(Path(c).resolve(), f"dagsort_split_{i}") for i, c in enumerate(checkouts)]
    times = [[[] for _ in PHASES] for _ in checkouts]  # [checkout][phase] -> seconds
    for r in range(rounds):
        rng = random.Random(r)
        values = [rng.randrange(2 << 14) for _ in range(1 << 14)]
        text = " ".join(map(str, values))
        for i in range(len(checkouts)):
            c = (r + i) % len(checkouts)
            for phase, seconds in zip(times[c], one_round(mods[c], values, text)):
                phase.append(seconds)
    report = {}
    for c, name in enumerate(checkouts):
        report[name] = {}
        for p, phase in enumerate(PHASES):
            if None in times[c][p]:  # a checkout without this phase
                report[name][phase] = None
                continue
            q1, median, q3 = statistics.quantiles(times[c][p], n=4, method="inclusive")
            report[name][phase] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                                   "ratio_to_first": None, "rounds_below_1": None}
            if None not in times[0][p]:
                ratios = [x / y for x, y in zip(times[c][p], times[0][p])]
                report[name][phase].update(ratio_to_first=statistics.median(ratios),
                                           rounds_below_1=sum(x < 1 for x in ratios))
    print(json.dumps({"rounds": rounds, "phases": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
