"""Command-line front end: sort, bench, verify, trace.

Standard output carries data only (sorted values, CSV rows, PASS/FAIL
lines, DOT text); diagnostics and the sort stats line go to standard error.
Exit codes: 0 success, 1 verify failure, 2 unusable input or configuration,
3 input length mismatch, 4 trace precondition violated.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .analysis import (
    entropy_bound_holds,
    general_bound,
    hypercube_worst_case_closed,
    stats,
)
from .dag import INF, LabeledDag, format_label, parse_dag_text
from .errors import CycleError, NotLoweringError, SizeMismatchError
from .random_dags import random_ordered_labels, random_single_source_dag
from .reorder import format_trace, lower_label, raise_label, raise_label_via_reversal
from .sorting import dag_sort, hypercube_sort
from .topologies import Hypercube, Topology, build, order_for, parse_topology
from .tracefmt import dot_snapshots

PATTERNS = ("random", "sorted", "reverse", "equal")


def make_pattern(pattern: str, n: int, rng: random.Random) -> list[int]:
    if pattern == "random":
        return [rng.randrange(0, max(2 * n, 2)) for _ in range(n)]
    if pattern == "sorted":
        return list(range(n))
    if pattern == "reverse":
        return list(range(n, 0, -1))
    if pattern == "equal":
        return [7] * n
    raise ValueError(f"unknown pattern {pattern!r}")


def _read_values(path: str) -> list[int]:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return list(map(int, text.split()))


def cmd_sort(args) -> int:
    try:
        values = _read_values(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.topology == "hypercube":
            # bare family name: auto-size to the input
            report = hypercube_sort(values)
            t = report.topology
        else:
            t = parse_topology(args.topology)
            n = t.capacity
            if len(values) != n:  # refuse before build allocates n vertices
                raise SizeMismatchError(f"{len(values)} values for {n} vertices")
            g = build(t)
            report = dag_sort(g, values, order=order_for(t, g), topology=t)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if report.output:
        print(" ".join(map(str, report.output)))
    # a bare hypercube may be only partly filled: bound the values actually sorted
    bound = general_bound(replace(t.stats(), n=len(report.output)))
    print(
        f"n={len(report.output)} topology={t} "
        f"insert_cmp={report.insert_comparisons} "
        f"remove_cmp={report.remove_comparisons} "
        f"total={report.total_comparisons} bound={bound}",
        file=sys.stderr,
    )
    return 0


def _bench_topologies(args) -> list[Topology]:
    specs = []
    for part in args.topology.split(","):
        part = part.strip()
        if ":" in part:
            specs.append(part)
        elif args.sizes:
            specs.extend(f"{part}:{size.strip()}" for size in args.sizes.split(","))
        else:
            raise ValueError(f"bare family {part!r} needs --sizes")
    return [parse_topology(spec) for spec in specs]


def cmd_bench(args) -> int:
    try:
        topologies = _bench_topologies(args)
        patterns = tuple(p.strip() for p in args.pattern.split(","))
        for p in patterns:
            if p not in PATTERNS:
                raise ValueError(f"unknown pattern {p!r}")
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        "topology,n,pattern,seed,insert_cmp,remove_cmp,total_cmp,bound,"
        "worst_case_formula"
    )
    row_seed = args.seed
    for t in topologies:
        g = build(t)
        order = order_for(t, g)
        bound = general_bound(t.stats())
        formula = (
            str(hypercube_worst_case_closed(t.dims)) if isinstance(t, Hypercube) else ""
        )
        for pattern in patterns:
            values = make_pattern(pattern, g.n, random.Random(row_seed))
            report = dag_sort(g, values, order=order, topology=t)
            print(
                f"{t},{g.n},{pattern},{row_seed},"
                f"{report.insert_comparisons},{report.remove_comparisons},"
                f"{report.total_comparisons},{bound},{formula}"
            )
            row_seed += 1
    return 0


def cmd_trace(args) -> int:
    try:
        g = parse_dag_text(Path(args.input).read_text())
    except (OSError, ValueError, CycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 <= args.vertex < g.n:
        print(f"error: vertex {args.vertex} out of range", file=sys.stderr)
        return 2
    try:
        new_label = int(args.new_label)
    except ValueError:
        print(f"error: bad label {args.new_label!r}", file=sys.stderr)
        return 2

    if not g.is_ordered():
        print("error: DAG is not ordered", file=sys.stderr)
        return 4
    if not new_label < g.labels[args.vertex]:
        print(
            f"error: {new_label} does not lower label "
            f"{format_label(g.labels[args.vertex])} at vertex {args.vertex}",
            file=sys.stderr,
        )
        return 4

    labels_before = list(g.labels)
    trace = lower_label(g, args.vertex, new_label)

    if args.format == "text":
        sys.stdout.write(format_trace(trace))
        print("labels: " + " ".join(format_label(l) for l in g.labels))
        return 0
    snapshots = dot_snapshots(g, labels_before, args.vertex, new_label, trace)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, snap in enumerate(snapshots):
            (out_dir / f"sift_{i:03d}.dot").write_text(snap)
        print(f"wrote {len(snapshots)} snapshots to {out_dir}", file=sys.stderr)
    else:
        sys.stdout.writelines(snapshots)
    return 0


# verify suites: small randomized self-checks with a fixed default seed


def _verify_sift_properties(seed: int, runs: int) -> tuple[bool, bool]:
    rng = random.Random(seed)
    ordered_ok = True
    multiset_ok = True
    for _ in range(runs):
        g = random_single_source_dag(rng, rng.randint(1, 40))
        random_ordered_labels(rng, g, infinity_tail=rng.randint(0, 2))
        for _ in range(8):
            v = rng.randrange(g.n)
            old = g.labels[v]
            before = g.labels_multiset()
            if old == INF or (rng.random() < 0.5 and old > -(10**6)):
                new = (
                    rng.randint(-100, 100)
                    if old == INF
                    else old - rng.randint(1, 10)
                )
                lower_label(g, v, new)
            else:
                new = old + rng.randint(1, 10)
                raise_label(g, v, new)
            before[old] -= 1
            before[new] += 1
            if not g.is_ordered():
                ordered_ok = False
            if +before != +g.labels_multiset():
                multiset_ok = False
    return ordered_ok, multiset_ok


def _verify_raise_equivalence(seed: int, runs: int) -> bool:
    rng = random.Random(seed)
    for _ in range(runs):
        g = random_single_source_dag(rng, rng.randint(1, 40))
        random_ordered_labels(rng, g)
        twin = g.copy()
        v = rng.randrange(g.n)
        new = g.labels[v] + rng.randint(1, 15)
        direct = raise_label(g, v, new)
        reversed_run = raise_label_via_reversal(twin, v, new)
        if g.labels != twin.labels or direct != reversed_run:
            return False
    return True


def _verify_entropy_bound(seed: int, runs: int) -> bool:
    rng = random.Random(seed)
    for spec in ("star:64", "path:64", "grid:2:8", "hypercube:6"):
        if not entropy_bound_holds(parse_topology(spec).stats()).ok:
            return False
    for _ in range(runs):
        g = random_single_source_dag(rng, rng.randint(2, 128))
        if not entropy_bound_holds(stats(g)).ok:
            return False
    return True


def _verify_golden_trace() -> bool:
    from .demo import demo_dag

    g = demo_dag()
    trace = lower_label(g, 9, 3)
    if trace.path != [9, 7, 8, 5, 3, 2] or trace.moved != [10, 9, 8, 6, 4]:
        return False
    if g.labels != [1, 2, 3, 4, 6, 6, 8, 9, 8, 10, 14, 16]:
        return False
    rerun = lower_label(demo_dag(), 9, 3)
    return format_trace(rerun) == format_trace(trace)


def cmd_verify(args) -> int:
    ordered_ok, multiset_ok = _verify_sift_properties(args.seed, args.runs)
    suites = [
        ("ordered-after-sift", ordered_ok),
        ("multiset-conservation", multiset_ok),
        ("raise-equivalence", _verify_raise_equivalence(args.seed + 1, args.runs)),
        ("entropy-bound", _verify_entropy_bound(args.seed + 2, args.runs)),
        ("golden-trace", _verify_golden_trace()),
    ]
    failed = False
    for name, ok in suites:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagsort", description="sorting through DAG-shaped priority queues"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort whitespace-separated integers")
    p_sort.add_argument(
        "--topology",
        default="hypercube",
        help="family spec like star:8, path:8, grid:2:3, hypercube:3; "
        "bare 'hypercube' auto-sizes to the input",
    )
    p_sort.add_argument("--input", default="-", help="file path or - for stdin")
    p_sort.set_defaults(func=cmd_sort)

    p_bench = sub.add_parser("bench", help="comparison-count sweep as CSV")
    p_bench.add_argument(
        "--topology",
        required=True,
        help="comma-separated specs, or a bare family combined with --sizes",
    )
    p_bench.add_argument(
        "--sizes", default="", help="comma-separated size parameters for a bare family"
    )
    p_bench.add_argument("--pattern", default="random", help="comma-separated patterns")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="randomized invariant self-checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--runs", type=int, default=100)
    p_verify.set_defaults(func=cmd_verify)

    p_trace = sub.add_parser("trace", help="render one lowering sift")
    p_trace.add_argument("--input", required=True, help="DAG file in the text format")
    p_trace.add_argument("--vertex", type=int, required=True)
    p_trace.add_argument("--new-label", required=True)
    p_trace.add_argument("--format", choices=("dot", "text"), default="dot")
    p_trace.add_argument("--out", default="", help="directory for one .dot per snapshot")
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
