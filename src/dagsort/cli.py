"""Command-line front end: sort, bench, verify, trace.

Standard output carries data only (sorted values, CSV rows, PASS/FAIL
lines, DOT text); diagnostics and the sort stats line go to standard error.
Exit codes: 0 success, 1 verify failure, 2 unusable input or configuration,
3 input length mismatch, 4 trace precondition violated. A command admits
its input, refusing it by raising, and returns the step that computes and
writes the output; ``main`` holds the one table from exception type to exit
code and prints the one ``error: <message>`` line.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import demo
from .analysis import (
    entropy_bound_holds,
    general_bound,
    hypercube_worst_case_closed,
    stats,
)
from .dag import INF, MAX_DIMS, MAX_ENTRIES, LabeledDag, format_label, parse_dag_text
from .errors import CycleError, SizeMismatchError
from .random_dags import random_ordered_labels, random_single_source_dag
from .reorder import format_trace, lower_label, raise_label, raise_label_via_reversal
from .sorting import dag_sort, hypercube_sort
from .topologies import Hypercube, Topology, build, order_for, parse_topology
from .tracefmt import dot_snapshots

PATTERNS = ("random", "sorted", "reverse", "equal")
_READ_CHUNK = 1 << 20  # characters per read of `sort` input
# the largest cube within MAX_ENTRIES: hypercube:k has 2^(k-1)*(k+2) vertices plus edges
_LARGEST_CUBE = 1 << max(k for k in range(MAX_DIMS + 1) if (k + 2) << k <= 2 * MAX_ENTRIES)


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


def _read_values(path: str, limit: int) -> tuple[list[int], bool]:
    """The integers of a file, or of stdin for "-", read a chunk at a time
    until the input ends or more than ``limit`` are held. The flag says
    whether the input ended, so that the list holds all of it."""
    values: list[int] = []
    cut = ""  # the start of a token the last chunk ended inside
    with open(path) if path != "-" else nullcontext(sys.stdin) as stream:
        while True:
            chunk = stream.read(_READ_CHUNK)
            ended = len(chunk) < _READ_CHUNK
            words = (cut + chunk).split()
            cut = "" if ended or chunk[-1].isspace() else words.pop()
            values += map(int, words)
            if ended or len(values) > limit:
                return values, ended
            if len(cut) > _READ_CHUNK:
                raise ValueError(f"a value longer than {_READ_CHUNK} characters")


class _TracePreconditionError(Exception):
    """The DAG given to ``trace`` is not ordered, or the label does not lower."""


def cmd_sort(args):
    if args.topology == "hypercube":
        t, limit = None, _LARGEST_CUBE  # bare family name: auto-size to the input
    else:
        t = parse_topology(args.topology)
        limit = t.capacity
    values, ended = _read_values(args.input, limit)
    bare = t is None
    if bare:
        if not ended:
            raise OverflowError(f"more than {limit} values")
        t = Hypercube.fitting(len(values))
    elif not ended:
        raise SizeMismatchError(f"more than {limit} values")
    elif len(values) != limit:  # refuse before build allocates the vertices
        raise SizeMismatchError(f"{len(values)} values for {limit} vertices")

    def run() -> int:
        if bare:
            report = hypercube_sort(values)
        else:
            g = build(t)
            report = dag_sort(g, values, order=order_for(g))
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

    return run


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


def cmd_bench(args):
    topologies = _bench_topologies(args)
    patterns = tuple(p.strip() for p in args.pattern.split(","))
    for p in patterns:
        if p not in PATTERNS:
            raise ValueError(f"unknown pattern {p!r}")

    def run() -> int:
        print(
            "topology,n,pattern,seed,insert_cmp,remove_cmp,total_cmp,bound,"
            "worst_case_formula"
        )
        row_seed = args.seed
        for t in topologies:
            g = build(t)
            order = order_for(g)
            bound = general_bound(t.stats())
            formula = (
                str(hypercube_worst_case_closed(t.dims)) if isinstance(t, Hypercube) else ""
            )
            for pattern in patterns:
                values = make_pattern(pattern, g.n, random.Random(row_seed))
                report = dag_sort(g, values, order=order)
                print(
                    f"{t},{g.n},{pattern},{row_seed},"
                    f"{report.insert_comparisons},{report.remove_comparisons},"
                    f"{report.total_comparisons},{bound},{formula}"
                )
                row_seed += 1
        return 0

    return run


def cmd_trace(args):
    g = parse_dag_text(Path(args.input).read_text())
    if not 0 <= args.vertex < g.n:
        raise ValueError(f"vertex {args.vertex} out of range")
    try:
        new_label = int(args.new_label)
    except ValueError:
        raise ValueError(f"bad label {args.new_label!r}") from None

    if not g.is_ordered():
        raise _TracePreconditionError("DAG is not ordered")
    if not new_label < g.labels[args.vertex]:
        raise _TracePreconditionError(
            f"{new_label} does not lower label "
            f"{format_label(g.labels[args.vertex])} at vertex {args.vertex}"
        )

    def run() -> int:
        labels_before = list(g.labels)
        trace = lower_label(g, args.vertex, new_label)
        if args.format == "text":
            sys.stdout.write(format_trace(trace))
            print("labels: " + " ".join(format_label(l) for l in g.labels))
            return 0
        snapshots = dot_snapshots(g, labels_before, new_label, trace)
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            # a longer earlier sift's snapshots would outlive this one's
            for old in out_dir.glob("sift_*.dot"):
                if re.fullmatch(r"sift_[0-9]+\.dot", old.name):
                    old.unlink()
            for i, snap in enumerate(snapshots):
                (out_dir / f"sift_{i:03d}.dot").write_text(snap)
            print(f"wrote {len(snapshots)} snapshots to {out_dir}", file=sys.stderr)
        else:
            sys.stdout.writelines(snapshots)
        return 0

    return run


# verify suites: small randomized self-checks with a fixed default seed


def _verify_dags(rng: random.Random, n: int) -> tuple[LabeledDag, LabeledDag]:
    """A random single-source DAG on n vertices, and a tree or a chain on n
    vertices in a random id order, so the sift suites run the neighbour
    scans and the one-neighbour loops alike."""
    dense = random_single_source_dag(rng, n)
    if rng.randrange(2):
        return dense, random_single_source_dag(rng, n, extra_edges=0)
    ids = rng.sample(range(n), n)
    return dense, LabeledDag.from_edges(n, zip(ids, ids[1:]))


def _verify_sift_properties(seed: int, runs: int) -> tuple[bool, bool]:
    rng = random.Random(seed)
    ordered_ok = multiset_ok = True
    for _ in range(runs):
        for g in _verify_dags(rng, rng.randint(1, 40)):
            random_ordered_labels(rng, g, infinity_tail=rng.randint(0, 2))
            for _ in range(8):
                v = rng.randrange(g.n)
                old = g.labels[v]
                before = Counter(g.labels)
                if old == INF or (rng.random() < 0.5 and old > -(10**6)):
                    new = rng.randint(-100, 100) if old == INF else old - rng.randint(1, 10)
                    lower_label(g, v, new)
                else:
                    new = old + rng.randint(1, 10)
                    raise_label(g, v, new)
                before[old] -= 1
                before[new] += 1
                if not g.is_ordered():
                    ordered_ok = False
                if +before != +Counter(g.labels):
                    multiset_ok = False
    return ordered_ok, multiset_ok


def _verify_raise_equivalence(seed: int, runs: int) -> bool:
    rng = random.Random(seed)
    for _ in range(runs):
        for g in _verify_dags(rng, rng.randint(1, 40)):
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
    g = demo.demo_dag()
    trace = lower_label(g, 9, 3)
    if trace.path != [9, 7, 8, 5, 3, 2] or trace.moved != [10, 9, 8, 6, 4]:
        return False
    if g.labels != [1, 2, 3, 4, 6, 6, 8, 9, 8, 10, 14, 16]:
        return False
    rerun = lower_label(demo.demo_dag(), 9, 3)
    return format_trace(rerun) == format_trace(trace)


def cmd_verify(args):
    def run() -> int:  # nothing to admit: every suite is a check of the program
        ordered_ok, multiset_ok = _verify_sift_properties(args.seed, args.runs)
        suites = [
            ("ordered-after-sift", ordered_ok),
            ("multiset-conservation", multiset_ok),
            ("raise-equivalence", _verify_raise_equivalence(args.seed + 1, args.runs)),
            ("entropy-bound", _verify_entropy_bound(args.seed + 2, args.runs)),
            ("golden-trace", _verify_golden_trace()),
        ]
        for name, ok in suites:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        return 0 if all(ok for _, ok in suites) else 1

    return run


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
    """Run one command, reporting a refusal. Past admission only a failed
    read or write (``OSError``) is one; every other exception is a fault
    and propagates."""
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = args.func(args)
        return run()
    except (OSError, ValueError, OverflowError, CycleError) as exc:
        refusal, code = exc, 2
    except SizeMismatchError as exc:
        refusal, code = exc, 3
    except _TracePreconditionError as exc:
        refusal, code = exc, 4
    if run is not None and not isinstance(refusal, OSError):
        raise refusal  # a fault in the computation, not a refusal
    print(f"error: {refusal}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
