"""Acceptance gate: nine end-to-end contracts, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Each test runs at full volume (10^4-scale sweeps, sizes to 4096), so this
file takes on the order of a minute; the unit suites stay fast.
"""

import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path as FilePath

from dagsort import (
    INF,
    Hypercube,
    Path,
    Star,
    YoungGrid,
    build,
    dag_sort,
    entropy_bound_holds,
    hypercube_sort,
    hypercube_worst_case_closed,
    lower_label,
    raise_label,
    raise_label_via_reversal,
    stats,
    worst_case_input,
)
from dagsort.cli import make_pattern
from dagsort.random_dags import random_ordered_labels, random_single_source_dag
from dagsort.topologies import order_for

from support import (
    bad_edges,
    hypercube_worst_case_sum,
    longest_path_ending_at,
    longest_path_starting_at,
    replay_states,
)

DEMO_FIXTURE = str(FilePath(__file__).resolve().parent.parent / "fixtures" / "demo12.dag")


def _report(num: int, slug: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # visible even when pytest captures test output
        print(line, file=sys.__stdout__)
    assert ok, line


def test_1_exact_worst_case():
    # closed form, binomial sum, and the instrumented run must agree exactly
    start = time.perf_counter()
    ok = True
    for k in range(1, 15):
        t = Hypercube(k)
        closed = hypercube_worst_case_closed(k)
        summed = hypercube_worst_case_sum(k)
        g = build(t)
        rep = dag_sort(g, worst_case_input(t), order=order_for(g))
        if not (closed == summed == rep.insert_comparisons):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, "exact-worst-case", ok, f"k=1..14 in {elapsed:.2f}s")


def test_2_general_bound_sweep():
    sizes = list(range(1, 65)) + [96, 128, 192, 256, 384, 512, 768, 1024]
    grids = (
        [(2, s) for s in list(range(1, 25)) + [32, 48, 64]]
        + [(3, s) for s in (1, 2, 3, 4, 5, 6, 8, 12, 16)]
        + [(4, s) for s in (1, 2, 3, 4, 6, 8)]
    )
    topologies = (
        [Star(n) for n in sizes]
        + [Path(n) for n in sizes]
        + [YoungGrid(d, s) for d, s in grids]
        + [Hypercube(k) for k in range(13)]
    )
    runs = violations = seed = 0
    for t in topologies:
        g = build(t)
        order = order_for(g)
        s = stats(g)
        bound = g.n * s.longest_path * (s.max_in_degree + s.max_out_degree)
        repeats = 3 if g.n <= 2048 else 1
        for pattern in ("sorted", "reverse", "equal") + ("random",) * repeats:
            values = make_pattern(pattern, g.n, random.Random(seed))
            seed += 1
            rep = dag_sort(g, values, order=order)
            runs += 1
            if rep.total_comparisons > bound:
                violations += 1
    ok = runs >= 1000 and violations == 0
    _report(2, "general-bound", ok, f"{runs} runs to n=4096, {violations} violations")


def test_3_golden_trace():
    base = [
        sys.executable,
        "-m",
        "dagsort.cli",
        "trace",
        "--input",
        DEMO_FIXTURE,
        "--vertex",
        "9",
        "--new-label",
        "3",
    ]
    text1 = subprocess.run(base + ["--format", "text"], capture_output=True, text=True)
    text2 = subprocess.run(base + ["--format", "text"], capture_output=True, text=True)
    dot1 = subprocess.run(base, capture_output=True, text=True)
    dot2 = subprocess.run(base, capture_output=True, text=True)
    lines = text1.stdout.strip().split("\n")
    swaps = [line for line in lines if line.startswith("swap ")]
    moved = [int(line.rsplit("=", 1)[1]) for line in swaps]
    ok = (
        text1.returncode == 0
        and dot1.returncode == 0
        and len(swaps) == 5
        and moved == [10, 9, 8, 6, 4]
        and lines[-1] == "labels: 1 2 3 4 6 6 8 9 8 10 14 16"
        and text1.stdout == text2.stdout
        and dot1.stdout.count("digraph sift_") == 6
        and dot1.stdout == dot2.stdout
    )
    _report(3, "golden-trace", ok, "5 exchanges, 6 snapshots, byte-stable")


def test_4_sorting_oracle():
    start = time.perf_counter()
    rng = random.Random(41)
    runs = mismatches = 0

    def check(rep, values):
        nonlocal runs, mismatches
        runs += 1
        if rep.output != sorted(values):
            mismatches += 1

    def draw_size(r):
        # mostly small arrays, a thin tail up to the 1024 cap
        x = r.random()
        if x < 0.70:
            return r.randint(1, 16)
        if x < 0.92:
            return r.randint(17, 64)
        if x < 0.99:
            return r.randint(65, 256)
        return r.randint(257, 1024)

    def draw_values(r, n):
        if n and r.random() < 0.25:
            return [r.randrange(0, 5) for _ in range(n)]
        return [r.randrange(-n, n + 1) for _ in range(n)]

    def run_exact(t, values):
        g = build(t)
        check(dag_sort(g, values, order=order_for(g)), values)

    # pinned sizes: empty, singletons, and the 1024 cap on every family
    check(hypercube_sort([]), [])
    check(hypercube_sort([5]), [5])
    for t in (Star(1), Path(1), YoungGrid(2, 1)):
        run_exact(t, [-3])
    big = draw_values(rng, 1024)
    for t in (Star(1024), Path(1024), YoungGrid(2, 32)):
        run_exact(t, big)
    check(hypercube_sort(big), big)

    families = ("star", "path", "grid", "hypercube")
    while runs < 10_000:
        family = families[runs % 4]
        if family == "hypercube":
            values = draw_values(rng, draw_size(rng))
            check(hypercube_sort(values), values)
        elif family == "grid":
            dims = 2 if rng.random() < 0.7 else 3
            t = YoungGrid(dims, rng.randint(1, 32 if dims == 2 else 10))
            run_exact(t, draw_values(rng, t.side**t.dims))
        else:
            t = Star(draw_size(rng)) if family == "star" else Path(draw_size(rng))
            run_exact(t, draw_values(rng, t.n))
    elapsed = time.perf_counter() - start
    ok = runs == 10_000 and mismatches == 0 and elapsed < 60.0
    _report(4, "sorting-oracle", ok, f"{runs} arrays in {elapsed:.1f}s, {mismatches} mismatches")


def test_5_sift_property_suite():
    rng = random.Random(52)
    ops = state_checks = 0
    ok_ordered = ok_multiset = ok_steps = ok_invariant = True
    while ops < 10_000:
        g = random_single_source_dag(rng, rng.randint(1, 64))
        random_ordered_labels(rng, g, infinity_tail=rng.randint(0, 3))
        longest = stats(g).longest_path
        to_source = longest_path_ending_at(g)
        to_sinks = longest_path_starting_at(g)
        for _ in range(min(40, 10_000 - ops)):
            ops += 1
            v = rng.randrange(g.n)
            old = g.labels[v]
            lowering = old == INF or rng.random() < 0.55
            labels_before = list(g.labels)
            before = Counter(labels_before)
            if lowering:
                new = rng.randint(-50, 50) if old == INF else old - rng.randint(1, 12)
                trace = lower_label(g, v, new)
                if len(trace) > to_source[v]:
                    ok_steps = False
            else:
                new = old + rng.randint(1, 12)
                trace = raise_label(g, v, new)
                if len(trace) > to_sinks[v]:
                    ok_steps = False
            if ops % 3 == 0:
                # both halves of the loop invariant, at every state of the sift
                for state, current in replay_states(g, labels_before, v, new, trace):
                    state_checks += 1
                    bad = bad_edges(state)
                    ends_ok = all((e[1] if lowering else e[0]) == current for e in bad)
                    ps = [state.labels[p] for p in state.prev_adj[current]]
                    ns = [state.labels[x] for x in state.next_adj[current]]
                    pn_ok = not ps or not ns or max(ps) <= min(ns)
                    if not (ends_ok and pn_ok):
                        ok_invariant = False
                if state.labels != g.labels:
                    ok_invariant = False
            if len(trace) > longest:
                ok_steps = False
            if not g.is_ordered():
                ok_ordered = False
            before[old] -= 1
            before[new] += 1
            if +before != Counter(g.labels):
                ok_multiset = False
    ok = (
        ok_ordered
        and ok_multiset
        and ok_steps
        and ok_invariant
        and ops == 10_000
        and state_checks >= 1000
    )
    _report(5, "sift-invariants", ok, f"{ops} ops, {state_checks} replayed states")


def test_6_raise_reversal_equivalence():
    rng = random.Random(63)
    ok = True
    for _ in range(1000):
        g = random_single_source_dag(rng, rng.randint(1, 64))
        random_ordered_labels(rng, g)
        twin = g.copy()
        v = rng.randrange(g.n)
        new = g.labels[v] + rng.randint(1, 20)
        direct = raise_label(g, v, new)
        mirrored = raise_label_via_reversal(twin, v, new)
        if g.labels != twin.labels or direct != mirrored:
            ok = False
            break
    _report(6, "raise-equivalence", ok, "1000 instances, n <= 64")


def test_7_entropy_bound():
    sizes = [2, 3, 4, 5, 8, 13, 16, 32, 64, 100, 128, 256, 512, 777, 1024, 2048, 3000, 4096]
    topologies = (
        [Star(n) for n in sizes]
        + [Path(n) for n in sizes]
        + [YoungGrid(2, s) for s in (2, 3, 4, 6, 8, 12, 16, 23, 32, 48, 64)]
        + [YoungGrid(3, s) for s in (2, 3, 4, 6, 8, 12, 16)]
        + [YoungGrid(4, s) for s in (2, 3, 4, 6, 8)]
        + [Hypercube(k) for k in range(1, 13)]
    )
    ok = True
    checked = 0
    for t in topologies:
        checked += 1
        if not entropy_bound_holds(stats(build(t))).ok:
            ok = False
    rng = random.Random(74)
    for _ in range(1000):
        g = random_single_source_dag(rng, rng.randint(2, 256))
        checked += 1
        if not entropy_bound_holds(stats(g)).ok:
            ok = False
    _report(7, "entropy-bound", ok, f"{checked} instances, families to n=4096")


def test_8_hypercube_structure():
    ok = True
    for k in range(13):
        g = build(Hypercube(k))
        layers = Counter()
        for u in range(g.n):
            m = u.bit_count()
            layers[m] += 1
            if len(g.prev_adj[u]) != m or len(g.next_adj[u]) != k - m:
                ok = False
            # every edge raises the popcount by one, so every source-to-u
            # path has exactly popcount(u) edges
            for w in g.next_adj[u]:
                if w.bit_count() != m + 1:
                    ok = False
        if any(layers[m] != math.comb(k, m) for m in range(k + 1)):
            ok = False
        dist = [-1] * g.n
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.next_adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if any(dist[u] != u.bit_count() for u in range(g.n)):
            ok = False
    _report(8, "hypercube-structure", ok, "k <= 12: degrees, layers, distances")


def test_9_asymptotic_slope():
    rng = random.Random(20260814)
    xs, ys = [], []
    for k in range(6, 15):
        n = 1 << k
        values = [rng.randrange(10 * n) for _ in range(n)]
        t = Hypercube(k)
        g = build(t)
        rep = dag_sort(g, values, order=order_for(g))
        xs.append(math.log(n * math.log2(n) ** 2))
        ys.append(math.log(rep.total_comparisons))
    slope = statistics.linear_regression(xs, ys).slope
    ok = 0.9 <= slope <= 1.1
    _report(9, "asymptotic-slope", ok, f"slope {slope:.4f} over k=6..14")
