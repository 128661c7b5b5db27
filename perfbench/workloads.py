"""The four workloads: inputs made from the seed, one measured pass, checks.

A pass is fixed for a run: the same inputs, in the same order, every time.
Each workload checks a pass's outputs with ``oracles`` and remembers the
verdict by output, so a pass whose outputs equal an earlier pass's is
judged without checking again. ``expected_counts`` gives the comparisons
and exchanges one pass must make, from a source other than the program's
counters, for the traced run to compare its tallies with.
"""

from __future__ import annotations

import hashlib
import io
from array import array
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles

clock = time.perf_counter


@dataclass
class Verdict:
    """Outcome of checking one pass: operations attempted, operations that
    raised or exited non-zero (errors), operations whose output an oracle
    rejected, and a note for each failure."""

    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    notes: list[str] = field(default_factory=list)

    def reject(self, note: str) -> None:
        self.rejected += 1
        self.notes.append(note)


def call_cli(cli, argv: list[str], stdin_text: str = "") -> tuple[int, str, str, float]:
    """Run ``dagsort.cli.main`` in-process with stdin, stdout and stderr
    swapped for in-memory buffers; returns (exit code, out, err, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    start = clock()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        elapsed = clock() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def parse_stats(err: str) -> dict[str, int]:
    """The ``key=value`` integers on the stats line ``dagsort sort`` prints."""
    fields = {}
    for token in err.split():
        key, _, value = token.partition("=")
        if value.isdigit():
            fields[key] = int(value)
    return fields


def random_dag_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Single-source DAG on 0..n-1: a random parent below each vertex, then
    up to ``extra`` more random forward pairs (duplicates skipped)."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    for _ in range(extra):
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    return edges


def layered_dag_edges(rng: random.Random, layers: int, width: int) -> list[tuple[int, int]]:
    """Vertex 0 above ``layers`` layers of ``width`` vertices. Layer 1 hangs
    off vertex 0; below it, vertex j of a layer has three parents in the
    layer above: vertex j there and two more picked at random. So every
    vertex has a child in the next layer, and every path from a vertex of
    the last layer to 0 has exactly ``layers`` edges."""
    edges = [(0, v) for v in range(1, width + 1)]
    for layer in range(1, layers):
        above = range(1 + (layer - 1) * width, 1 + layer * width)
        for j in range(width):
            v = 1 + layer * width + j
            others = rng.sample([u for u in above if u != above[j]], 2)
            edges += [(u, v) for u in sorted([above[j], *others])]
    return edges


class CliWorkload:
    """A pass is a fixed list of ``cli.main`` calls; one call is one
    operation, and its latency is the op latency."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        self.calls: list[tuple[list[str], str]] = []
        self._verdicts: dict = {}

    def run_pass(self, mods):
        cli = mods["cli"]
        outputs, latencies = [], []
        for argv, stdin_text in self.calls:
            code, out, err, elapsed = call_cli(cli, argv, stdin_text)
            outputs.append((code, out, err))
            latencies.append(elapsed)
        return sum(latencies), latencies, outputs

    def collect(self, raw):
        return raw

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        for i, (code, out, err) in enumerate(outputs):
            key = (i, code, hashlib.sha256(out.encode()).digest(), err)
            if key not in self._verdicts:
                self._verdicts[key] = (
                    f"exit code {code}" if code != 0 else self.check_call(i, out, err)
                )
            note = self._verdicts[key]
            verdict.attempted += 1
            if note is None:
                continue
            if code != 0:
                verdict.errors += 1
                verdict.notes.append(f"{self.name} call {i}: {note}")
            else:
                verdict.reject(f"{self.name} call {i}: {note}")
        return verdict

    def program_comparisons(self, outputs) -> int | None:
        return sum(parse_stats(err).get("total", 0) for _, _, err in outputs)


class PathInsertion(CliWorkload):
    """``dagsort sort --topology path:N`` on seeded random values."""

    name = "path-insertion"

    def make_inputs(self) -> None:
        self.n = 16 if self.tiny else 1024
        rng = random.Random(self.seed)
        self.values = [rng.randrange(2 * self.n) for _ in range(self.n)]
        text = " ".join(map(str, self.values))
        self.calls = [(["sort", "--topology", f"path:{self.n}"], text)]

    def check_call(self, i, out, err):
        if out.split() != [str(v) for v in sorted(self.values)]:
            return "output is not the input sorted"
        stats = parse_stats(err)
        insert, remove, _ = oracles.path_counts(self.values)
        if stats.get("insert_cmp") != insert:
            return f"insert_cmp {stats.get('insert_cmp')} != {insert}"
        if stats.get("remove_cmp") != remove:
            return f"remove_cmp {stats.get('remove_cmp')} != {remove}"
        return None

    def expected_counts(self, outputs) -> tuple[int, int]:
        insert, remove, exchanges = oracles.path_counts(self.values)
        return insert + remove, exchanges


class HypercubeSubset(CliWorkload):
    """``dagsort sort --topology hypercube:K`` on a seeded random input and
    on the strictly decreasing input."""

    name = "hypercube-subset"

    def make_inputs(self) -> None:
        self.k = 4 if self.tiny else 14
        n = 1 << self.k
        rng = random.Random(self.seed)
        self.inputs = [[rng.randrange(2 * n) for _ in range(n)], list(range(n, 0, -1))]
        argv = ["sort", "--topology", f"hypercube:{self.k}"]
        self.calls = [(argv, " ".join(map(str, vals))) for vals in self.inputs]

    def check_call(self, i, out, err):
        values = self.inputs[i]
        if out.split() != [str(v) for v in sorted(values)]:
            return "output is not the input sorted"
        stats = parse_stats(err)
        k, n = self.k, len(values)
        total = stats.get("total", -1)
        if total != stats.get("insert_cmp", -1) + stats.get("remove_cmp", -1):
            return "total != insert_cmp + remove_cmp"
        if not 0 <= total <= n * k * 2 * k:
            return f"total {total} outside [0, n*k*2k]"
        if i == 1 and stats.get("insert_cmp") != oracles.hypercube_decreasing_insert(k):
            return f"decreasing insert_cmp {stats.get('insert_cmp')} != closed form"
        return None

    def expected_counts(self, outputs) -> tuple[int, int]:
        n = 1 << self.k
        prev = [[v ^ (1 << b) for b in range(self.k) if v >> b & 1] for v in range(n)]
        nxt = [[v | (1 << b) for b in range(self.k) if not v >> b & 1] for v in range(n)]
        for lst in prev:
            lst.sort()
        order = sorted(range(n), key=lambda v: (bin(v).count("1"), v))
        comparisons = exchanges = 0
        for values in self.inputs:
            c, e = oracles.sort_counts(prev, nxt, order, values)
            comparisons += c
            exchanges += e
        return comparisons, exchanges


class TraceRender(CliWorkload):
    """``dagsort trace --format dot`` on seeded random ordered-labelled DAG
    files; each call lowers the largest label below every other label.

    The DAGs are layered (see ``layered_dag_edges``) and labels rise
    strictly along every edge, so the largest label sits in the last layer
    and every sift is exactly ``layers`` exchanges long: the work per call
    does not depend on the seed, only the labels and edges do.
    """

    name = "trace-render"

    def make_inputs(self) -> None:
        files, layers, width = (3, 4, 5) if self.tiny else (20, 19, 21)
        n = 1 + layers * width
        rng = random.Random(self.seed)
        self.n = n
        self.cases = []
        self.calls = []
        for f in range(files):
            edges = sorted(layered_dag_edges(rng, layers, width))
            prev, _ = oracles.adjacency(n, edges)
            labels = [rng.randrange(-20, 20)]
            for v in range(1, n):
                labels.append(max(labels[u] for u in prev[v]) + rng.randrange(1, 6))
            vertex = labels.index(max(labels))
            new_label = min(labels) - 1
            path = self.workdir / f"dag_{f:02d}.txt"
            path.write_text(
                f"{n} {len(edges)}\n"
                + "".join(f"{u} {v}\n" for u, v in edges)
                + "labels: "
                + " ".join(map(str, labels))
                + "\n"
            )
            edge_block = "".join(f"  {u} -> {v};\n" for u, v in edges) + "}\n"
            self.cases.append(
                (edges, prev, [str(x) for x in labels], vertex, str(new_label), edge_block)
            )
            argv = ["trace", "--input", str(path), "--vertex", str(vertex)]
            argv += ["--new-label", str(new_label), "--format", "dot"]
            self.calls.append((argv, ""))

    def check_call(self, i, out, err):
        edges, _, labels, vertex, new_label, edge_block = self.cases[i]
        try:
            snapshots = oracles.parse_dot(out, self.n)
        except ValueError as exc:
            return f"unreadable DOT: {exc}"
        return oracles.check_sift_snapshots(
            snapshots, labels, vertex, new_label, edges, edge_block
        )

    def program_comparisons(self, outputs) -> int | None:
        return None  # `dagsort trace` prints no comparison count

    def expected_counts(self, outputs) -> tuple[int, int]:
        """Read off the untraced output: one exchange per snapshot after the
        first, and a scan of every previous neighbour of each vertex the
        sifted label occupied (the gray vertex of each snapshot)."""
        comparisons = exchanges = 0
        for (_, out, _), (_, prev, *_) in zip(outputs, self.cases):
            snapshots = oracles.parse_dot(out, self.n)
            exchanges += len(snapshots) - 1
            comparisons += sum(len(prev[gray]) for _, gray, _ in snapshots)
        return comparisons, exchanges


INSERT, REMOVE, LOWER, RAISE = range(4)
CHURN_GRAPH_SEED = 20171003


@dataclass(frozen=True)
class ChurnOutputs:
    removed: tuple  # remove_min results, in order
    targeted: tuple  # (vertex, old label, new label) of lower/raise_label_at
    errors: tuple  # (op index, exception text)
    labels: tuple  # labels after the pass
    length: int  # len(queue) after the pass
    comparisons: int  # queue.counter after the pass
    drained: tuple  # remove_min until empty, after the pass


class QueueChurn:
    """``OrderedDagQueue`` on a seeded random non-graded single-source DAG:
    fill halfway, then a fixed stream of interleaved inserts, remove-mins
    and targeted lowerings and raisings. One queue call is one operation."""

    name = "queue-churn"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self._verdicts: dict = {}

    def make_inputs(self) -> None:
        n, ops = (64, 2000) if self.tiny else (4096, 50_000)
        # The graph is drawn from a fixed seed: how much work a pass does
        # depends strongly on the graph (the comparisons of 200 000 calls
        # ranged over 10.4-12.1 M across six graphs), so every run measures
        # the same one. --seed draws the labels and the operation stream.
        self.n = n
        self.edges = random_dag_edges(random.Random(CHURN_GRAPH_SEED), n, 2 * n)
        rng = random.Random(self.seed)
        self.fill = [rng.randrange(1 << 20) for _ in range(n // 2)]
        # Occupancy is kept within [n/4, 3n/4] by turning an insert or a
        # remove-min that would leave it into the other, so no op can hit a
        # full or empty queue and targeted ops always find a label.
        size = len(self.fill)
        stream = []
        for _ in range(ops):
            r = rng.random()
            kind = INSERT if r < 0.4 else REMOVE if r < 0.8 else LOWER if r < 0.9 else RAISE
            if kind == INSERT and size >= 3 * n // 4:
                kind = REMOVE
            elif kind == REMOVE and size <= n // 4:
                kind = INSERT
            size += (kind == INSERT) - (kind == REMOVE)
            arg = rng.randrange(1 << 20) if kind == INSERT else rng.randrange(n)
            stream.append((kind, arg, rng.randrange(1, 1 << 10)))
        self.ops = stream

    def run_pass(self, mods):
        inf = mods["dag"].INF
        n = self.n
        start = clock()
        g = mods["dag"].LabeledDag.from_edges(n, self.edges)
        queue = mods["pqueue"].OrderedDagQueue(g)
        for x in self.fill:
            queue.insert(x)
        labels = g.labels
        insert, remove_min = queue.insert, queue.remove_min
        lower_at, raise_at = queue.lower_label_at, queue.raise_label_at
        removed, targeted, errors = [], [], []
        latencies = array("d", bytes(8 * len(self.ops)))
        for i, (kind, arg, delta) in enumerate(self.ops):
            try:
                if kind == INSERT:
                    t0 = clock()
                    insert(arg)
                    t1 = clock()
                elif kind == REMOVE:
                    t0 = clock()
                    x = remove_min()
                    t1 = clock()
                    removed.append(x)
                else:
                    v = arg
                    while labels[v] == inf:  # the first held label from arg on
                        v = v + 1 if v + 1 < n else 0
                    old = labels[v]
                    new = old - delta if kind == LOWER else old + delta
                    targeted.append((v, old, new))
                    t0 = clock()
                    (lower_at if kind == LOWER else raise_at)(v, new)
                    t1 = clock()
            except Exception as exc:  # counted as a failed operation
                errors.append((i, f"{type(exc).__name__}: {exc}"))
                t0 = t1 = clock()
            latencies[i] = t1 - t0
        return clock() - start, latencies, (queue, removed, targeted, errors)

    def collect(self, raw) -> ChurnOutputs:
        queue, removed, targeted, errors = raw
        labels = tuple(queue.dag.labels)
        length, comparisons = len(queue), queue.counter.count
        drained = []
        while len(queue):
            drained.append(queue.remove_min())
        return ChurnOutputs(
            tuple(removed), tuple(targeted), tuple(errors), labels, length,
            comparisons, tuple(drained),
        )

    def check(self, out: ChurnOutputs) -> Verdict:
        if out not in self._verdicts:
            self._verdicts[out] = self._check(out)
        return self._verdicts[out]

    def _check(self, out: ChurnOutputs) -> Verdict:
        verdict = Verdict(attempted=len(self.ops), errors=len(out.errors))
        verdict.notes += [f"op {i}: {text}" for i, text in out.errors]
        if out.errors:
            return verdict  # the streams no longer line up with the ops
        oracle = oracles.MultisetOracle()
        for x in self.fill:
            oracle.add(x)
        removed, targeted = iter(out.removed), iter(out.targeted)
        for i, (kind, arg, _) in enumerate(self.ops):
            if kind == INSERT:
                oracle.add(arg)
            elif kind == REMOVE:
                got, want = next(removed), oracle.pop_min()
                if got != want:
                    verdict.reject(f"op {i}: remove_min gave {got}, oracle min {want}")
            else:
                v, old, new = next(targeted)
                if not oracle.discard(old):
                    verdict.reject(f"op {i}: vertex {v} held {old}, not in the queue")
                oracle.add(new)
        if out.length != oracle.size:
            verdict.reject(f"len {out.length} != oracle size {oracle.size}")
        if not oracles.is_ordered(out.labels, self.edges):
            verdict.reject("labels are not ordered after the pass")
        if list(out.drained) != oracle.sorted_items():
            verdict.reject("draining did not yield the oracle's multiset in order")
        return verdict

    def program_comparisons(self, out: ChurnOutputs) -> int | None:
        return out.comparisons

    def expected_counts(self, out: ChurnOutputs) -> tuple[int, int]:
        """Replay the pass on ``oracles.ReferenceQueue`` over the
        benchmark's own edge list, with the targeted ops the pass made."""
        prev, nxt = oracles.adjacency(self.n, self.edges)
        ref = oracles.ReferenceQueue(prev, nxt, oracles.bfs(nxt))
        for x in self.fill:
            ref.insert(x)
        targeted = iter(out.targeted)
        for kind, arg, _ in self.ops:
            if kind == INSERT:
                ref.insert(arg)
            elif kind == REMOVE:
                ref.remove_min()
            else:
                v, _, new = next(targeted)
                (ref.lower_at if kind == LOWER else ref.raise_at)(v, new)
        return ref.comparisons, ref.exchanges


WORKLOADS = {
    w.name: w for w in (PathInsertion, HypercubeSubset, QueueChurn, TraceRender)
}
