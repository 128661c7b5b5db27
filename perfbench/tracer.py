"""Per-layer timing by wrapping dagsort's functions at module boundaries.

Nothing under ``src/`` changes. Each public function a layer exposes is
replaced, in the namespace of the module that calls it, by a wrapper that
times the call and tallies its work; ``uninstall`` puts the originals back.
Spans are aggregated in memory as they close (total and self time per layer
name) rather than stored one by one: the queue workload closes about half a
million spans per pass. A span's self time is its duration minus the time of
the wrapped spans it encloses.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit).
LAYER_METRICS = (
    ("reorder.lower_s", "s"),
    ("reorder.raise_s", "s"),
    ("reorder.exchanges", "count"),
    ("reorder.comparisons", "count"),
    ("reorder.ns_per_exchange", "ns"),
    ("reorder.ns_per_comparison", "ns"),
    ("reorder.max_sift", "count"),
    ("pqueue.init_s", "s"),
    ("pqueue.insert_self_s", "s"),
    ("pqueue.remove_min_self_s", "s"),
    ("pqueue.lower_at_self_s", "s"),
    ("pqueue.raise_at_self_s", "s"),
    ("pqueue.inf_moves", "count"),
    ("topologies.build_s", "s"),
    ("topologies.order_s", "s"),
    ("dag.from_edges_s", "s"),
    ("dag.parse_s", "s"),
    ("tracefmt.render_s", "s"),
    ("tracefmt.snapshots", "count"),
    ("tracefmt.bytes", "bytes"),
    ("sorting.dag_sort_self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.tracing_overhead_s", "s"),
)


class Tracer:
    """Installs timing wrappers on a freshly imported ``dagsort`` and keeps
    the per-layer tallies of every pass run while they are installed."""

    def __init__(self, dagsort_modules: dict):
        self.mods = dagsort_modules
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.max_sift = 0
        self._children = [0.0]  # child-time accumulator per open span
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, after=None):
        clock = time.perf_counter
        children = self._children
        total = self.total
        self_time = self.self_time

        def wrapped(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - inner
            if after is not None:
                tally_start = clock()
                after(args, result)
                # charge the tally to the enclosing span's children, so it
                # stays out of that span's self time
                children[-1] += clock() - tally_start
            return result

        return wrapped

    def _patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        if isinstance(original, classmethod):
            bound = getattr(owner, attr)
            setattr(owner, attr, staticmethod(self._span(name, bound, after)))
        else:
            setattr(owner, attr, self._span(name, original, after))

    def _sift_tally(self, adjacency: str, count_inf: bool):
        count = self.count
        inf = self.mods["dag"].INF

        def after(args, trace):
            # Recount comparisons from the cost model (m per visited vertex
            # with m neighbours on the sift side) instead of trusting the
            # program's counter, so the two can be compared.
            adj = getattr(args[0], adjacency)
            steps = trace.steps
            visited = [s.from_vertex for s in steps]
            visited.append(trace.terminal_vertex)
            count["reorder.comparisons"] += sum(len(adj[v]) for v in visited)
            count["reorder.exchanges"] += len(steps)
            if len(steps) > self.max_sift:
                self.max_sift = len(steps)
            if count_inf:
                count["pqueue.inf_moves"] += sum(1 for s in steps if s.moved_label == inf)

        return after

    def install(self) -> None:
        cli, pqueue, dag = self.mods["cli"], self.mods["pqueue"], self.mods["dag"]
        count = self.count

        def snapshots_tally(_args, snapshots):
            count["tracefmt.snapshots"] += len(snapshots)
            count["tracefmt.bytes"] += sum(len(s.encode()) for s in snapshots)

        lower_pq = self._sift_tally("prev_adj", count_inf=True)
        lower_cli = self._sift_tally("prev_adj", count_inf=False)
        raise_pq = self._sift_tally("next_adj", count_inf=False)
        self._patch(pqueue, "lower_label", "reorder.lower", lower_pq)
        self._patch(pqueue, "raise_label", "reorder.raise", raise_pq)
        self._patch(cli, "lower_label", "reorder.lower", lower_cli)
        queue_cls = pqueue.OrderedDagQueue
        self._patch(queue_cls, "__init__", "pqueue.init")
        self._patch(queue_cls, "insert", "pqueue.insert")
        self._patch(queue_cls, "remove_min", "pqueue.remove_min")
        self._patch(queue_cls, "lower_label_at", "pqueue.lower_at")
        self._patch(queue_cls, "raise_label_at", "pqueue.raise_at")
        self._patch(cli, "build", "topologies.build")
        self._patch(cli, "order_for", "topologies.order")
        self._patch(dag.LabeledDag, "from_edges", "dag.from_edges")
        self._patch(cli, "parse_dag_text", "dag.parse")
        self._patch(cli, "dot_snapshots", "tracefmt.render", snapshots_tally)
        self._patch(cli, "dag_sort", "sorting.dag_sort")
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Per-pass figures for every layer metric; 0 where a layer is idle."""
        t, s, c = self.total, self.self_time, self.count
        sift_s = t["reorder.lower"] + t["reorder.raise"]
        exchanges, comparisons = c["reorder.exchanges"], c["reorder.comparisons"]
        values = {
            "reorder.lower_s": t["reorder.lower"] / passes,
            "reorder.raise_s": t["reorder.raise"] / passes,
            "reorder.exchanges": exchanges / passes,
            "reorder.comparisons": comparisons / passes,
            "reorder.ns_per_exchange": 1e9 * sift_s / exchanges if exchanges else 0.0,
            "reorder.ns_per_comparison": (
                1e9 * sift_s / comparisons if comparisons else 0.0
            ),
            "reorder.max_sift": self.max_sift,
            "pqueue.init_s": t["pqueue.init"] / passes,
            "pqueue.insert_self_s": s["pqueue.insert"] / passes,
            "pqueue.remove_min_self_s": s["pqueue.remove_min"] / passes,
            "pqueue.lower_at_self_s": s["pqueue.lower_at"] / passes,
            "pqueue.raise_at_self_s": s["pqueue.raise_at"] / passes,
            "pqueue.inf_moves": c["pqueue.inf_moves"] / passes,
            "topologies.build_s": t["topologies.build"] / passes,
            "topologies.order_s": t["topologies.order"] / passes,
            "dag.from_edges_s": t["dag.from_edges"] / passes,
            "dag.parse_s": t["dag.parse"] / passes,
            "tracefmt.render_s": t["tracefmt.render"] / passes,
            "tracefmt.snapshots": c["tracefmt.snapshots"] / passes,
            "tracefmt.bytes": c["tracefmt.bytes"] / passes,
            "sorting.dag_sort_self_s": s["sorting.dag_sort"] / passes,
            "cli.self_s": s["cli.main"] / passes,
            "bench.tracing_overhead_s": overhead_s,
        }
        return values
