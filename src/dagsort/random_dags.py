"""Seeded generators for random single-source DAGs and ordered labelings.

Edges always point from a lower to a higher vertex id, so vertex order is a
topological order and acyclicity is free. Every vertex past 0 gets at least
one incoming edge, which makes 0 the unique source.
"""

from __future__ import annotations

import random

from .dag import INF, LabeledDag, topological_order


def random_single_source_dag(
    rng: random.Random, n: int, extra_edges: int | None = None
) -> LabeledDag:
    """A random DAG on n vertices with single source 0.

    Besides the n-1 spanning edges, up to ``extra_edges`` random forward
    pairs are added (default 2n; duplicates are simply skipped, so the count
    is approximate).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    present = {(rng.randrange(v), v) for v in range(1, n)}
    budget = 2 * n if extra_edges is None else extra_edges
    # n = 1 leaves no pair to add, so the loop below never runs
    for _ in range(min(budget, n * (n - 1) // 2 - len(present))):
        u = rng.randrange(n - 1)
        present.add((u, rng.randrange(u + 1, n)))
    # a set gives the edges in no fixed order; from_edges sorts every list
    return LabeledDag.from_edges(n, present)


def random_ordered_labels(
    rng: random.Random, g: LabeledDag, *, infinity_tail: int = 0
) -> None:
    """Assign random labels in place that satisfy the ordered property.

    Walks a topological order giving each vertex the max of its predecessors'
    labels plus 0 to 5 (ties allowed). The last ``infinity_tail`` vertices
    of the order (all of them when it exceeds n) get INF; that set is
    successor-closed, so ordering holds.
    """
    order = topological_order(g)
    labels = g.labels
    for v in order:
        floor = max((labels[u] for u in g.prev_adj[v]), default=rng.randint(-20, 20))
        labels[v] = floor + rng.randrange(6)
    for v in order[max(g.n - infinity_tail, 0) :]:
        labels[v] = INF
