"""Shared oracles and hypothesis strategies for the test suite.

The oracles are deliberately written differently from the production code
(key-function extrema, exhaustive DFS) so agreement means something.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

from hypothesis import strategies as st

from dagsort import (
    INF,
    ComparisonCounter,
    LabeledDag,
    MultipleSourcesError,
    format_label,
    lower_label,
    raise_label,
    topological_order,
)


def oracle_largest_violating(g: LabeledDag, v: int):
    prev = g.prev_adj[v]
    if not prev:
        return None
    best = min(prev, key=lambda u: (-g.labels[u], u))
    return best if g.labels[best] > g.labels[v] else None


def oracle_smallest_violating_next(g: LabeledDag, v: int):
    nxt = g.next_adj[v]
    if not nxt:
        return None
    best = min(nxt, key=lambda u: (g.labels[u], u))
    return best if g.labels[best] < g.labels[v] else None


def _oracle_snapshot(g, labels, index, current, target) -> str:
    lines = [f"digraph sift_{index} {{"]
    for v in range(g.n):
        attrs = [f'label="{format_label(labels[v])}"']
        if v == current:
            attrs.append("style=filled")
            attrs.append("fillcolor=gray")
        elif v == target:
            attrs.append("style=filled")
            attrs.append("fillcolor=black")
            attrs.append("fontcolor=white")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, nxt in enumerate(g.next_adj):
        lines.extend(f"  {u} -> {v};" for v in nxt)
    lines.append("}")
    return "\n".join(lines) + "\n"


def replay_states(g: LabeledDag, labels_before, v, new_label, trace):
    """Yield ``(state, current)`` for every state of a sift, rebuilt from
    ``trace.path`` and ``trace.moved`` alone: the state just after labels[v]
    became ``new_label``, then the state after each exchange. ``state``
    shares g's adjacency and holds the replayed labels, updated in place
    between yields; ``current`` is the vertex holding the sifted label.

    Each exchange swaps the labels at its two path vertices and checks that
    the label it displaced is the one ``moved`` records. A caller that finds
    the last state's labels equal to g's after the sift has therefore seen
    the states the sift passed through."""
    labels = list(labels_before)
    labels[v] = new_label
    state = replace(g, labels=labels)
    path = trace.path
    yield state, path[0]
    for at, to, displaced in zip(path, path[1:], trace.moved):
        assert labels[to] == displaced, (to, labels[to], displaced)
        labels[at], labels[to] = displaced, labels[at]
        yield state, to


def oracle_dot_snapshots(g, labels_before, vertex, new_label, trace) -> list[str]:
    """Full re-render of every replayed state: the reference that the
    incremental ``tracefmt.dot_snapshots`` must match."""
    targets = trace.path[1:] + [None]
    return [
        _oracle_snapshot(g, state.labels, i, current, targets[i])
        for i, (state, current) in enumerate(
            replay_states(g, labels_before, vertex, new_label, trace)
        )
    ]


def bfs_order(g: LabeledDag) -> list[int]:
    """Breadth-first order from the source, neighbours in ascending id,
    built layer by layer: the queue's default fill order."""
    order, layer, seen = [], [g.source], {g.source}
    while layer:
        order += layer
        below = []
        for u in layer:
            for v in sorted(g.next_adj[u]):
                if v not in seen:
                    seen.add(v)
                    below.append(v)
        layer = below
    return order


def hypercube_worst_case_sum(dims: int) -> int:
    """Insert-phase worst case on a k-cube as a sum over layers: a layer
    holds C(k, i) vertices and filling one costs i + (i-1) + ... + 1
    comparisons when every insert sifts to the source."""
    return sum(math.comb(dims, i) * (i + 1) * i // 2 for i in range(dims + 1))


def longest_path_ending_at(g: LabeledDag) -> list[int]:
    dist = [0] * g.n
    for v in topological_order(g):
        for u in g.prev_adj[v]:
            if dist[u] + 1 > dist[v]:
                dist[v] = dist[u] + 1
    return dist


def longest_path_starting_at(g: LabeledDag) -> list[int]:
    dist = [0] * g.n
    for v in reversed(topological_order(g)):
        for u in g.next_adj[v]:
            if dist[u] + 1 > dist[v]:
                dist[v] = dist[u] + 1
    return dist


def dfs_longest_path_from_source(g: LabeledDag) -> int:
    """Enumerate every path from the source; exponential, for tiny DAGs."""
    best = 0
    stack = [(g.source, 0)]
    while stack:
        v, depth = stack.pop()
        best = max(best, depth)
        for u in g.next_adj[v]:
            stack.append((u, depth + 1))
    return best


def oracle_adjacency(n: int, pairs) -> tuple[list[list[int]], list[list[int]]]:
    """Ascending successor and predecessor lists of an edge set, filled from
    ``sorted(set(pairs))`` and its mirror rather than sorted list by list."""
    edges = sorted(set(pairs))
    next_adj: list[list[int]] = [[] for _ in range(n)]
    prev_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        next_adj[u].append(v)
    for v, u in sorted((v, u) for u, v in edges):
        prev_adj[v].append(u)
    return next_adj, prev_adj


def oracle_build(n: int, edges, require_single_source: bool) -> LabeledDag:
    """Admission as the library first wrote it, the reference for
    ``from_edges``, ``from_edges_multi_source`` and ``parse_dag_text``: range
    and self-loop per edge, then repeats per sorted successor list, then
    ``from_successors`` and Kahn's pass on every graph, whatever its ids,
    then the roots."""
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    nxt: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nxt[u].append(v)
    for u, lst in enumerate(nxt):
        lst.sort()
        if len(set(lst)) < len(lst):
            v = next(a for a, b in zip(lst, lst[1:]) if a == b)
            raise ValueError(f"duplicate edge ({u}, {v})")

    g = LabeledDag.from_successors(nxt)
    topological_order(g)  # raises CycleError
    roots = [v for v in range(n) if not g.prev_adj[v]]
    g.source = roots[0]
    if require_single_source and len(roots) != 1:
        raise MultipleSourcesError(
            f"expected exactly one in-degree-0 vertex, found {len(roots)}"
        )
    return g


def bad_edges(g: LabeledDag) -> list[tuple[int, int]]:
    """Every edge (u, v) with labels[u] > labels[v], in successor-list order."""
    labels = g.labels
    return [(u, v) for u, nxt in enumerate(g.next_adj) for v in nxt if labels[u] > labels[v]]


def finite_multiset(g: LabeledDag) -> Counter:
    return Counter(l for l in g.labels if l != INF)


class ScanQueue:
    """Reference queue that keeps no record of its free slots: an insert
    lowers the first INF label it meets scanning the DAG's BFS order, and
    remove-min raises the source's label to INF."""

    def __init__(self, g: LabeledDag):
        self.dag, self.order, self.counter = g, bfs_order(g), ComparisonCounter()

    def __len__(self) -> int:
        return self.dag.n - self.dag.labels.count(INF)

    def insert(self, label) -> int:
        v = next(u for u in self.order if self.dag.labels[u] == INF)
        return lower_label(self.dag, v, label, self.counter).terminal_vertex

    def remove_min(self):
        smallest = self.dag.labels[self.dag.source]
        raise_label(self.dag, self.dag.source, INF, self.counter)
        return smallest

    def lower_label_at(self, v: int, label):
        return lower_label(self.dag, v, label, self.counter)


def assert_adjacency_consistent(g: LabeledDag) -> None:
    for v in range(g.n):
        assert g.prev_adj[v] == sorted(g.prev_adj[v])
        assert g.next_adj[v] == sorted(g.next_adj[v])
        for u in g.prev_adj[v]:
            assert v in g.next_adj[u]
        for u in g.next_adj[v]:
            assert v in g.prev_adj[u]


SHAPES = ("dag", "tree", "chain")


@st.composite
def single_source_dags(draw, max_n: int = 20, shapes=SHAPES) -> LabeledDag:
    """One of three shapes: a ``dag`` gives each vertex past 0 a random
    parent below it and adds random forward pairs; a ``tree`` keeps only the
    parents, so no vertex has two previous neighbours; a ``chain`` strings
    the vertices along one path in a random id order, so no vertex has two
    neighbours on either side. Sifts follow edges without a scan where the
    side they look at has one neighbour at most."""
    shape = draw(st.sampled_from(shapes))
    n = draw(st.integers(min_value=1, max_value=max_n))
    if shape == "chain":
        ids = draw(st.permutations(range(n)))
        return LabeledDag.from_edges(n, list(zip(ids, ids[1:])))
    edges = []
    present = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v))
        present.add((u, v))
    if n >= 2 and shape == "dag":
        extra = draw(
            st.lists(
                st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)),
                max_size=2 * n,
            )
        )
        for a, b in extra:
            if a < b and (a, b) not in present:
                edges.append((a, b))
                present.add((a, b))
    return LabeledDag.from_edges(n, edges)


@st.composite
def ordered_dags(draw, max_n: int = 20, infinity_tail: bool = False) -> LabeledDag:
    """A single-source DAG whose labels already satisfy the ordered property."""
    g = draw(single_source_dags(max_n=max_n))
    base = draw(st.integers(-50, 50))
    bumps = draw(st.lists(st.integers(0, 5), min_size=g.n, max_size=g.n))
    order = topological_order(g)
    for i, v in enumerate(order):
        floor = max((g.labels[u] for u in g.prev_adj[v]), default=base)
        g.labels[v] = floor + bumps[i]
    if infinity_tail:
        tail = draw(st.integers(0, g.n // 2))
        for v in order[g.n - tail :] if tail else []:
            g.labels[v] = INF
    return g
