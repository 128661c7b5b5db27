"""Shared oracles and hypothesis strategies for the test suite.

The oracles are deliberately written differently from the production code
(key-function extrema, exhaustive DFS) so agreement means something.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import strategies as st

from dagsort import INF, LabeledDag, format_label, topological_order


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
    for u, v in g.edges():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_dot_snapshots(g, labels_before, vertex, new_label, trace) -> list[str]:
    """Full re-render of every snapshot from the trace's exchange steps: the
    reference that the incremental ``tracefmt.dot_snapshots`` must match."""
    labels = list(labels_before)
    labels[vertex] = new_label
    steps = trace.steps
    first_target = steps[0].to_vertex if steps else None
    snapshots = [_oracle_snapshot(g, labels, 0, vertex, first_target)]
    for i, step in enumerate(steps):
        labels[step.from_vertex], labels[step.to_vertex] = (
            step.moved_label,
            labels[step.from_vertex],
        )
        nxt = steps[i + 1].to_vertex if i + 1 < len(steps) else None
        snapshots.append(_oracle_snapshot(g, labels, i + 1, step.to_vertex, nxt))
    return snapshots


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


def finite_multiset(g: LabeledDag) -> Counter:
    return Counter(l for l in g.labels if l != INF)


def assert_adjacency_consistent(g: LabeledDag) -> None:
    for v in range(g.n):
        assert g.prev_adj[v] == sorted(g.prev_adj[v])
        assert g.next_adj[v] == sorted(g.next_adj[v])
        for u in g.prev_adj[v]:
            assert v in g.next_adj[u]
        for u in g.next_adj[v]:
            assert v in g.prev_adj[u]


@st.composite
def single_source_dags(draw, max_n: int = 20) -> LabeledDag:
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    present = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v))
        present.add((u, v))
    if n >= 2:
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
