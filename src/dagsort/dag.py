"""Single-source DAGs whose vertices carry integer labels.

A label is either a plain int or the ``INF`` sentinel, which compares
strictly greater than every finite value. An edge (u, v) is *good* when
``labels[u] <= labels[v]``; a DAG in which every edge is good is *ordered*.
That property is the generalized heap invariant everything else in the
package maintains.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .errors import (
    CycleError,
    MultipleSourcesError,
    NotAnEdgeError,
    UnreachableVertexError,
)

INF: float = float("inf")

# Finite labels are ints; a float slot only ever holds +-INF.
Label = int | float


def is_finite_label(value: object) -> bool:
    """True for a plain int (bools excluded), False for INF or anything else."""
    return isinstance(value, int) and not isinstance(value, bool)


def format_label(value: Label) -> str:
    return "inf" if value == INF else str(value)


def parse_label(token: str) -> Label:
    if token == "inf":
        return INF
    return int(token)


@dataclass
class LabeledDag:
    """Adjacency-list DAG with mutable labels.

    ``prev_adj[v]`` and ``next_adj[v]`` list in- and out-neighbours in
    ascending vertex order; they always mirror each other. ``source`` is the
    designated in-degree-0 vertex (the lowest-indexed one when several exist).
    """

    n: int
    prev_adj: list[list[int]]
    next_adj: list[list[int]]
    labels: list[Label]
    source: int

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledDag":
        """Validating constructor: acyclic, exactly one in-degree-0 vertex,
        everything reachable from it. All labels start at INF.
        """
        return _build(cls, n, edges, require_single_source=True)

    @classmethod
    def from_edges_multi_source(cls, n: int, edges) -> "LabeledDag":
        """Like from_edges but tolerates several in-degree-0 vertices; the
        lowest-indexed one becomes ``source``. Cycles are still rejected.
        """
        return _build(cls, n, edges, require_single_source=False)

    def is_good_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n) or v not in self.next_adj[u]:
            raise NotAnEdgeError(f"({u}, {v}) is not an edge")
        return self.labels[u] <= self.labels[v]

    def is_ordered(self) -> bool:
        labels = self.labels
        for v, prevs in enumerate(self.prev_adj):
            lv = labels[v]
            for u in prevs:
                if labels[u] > lv:
                    return False
        return True

    def bad_edges(self) -> list[tuple[int, int]]:
        labels = self.labels
        return [
            (u, v)
            for v, prevs in enumerate(self.prev_adj)
            for u in prevs
            if labels[u] > labels[v]
        ]

    def labels_multiset(self) -> Counter:
        return Counter(self.labels)

    def edges(self):
        for u, nxt in enumerate(self.next_adj):
            for v in nxt:
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(nxt) for nxt in self.next_adj)

    def copy(self) -> "LabeledDag":
        return LabeledDag(
            n=self.n,
            prev_adj=[list(p) for p in self.prev_adj],
            next_adj=[list(p) for p in self.next_adj],
            labels=list(self.labels),
            source=self.source,
        )


def _build(cls, n: int, edges, require_single_source: bool) -> LabeledDag:
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    prev: list[list[int]] = [[] for _ in range(n)]
    nxt: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        nxt[u].append(v)
        prev[v].append(u)
    for lst in prev:
        lst.sort()
    for lst in nxt:
        lst.sort()

    g = cls(n=n, prev_adj=prev, next_adj=nxt, labels=[INF] * n, source=0)
    topological_order(g)  # raises CycleError
    roots = [v for v in range(n) if not prev[v]]
    g.source = roots[0]
    if require_single_source:
        if len(roots) != 1:
            raise MultipleSourcesError(
                f"expected exactly one in-degree-0 vertex, found {len(roots)}"
            )
        # Implied by acyclicity plus the single root, but asserted directly.
        reached = _reachable_count(nxt, g.source, n)
        if reached != n:
            raise UnreachableVertexError(
                f"{n - reached} vertices unreachable from source {g.source}"
            )
    return g


def _reachable_count(nxt: list[list[int]], source: int, n: int) -> int:
    seen = [False] * n
    seen[source] = True
    stack = [source]
    count = 0
    while stack:
        u = stack.pop()
        count += 1
        for v in nxt[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return count


def topological_order(g: LabeledDag) -> list[int]:
    """Kahn's algorithm; ties popped in ascending vertex order is not
    guaranteed, only a valid topological order is."""
    indegree = [len(p) for p in g.prev_adj]
    queue = deque(v for v in range(g.n) if indegree[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in g.next_adj[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    if len(order) != g.n:
        raise CycleError("edge set contains a directed cycle")
    return order


def parse_dag_text(text: str) -> LabeledDag:
    """Parse the plain-text DAG format.

    Whitespace-separated tokens: ``n m``, then m pairs ``u v``, then an
    optional ``labels:`` marker followed by n label tokens ("inf" allowed).
    Multi-root inputs are accepted; cycles are not.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("expected 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"bad header: {exc}") from exc
    if m < 0:
        raise ValueError("negative edge count")
    pos = 2
    if len(tokens) < pos + 2 * m:
        raise ValueError(f"expected {m} edges, input ends early")
    edges = []
    for _ in range(m):
        try:
            u, v = int(tokens[pos]), int(tokens[pos + 1])
        except ValueError as exc:
            raise ValueError(f"bad edge token: {exc}") from exc
        edges.append((u, v))
        pos += 2
    g = LabeledDag.from_edges_multi_source(n, edges)
    if pos < len(tokens):
        if tokens[pos] != "labels:":
            raise ValueError(f"unexpected token {tokens[pos]!r}")
        pos += 1
        if len(tokens) - pos != n:
            raise ValueError(f"expected {n} labels, got {len(tokens) - pos}")
        try:
            g.labels[:] = [parse_label(t) for t in tokens[pos:]]
        except ValueError as exc:
            raise ValueError(f"bad label token: {exc}") from exc
    return g


def format_dag_text(g: LabeledDag, include_labels: bool = True) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    if include_labels:
        lines.append("labels: " + " ".join(format_label(l) for l in g.labels))
    return "\n".join(lines) + "\n"
