"""Single-source DAGs whose vertices carry integer labels.

A label is either a plain int or the ``INF`` sentinel, which compares
strictly greater than every finite value. An edge (u, v) is *good* when
``labels[u] <= labels[v]``; a DAG in which every edge is good is *ordered*.
That property is the generalized heap invariant everything else in the
package maintains.

Outside input is checked edge by edge, then list by list, then by Kahn's
pass, in the order ``from_edges`` gives; edge tokens are converted at once.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .errors import CycleError, MultipleSourcesError

INF: float = float("inf")

# Finite labels are ints; a float slot only ever holds +-INF.
Label = int | float

# Topology builds and parsed DAG text beyond this vertex count are refused
# outright, before anything of that size is allocated.
MAX_DIMS = 24  # any base of 2 or more raised past MAX_DIMS exceeds the cap
MAX_VERTICES = 1 << MAX_DIMS


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
    def from_successors(cls, next_adj: list[list[int]]) -> "LabeledDag":
        """Trusted constructor: ``next_adj[u]`` lists u's out-neighbours in
        ascending order, the graph is acyclic and vertex 0 is its source.
        Nothing is checked; input from outside the program goes through
        ``from_edges``. The lists are kept, not copied. All labels start at
        INF.
        """
        n = len(next_adj)
        prev: list[list[int]] = [[] for _ in range(n)]
        # ascending u, so every prev list comes out ascending without a sort;
        # zip reads ids[u] on reaching u, after any lower vertex naming u set it
        ids = list(range(n))
        for u, nxt in zip(ids, next_adj):
            for v in nxt:
                ids[v] = v
                prev[v].append(u)
        return cls(n=n, prev_adj=prev, next_adj=next_adj, labels=[INF] * n, source=0)

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledDag":
        """Validating constructor; all labels start at INF. Checked in order:
        range, then self-loop, per edge in input order; repeats per sorted
        successor list (smallest ``u`` first); cycles (``CycleError``); one
        in-degree-0 vertex, which then reaches every vertex of the DAG."""
        return _build(cls, n, edges, require_single_source=True)

    @classmethod
    def from_edges_multi_source(cls, n: int, edges) -> "LabeledDag":
        """Like from_edges but tolerates several in-degree-0 vertices; the
        lowest-indexed one becomes ``source``. Cycles are still rejected.
        """
        return _build(cls, n, edges, require_single_source=False)

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

    g = cls.from_successors(nxt)
    topological_order(g)  # raises CycleError
    roots = [v for v in range(n) if not g.prev_adj[v]]
    g.source = roots[0]
    if require_single_source and len(roots) != 1:
        raise MultipleSourcesError(
            f"expected exactly one in-degree-0 vertex, found {len(roots)}"
        )
    return g


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
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    if m < 0:
        raise ValueError("negative edge count")
    pos = 2 + 2 * m
    if len(tokens) < pos:
        raise ValueError(f"expected {m} edges, input ends early")
    try:
        ends = list(map(int, tokens[2:pos]))
    except ValueError as exc:
        raise ValueError(f"bad edge token: {exc}") from exc
    g = LabeledDag.from_edges_multi_source(n, zip(ends[0::2], ends[1::2]))
    if pos < len(tokens):
        if tokens[pos] != "labels:":
            raise ValueError(f"unexpected token {tokens[pos]!r}")
        labels = tokens[pos + 1 :]
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        try:
            g.labels[:] = [parse_label(t) for t in labels]
        except ValueError as exc:
            raise ValueError(f"bad label token: {exc}") from exc
    return g


def format_dag_text(g: LabeledDag, include_labels: bool = True) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    if include_labels:
        lines.append("labels: " + " ".join(format_label(l) for l in g.labels))
    return "\n".join(lines) + "\n"
