"""Single-source DAGs whose vertices carry integer labels.

A label is either a plain int or the ``INF`` sentinel, which compares
strictly greater than every finite value. An edge (u, v) is *good* when
``labels[u] <= labels[v]``; a DAG in which every edge is good is *ordered*.
That property is the generalized heap invariant everything else in the
package maintains.

Outside input is checked edge by edge, then list by list, then by Kahn's
pass (run only when some edge falls in id), in the order ``from_edges`` gives.
DAG text is refused from its header when n + m exceeds ``MAX_ENTRIES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import CycleError, MultipleSourcesError

INF: float = float("inf")

# Finite labels are ints; a float slot only ever holds +-INF.
Label = int | float

# Topology builds and parsed DAG text past MAX_VERTICES vertices, or past
# MAX_ENTRIES vertices plus edges, are refused before anything that size exists.
MAX_DIMS = 24  # any base of 2 or more raised past MAX_DIMS exceeds the cap
MAX_VERTICES = 1 << MAX_DIMS
MAX_ENTRIES = 1 << 22  # cap on n + m, from a text header or a family's closed form


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
    Adjacency is fixed once a DAG is made, and ``max_in_degree`` and
    ``max_out_degree`` are derived from it then.
    """

    n: int
    prev_adj: list[list[int]]
    next_adj: list[list[int]]
    labels: list[Label]
    source: int
    max_in_degree: int = field(init=False, compare=False, repr=False)
    max_out_degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.max_in_degree = max(map(len, self.prev_adj), default=0)
        self.max_out_degree = max(map(len, self.next_adj), default=0)

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
    prev: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nxt[u].append(v)
        prev[v].append(u)
    for u, lst in enumerate(nxt):
        lst.sort()
        prev[u].sort()
        if len(set(lst)) < len(lst):
            v = next(a for a, b in zip(lst, lst[1:]) if a == b)
            raise ValueError(f"duplicate edge ({u}, {v})")

    g = cls(n=n, prev_adj=prev, next_adj=nxt, labels=[INF] * n, source=0)
    # ids that rise along every edge cannot close a cycle
    if any(lst and lst[0] < u for u, lst in enumerate(nxt)):
        topological_order(g)  # raises CycleError
    g.source = prev.index([])
    if require_single_source and prev.count([]) != 1:
        raise MultipleSourcesError(
            f"expected exactly one in-degree-0 vertex, found {prev.count([])}"
        )
    return g


def topological_order(g: LabeledDag) -> list[int]:
    """Kahn's order with a FIFO queue: the sources in ascending id, then each
    vertex as its last predecessor is taken, a taken vertex's successors in
    ascending id. Sorts insert in this order (``topologies.order_for``), so
    it is promised, not just some valid order."""
    indegree = list(map(len, g.prev_adj))
    order = [v for v in range(g.n) if not indegree[v]]
    nxt = g.next_adj
    for u in order:  # the list is the FIFO: vertices join its end as released
        for v in nxt[u]:
            left = indegree[v] - 1  # one read of indegree[v] per edge
            indegree[v] = left
            if not left:
                order.append(v)
    if len(order) != g.n:
        raise CycleError("edge set contains a directed cycle")
    return order


def parse_dag_text(text: str) -> LabeledDag:
    """Parse the plain-text DAG format.

    Whitespace-separated tokens: ``n m``, then m pairs ``u v``, then an
    optional ``labels:`` marker followed by n label tokens ("inf" allowed).
    Multi-root inputs are accepted; cycles are not.
    """
    tokens = text.split(None, 2)[:2]
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
    if max(n, 0) + m > MAX_ENTRIES:
        raise ValueError(f"{n} vertices plus {m} edges exceed {MAX_ENTRIES}")
    pos = 2 + 2 * m
    # no further than the declared tokens; one string holds whatever follows
    tokens = text.split(None, pos + 1 + max(n, 0))
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
            got = len(labels)
            if got > n:  # the last entry is the unsplit rest: count, not split, it
                got = n + sum(1 for _ in re.finditer(r"\S+", labels[-1]))
            raise ValueError(f"expected {n} labels, got {got}")
        convert = parse_label if "inf" in labels else int
        try:
            g.labels[:] = map(convert, labels)
        except ValueError as exc:
            raise ValueError(f"bad label token: {exc}") from exc
    return g

