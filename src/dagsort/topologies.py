"""The four DAG families the sorting algorithms run on, plus vertex orders.

star:N      one source fanning out to N-1 leaves (selection-sort shape)
path:N      a chain (insertion-sort shape)
grid:K:S    K-dimensional grid over [0, S)^K, edges increment one coordinate
            (the Young-tableau shape)
hypercube:K subsets of a K-element universe ordered by single-bit insertion

Every family is graded: each edge moves exactly one BFS layer away from the
source, so layer order equals distance order.

Each family is built by construction: ``build`` writes its successor lists
directly, ascending and acyclic with vertex 0 as the only source, and hands
them to ``LabeledDag.from_successors``. Nothing is re-validated; the
validating ``LabeledDag.from_edges`` is kept for DAGs from outside.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Union

from .dag import MAX_VERTICES, LabeledDag
from .errors import MultipleSourcesError


@dataclass(frozen=True)
class Star:
    n: int


@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class YoungGrid:
    dims: int
    side: int


@dataclass(frozen=True)
class Hypercube:
    dims: int


Topology = Union[Star, Path, YoungGrid, Hypercube]


def parse_topology(spec: str) -> Topology:
    """Parse "star:N", "path:N", "grid:K:S" or "hypercube:K"."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "star" and len(parts) == 2:
            t: Topology = Star(int(parts[1]))
        elif kind == "path" and len(parts) == 2:
            t = Path(int(parts[1]))
        elif kind == "grid" and len(parts) == 3:
            t = YoungGrid(int(parts[1]), int(parts[2]))
        elif kind == "hypercube" and len(parts) == 2:
            t = Hypercube(int(parts[1]))
        else:
            raise ValueError(f"unrecognized topology spec {spec!r}")
    except ValueError as exc:
        raise ValueError(f"unrecognized topology spec {spec!r}") from exc
    _validate(t)
    return t


def format_topology(t: Topology) -> str:
    if isinstance(t, Star):
        return f"star:{t.n}"
    if isinstance(t, Path):
        return f"path:{t.n}"
    if isinstance(t, YoungGrid):
        return f"grid:{t.dims}:{t.side}"
    return f"hypercube:{t.dims}"


def _validate(t: Topology) -> None:
    if isinstance(t, (Star, Path)):
        if t.n < 1:
            raise ValueError(f"{format_topology(t)}: need n >= 1")
    elif isinstance(t, YoungGrid):
        if t.dims < 0 or t.side < 1:
            raise ValueError(f"{format_topology(t)}: need dims >= 0 and side >= 1")
    elif t.dims < 0:
        raise ValueError(f"{format_topology(t)}: need dims >= 0")
    if capacity(t) > MAX_VERTICES:
        raise OverflowError(f"{format_topology(t)} exceeds {MAX_VERTICES} vertices")


def capacity(t: Topology) -> int:
    """Number of vertices the built DAG will have."""
    if isinstance(t, (Star, Path)):
        return t.n
    if isinstance(t, YoungGrid):
        return t.side**t.dims
    return 1 << t.dims


def build(t: Topology) -> LabeledDag:
    """Construct the family member with every label at INF, straight from
    its successor lists: they hold by construction what ``from_edges``
    would check, so no edge list is made and nothing is re-validated.
    """
    _validate(t)
    n = capacity(t)
    # successors are taken from ids: one int object per vertex id, not per entry
    ids = list(range(n))
    if isinstance(t, Star):
        nxt = [ids[1:]] + [[] for _ in range(n - 1)]
    elif isinstance(t, Path):
        nxt = [[v] for v in ids[1:]] + [[]]
    elif isinstance(t, YoungGrid):
        # row-major: the coordinate with stride side**i is v // side**i % side
        strides = [t.side**i for i in range(t.dims)]
        last = t.side - 1
        nxt = [[ids[v + s] for s in strides if v // s % t.side < last] for v in ids]
    else:
        # cube b+1 = cube b, each u gaining u + 2^b last, then cube b shifted by 2^b
        nxt = [[]]
        for b in range(t.dims):
            shifted = ids[1 << b : 2 << b]
            upper = [[shifted[w] for w in lst] for lst in nxt]
            for lst, v in zip(nxt, shifted):
                lst.append(v)
            nxt += upper
    return LabeledDag.from_successors(nxt)


def bfs_order(g: LabeledDag) -> Iterator[int]:
    """Yield every vertex once, breadth-first from the source, expanding
    neighbours in ascending vertex order. Requires a single-source DAG.
    """
    if g.prev_adj.count([]) != 1:
        raise MultipleSourcesError("bfs_order requires a single-source DAG")
    seen = [False] * g.n
    seen[g.source] = True
    queue = deque([g.source])
    while queue:
        u = queue.popleft()
        yield u
        for v in g.next_adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)


def cardinality(v: int) -> int:
    """Popcount: how many elements the bitmask vertex contains."""
    return v.bit_count()


def hypercube_order(dims: int) -> list[int]:
    """0..2^dims-1 grouped by ascending popcount, ascending value inside
    each group (the sort is stable); a valid BFS order for the hypercube.
    """
    return sorted(range(1 << dims), key=int.bit_count)


def order_for(t: Topology, g: LabeledDag) -> list[int]:
    """Canonical insertion order for a built family member."""
    if isinstance(t, Hypercube):
        return hypercube_order(t.dims)
    return list(bfs_order(g))
