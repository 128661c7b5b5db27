"""The four DAG families the sorting algorithms run on, plus vertex orders.

star:N      one source fanning out to N-1 leaves (selection-sort shape)
path:N      a chain (insertion-sort shape)
grid:K:S    K-dimensional grid over [0, S)^K, edges increment one coordinate
            (the Young-tableau shape)
hypercube:K subsets of a K-element universe ordered by single-bit insertion

Each family is one ``Topology`` subclass that owns its shape: ``str(t)`` is
its spec, ``t.capacity`` its vertex count, ``t.stats()`` its closed-form
``DagStats``. A member checks its parameters when it is made (``ValueError``
out of range, ``OverflowError`` above ``MAX_VERTICES`` vertices or above
``MAX_ENTRIES`` vertices plus edges), so each can be built.

Every family is graded: each edge moves exactly one BFS layer away from the
source, so layer order equals distance order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Iterator

from .analysis import DagStats
from .dag import MAX_DIMS, MAX_ENTRIES, MAX_VERTICES, LabeledDag
from .errors import MultipleSourcesError


class Topology:
    """A family member: a frozen dataclass whose fields are the spec's
    parameters, each at least its entry in ``least``. A family defines
    ``kind``, ``capacity``, ``successors(ids)`` (ascending out-neighbour
    lists, vertex 0 the only source, entries taken from ``ids``),
    ``_path_and_degrees()`` (L, max in- and out-degree for n >= 2) and,
    unless it is a tree with n - 1 edges, ``_edges()`` (the edge count)."""

    kind: ClassVar[str]
    least: ClassVar[tuple[int, ...]]

    def __post_init__(self) -> None:
        params = vars(self)
        if any(value < low for value, low in zip(params.values(), self.least)):
            need = " and ".join(f"{p} >= {low}" for p, low in zip(params, self.least))
            raise ValueError(f"{self}: need {need}")
        if self._over_cap():
            raise OverflowError(f"{self} exceeds {MAX_VERTICES} vertices")
        n, m = self.capacity, self._edges()
        if n + m > MAX_ENTRIES:
            raise OverflowError(f"{self}: {n} vertices plus {m} edges exceed {MAX_ENTRIES}")

    def _over_cap(self) -> bool:
        return self.capacity > MAX_VERTICES

    def _edges(self) -> int:
        return self.capacity - 1

    def __str__(self) -> str:
        return ":".join([self.kind, *map(str, vars(self).values())])

    def stats(self) -> DagStats:
        """Closed-form stats; equal to ``analysis.stats(build(self))``."""
        if self.capacity == 1:
            return DagStats(n=1, longest_path=0, max_in_degree=0, max_out_degree=0)
        return DagStats(self.capacity, *self._path_and_degrees())


@dataclass(frozen=True)
class Star(Topology):
    n: int
    kind, least = "star", (1,)

    @property
    def capacity(self) -> int:
        return self.n

    def successors(self, ids: list[int]) -> list[list[int]]:
        return [ids[1:]] + [[] for _ in range(self.n - 1)]

    def _path_and_degrees(self) -> tuple[int, int, int]:
        return 1, 1, self.n - 1


@dataclass(frozen=True)
class Path(Topology):
    n: int
    kind, least = "path", (1,)

    @property
    def capacity(self) -> int:
        return self.n

    def successors(self, ids: list[int]) -> list[list[int]]:
        return [[v] for v in ids[1:]] + [[]]

    def _path_and_degrees(self) -> tuple[int, int, int]:
        return self.n - 1, 1, 1


@dataclass(frozen=True)
class YoungGrid(Topology):
    dims: int
    side: int
    kind, least = "grid", (0, 1)

    @property
    def capacity(self) -> int:
        return self.side**self.dims

    def successors(self, ids: list[int]) -> list[list[int]]:
        # row-major: the coordinate with stride side**i is v // side**i % side;
        # side 1 is one vertex and needs no strides, whatever dims is
        side, last = self.side, self.side - 1
        strides = [side**i for i in range(self.dims if side > 1 else 0)]
        return [[ids[v + s] for s in strides if v // s % side < last] for v in ids]

    def _path_and_degrees(self) -> tuple[int, int, int]:
        return self.dims * (self.side - 1), self.dims, self.dims

    def _edges(self) -> int:
        return self.capacity * self.dims * (self.side - 1) // self.side

    def _over_cap(self) -> bool:
        # side**dims is not made when dims alone puts it past the cap
        return self.side > 1 and (self.dims > MAX_DIMS or self.capacity > MAX_VERTICES)


@dataclass(frozen=True)
class Hypercube(Topology):
    dims: int
    kind, least = "hypercube", (0,)

    @property
    def capacity(self) -> int:
        return 1 << self.dims

    def successors(self, ids: list[int]) -> list[list[int]]:
        # cube b+1 = cube b, each u gaining u + 2^b last, then cube b shifted by 2^b
        nxt: list[list[int]] = [[]]
        for b in range(self.dims):
            shifted = ids[1 << b : 2 << b]
            upper = [[shifted[w] for w in lst] for lst in nxt]
            for lst, v in zip(nxt, shifted):
                lst.append(v)
            nxt += upper
        return nxt

    @classmethod
    def fitting(cls, n: int) -> "Hypercube":
        """The smallest cube with at least n vertices; dims 0 for n <= 1."""
        return cls(max(n - 1, 0).bit_length())

    def _path_and_degrees(self) -> tuple[int, int, int]:
        return self.dims, self.dims, self.dims

    def _edges(self) -> int:
        return self.capacity * self.dims // 2

    def _over_cap(self) -> bool:
        return self.dims > MAX_DIMS


FAMILIES = {cls.kind: cls for cls in (Star, Path, YoungGrid, Hypercube)}


def parse_topology(spec: str) -> Topology:
    """Parse "star:N", "path:N", "grid:K:S" or "hypercube:K"."""
    kind, *params = spec.split(":")
    cls = FAMILIES.get(kind)
    try:
        if cls is None or len(params) != len(cls.least):
            raise ValueError
        args = list(map(int, params))
    except ValueError as exc:
        raise ValueError(f"unrecognized topology spec {spec!r}") from exc
    return cls(*args)


def build(t: Topology) -> LabeledDag:
    """Construct the family member with every label at INF, straight from
    its successor lists: they hold by construction what ``from_edges``
    would check, so no edge list is made and nothing is re-validated
    (``from_edges`` is kept for DAGs from outside).
    """
    # successors are taken from ids: one int object per vertex id, not per entry
    return LabeledDag.from_successors(t.successors(list(range(t.capacity))))


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
