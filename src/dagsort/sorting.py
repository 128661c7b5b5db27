"""Sorting by queue discipline: insert everything, then remove minima.

The topology decides which classical algorithm falls out: a star gives
selection sort, a path insertion sort, a grid a Young-tableau sort, and the
hypercube a hybrid whose exact worst-case comparison count has a closed
form (see analysis). Every family inserts in ``order_for(g)`` and removes
through ``OrderedDagQueue.drain``, which counts as ``remove_min`` would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import LabeledDag
from .errors import SizeMismatchError
from .pqueue import OrderedDagQueue
from .topologies import Hypercube, Topology, build, order_for


@dataclass(frozen=True)
class SortReport:
    """Sorted output plus the instrumented comparison counts, split by phase."""

    output: list[int]
    insert_comparisons: int
    remove_comparisons: int

    @property
    def total_comparisons(self) -> int:
        return self.insert_comparisons + self.remove_comparisons


def dag_sort(g: LabeledDag, values, *, order=None) -> SortReport:
    """Sort exactly len(values) == g.n integers through the queue, inserting
    in ``order``, by default ``order_for(g)``.

    g must start all-INF and is returned to that state (n inserts, one
    drain), so a built DAG can be reused across runs.
    """
    values = list(values)
    if len(values) != g.n:
        raise SizeMismatchError(f"{len(values)} values for {g.n} vertices")
    return _queue_sort(g, values, order)


def hypercube_sort(values) -> SortReport:
    """Sort any number of integers on the smallest hypercube that fits.

    The cube is ``Hypercube.fitting(len(values))``; the sort stops after
    len(values) removals, so the unfilled slots stay at INF and never surface.
    """
    values = list(values)
    return _queue_sort(build(Hypercube.fitting(len(values))), values)


def _queue_sort(g: LabeledDag, values: list, order=None) -> SortReport:
    """Insert every value, then remove as many minima; len(values) <= g.n."""
    queue = OrderedDagQueue(g, order=order_for(g) if order is None else order)
    for value in values:
        queue.insert(value)
    insert_comparisons = queue.counter.count
    output = queue.drain()
    remove_comparisons = queue.counter.count - insert_comparisons
    return SortReport(output, insert_comparisons, remove_comparisons)


def worst_case_input(t: Topology) -> list[int]:
    """The strictly decreasing input n, n-1, ..., 1 that fills t: every
    insert is a new minimum and sifts the full distance to the source."""
    return list(range(t.capacity, 0, -1))
