"""Any single-source DAG as a min-priority queue.

A vertex is a free slot exactly when its label is INF; finite labels are the
queue contents, and the labels are the only record of which slots are free.
The ordered property makes the source the minimum. Inserting lowers a free
slot's label into place; remove-min raises the source's label to INF. Free
slots are handed out by ascending position in the insertion order (a BFS
order of the DAG), so a fresh queue fills layer by layer. The heap of free
positions is lazy: it holds every free position plus stale ones whose vertex
has since filled. Insert pops only positions whose vertex is filled, so only
remove-min grows the heap, and there it is rebuilt past 2n entries.
"""

from __future__ import annotations

import heapq

from .dag import INF, LabeledDag, Label, is_finite_label
from .errors import (
    EmptyQueueError,
    FullQueueError,
    MultipleSourcesError,
    NonFiniteLabelError,
    NotAllInfinityError,
    RaiseToInfinityError,
)
from .reorder import ComparisonCounter, ExchangeTrace, lower_label, raise_label
from .topologies import bfs_order


class OrderedDagQueue:
    """Priority queue over a labeled DAG.

    ``order`` fixes where values are inserted: the free vertex at the
    smallest order position. Defaults to the DAG's BFS order; callers may
    pass any BFS-compatible order (the hypercube's popcount order, say).
    All comparison costs accumulate in ``counter``.
    """

    def __init__(self, dag: LabeledDag, order=None):
        if dag.prev_adj.count([]) != 1:
            raise MultipleSourcesError("queue requires a single-source DAG")
        if dag.labels.count(INF) != dag.n:
            raise NotAllInfinityError("queue creation requires all labels at INF")
        self.dag = dag
        order_list = list(order) if order is not None else list(bfs_order(dag))
        # n distinct members of range(n) are a permutation of it
        distinct = len(order_list) == len(set(order_list)) == dag.n
        if not (distinct and all(map(range(dag.n).__contains__, order_list))):
            raise ValueError("order must be a permutation of the vertices")
        if order_list[0] != dag.source:
            raise ValueError("order must start at the source")
        self._order = order_list
        self._free_positions = list(range(dag.n))  # ascending, already a heap
        self._position = [0] * dag.n
        for pos, v in zip(self._free_positions, order_list):
            self._position[v] = pos
        self.counter = ComparisonCounter()
        self.occupied = 0

    @property
    def capacity(self) -> int:
        return self.dag.n

    def __len__(self) -> int:
        return self.occupied

    def insert(self, label: Label) -> int:
        """Place a finite label at the first free slot and sift; returns the
        vertex where the label settled."""
        if not is_finite_label(label):
            raise NonFiniteLabelError(f"cannot insert {label!r}")
        if self.occupied >= self.dag.n:
            raise FullQueueError("queue is full")
        labels, order, heap = self.dag.labels, self._order, self._free_positions
        # pop only positions whose vertex is filled: only remove_min grows heap
        while labels[order[heap[0]]] != INF:
            heapq.heappop(heap)
        v = order[heap[0]]
        trace = lower_label(self.dag, v, label, self.counter)
        if labels[v] != INF:  # else the sift pulled an INF down into v
            heapq.heappop(heap)
        self.occupied += 1
        return trace.terminal_vertex

    def get_min(self) -> tuple[int, Label]:
        """Source vertex and its label; costs zero comparisons."""
        if self.occupied == 0:
            raise EmptyQueueError("queue is empty")
        return self.dag.source, self.dag.labels[self.dag.source]

    def remove_min(self) -> Label:
        if self.occupied == 0:
            raise EmptyQueueError("queue is empty")
        source, labels, heap = self.dag.source, self.dag.labels, self._free_positions
        smallest = labels[source]
        trace = raise_label(self.dag, source, INF, self.counter)
        heapq.heappush(heap, self._position[trace.terminal_vertex])
        if len(heap) > 2 * len(labels):  # drop the stale positions
            heap[:] = [p for p, u in enumerate(self._order) if labels[u] == INF]
        self.occupied -= 1
        return smallest

    def lower_label_at(self, v: int, new_label: Label) -> ExchangeTrace:
        """Decrease the label held at v. Lowering a free (INF) slot is a
        targeted insert and consumes one free slot; any position left at INF
        is still in the free heap."""
        if not is_finite_label(new_label):
            raise NonFiniteLabelError(f"cannot lower to {new_label!r}")
        # an out-of-range v is refused by lower_label before anything changes
        was_free = 0 <= v < self.dag.n and self.dag.labels[v] == INF
        trace = lower_label(self.dag, v, new_label, self.counter)
        if was_free:
            self.occupied += 1
        return trace

    def raise_label_at(self, v: int, new_label: Label) -> ExchangeTrace:
        """Increase the label held at v; raising to INF must use remove_min
        so the free-slot accounting stays truthful."""
        if new_label == INF:
            raise RaiseToInfinityError("use remove_min to vacate a slot")
        if not is_finite_label(new_label):
            raise NonFiniteLabelError(f"cannot raise to {new_label!r}")
        return raise_label(self.dag, v, new_label, self.counter)
