"""Any single-source DAG as a min-priority queue.

A vertex is a free slot exactly when its label is INF; finite labels are the
queue contents, and the labels are the only record of which slots are free.
The ordered property makes the source the minimum. Inserting lowers a free
slot's label into place; remove-min raises the source's label to INF. Free
slots are handed out by ascending position in the insertion order (a BFS
order of the DAG), so a fresh queue fills layer by layer. The heap of free
positions is lazy: it may hold positions whose vertex has since taken a
finite label, and those are skipped when popped.
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
        if sum(1 for p in dag.prev_adj if not p) != 1:
            raise MultipleSourcesError("queue requires a single-source DAG")
        if any(l != INF for l in dag.labels):
            raise NotAllInfinityError("queue creation requires all labels at INF")
        self.dag = dag
        order_list = list(order) if order is not None else list(bfs_order(dag))
        if len(order_list) != dag.n or set(order_list) != set(range(dag.n)):
            raise ValueError("order must be a permutation of the vertices")
        if order_list[0] != dag.source:
            raise ValueError("order must start at the source")
        self._order = order_list
        self._position = [0] * dag.n
        for pos, v in enumerate(order_list):
            self._position[v] = pos
        self._free_positions = list(range(dag.n))  # ascending, already a heap
        self.counter = ComparisonCounter()
        self.occupied = 0

    @property
    def capacity(self) -> int:
        return self.dag.n

    @property
    def insertion_order(self) -> tuple[int, ...]:
        return tuple(self._order)

    def __len__(self) -> int:
        return self.occupied

    def infinity_slots(self) -> frozenset[int]:
        labels = self.dag.labels
        return frozenset(v for v in range(self.dag.n) if labels[v] == INF)

    def _pop_free_vertex(self) -> int:
        # lazy deletion: positions whose vertex has since filled are skipped
        labels = self.dag.labels
        while self._free_positions:
            v = self._order[heapq.heappop(self._free_positions)]
            if labels[v] == INF:
                return v
        raise FullQueueError("no free slot available")

    def insert(self, label: Label) -> int:
        """Place a finite label at the first free slot and sift; returns the
        vertex where the label settled."""
        if not is_finite_label(label):
            raise NonFiniteLabelError(f"cannot insert {label!r}")
        if self.occupied >= self.dag.n:
            raise FullQueueError("queue is full")
        v = self._pop_free_vertex()
        trace = lower_label(self.dag, v, label, self.counter)
        if self.dag.labels[v] == INF:
            # The sift pulled an INF down from a previous neighbour, so v is
            # still free. Such steps form a prefix of the sift path (the INF
            # vertices are closed under successors), and every other vertex
            # they leave at INF was already free and queued.
            heapq.heappush(self._free_positions, self._position[v])
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
        source = self.dag.source
        smallest = self.dag.labels[source]
        trace = raise_label(self.dag, source, INF, self.counter)
        heapq.heappush(self._free_positions, self._position[trace.terminal_vertex])
        self.occupied -= 1
        return smallest

    def lower_label_at(self, v: int, new_label: Label) -> ExchangeTrace:
        """Decrease the label held at v. Lowering a free (INF) slot is a
        targeted insert and consumes one free slot; any position left at INF
        is still in the free heap."""
        if not is_finite_label(new_label):
            raise NonFiniteLabelError(f"cannot lower to {new_label!r}")
        was_free = self.dag.labels[v] == INF
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
