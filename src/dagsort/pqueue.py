"""Any single-source DAG as a min-priority queue.

A vertex is a free slot exactly when its label is INF; finite labels are the
queue contents, and the labels are the only record of which slots are free.
The ordered property makes the source the minimum. Inserting lowers a free
slot's label into place; remove-min raises the source's label to INF. Free
slots are handed out by ascending position in the insertion order, which
sorts take from ``topologies.order_for``. One byte per position marks the
slots that may be free, and none is free below ``_lowest``. A set byte is
only a hint: insert clears it where the label is finite, so the labels
still decide.

``drain`` raises each minimum to ``top``, one above the largest held label,
not to INF: only held labels are below either, so sifts and counts match.
"""

from __future__ import annotations

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
    smallest order position; any permutation of the vertices that starts at
    the source. Sorts pass ``order_for(dag)``, a topological order. The BFS
    default is kept for direct users; on a non-graded DAG it is not
    topological, and an insert can pull INF down. Costs go to ``counter``.
    """

    def __init__(self, dag: LabeledDag, order=None):
        if dag.prev_adj.count([]) != 1:
            raise MultipleSourcesError("queue requires a single-source DAG")
        if dag.labels.count(INF) != dag.n:
            raise NotAllInfinityError("queue creation requires all labels at INF")
        self.dag = dag
        order_list = list(order) if order is not None else list(bfs_order(dag))
        # n entries that include all n vertices are a permutation of them
        if len(order_list) != dag.n or not set(order_list).issuperset(range(dag.n)):
            raise ValueError("order must be a permutation of the vertices")
        if order_list[0] != dag.source:
            raise ValueError("order must start at the source")
        self._order = order_list
        self._position = [0] * dag.n
        for pos, v in enumerate(order_list):
            self._position[v] = pos
        # dag.labels is only ever changed in place and n is fixed, so hold both
        self._labels, self._n = dag.labels, dag.n
        self._free = bytearray(b"\x01" * dag.n)  # 0: filled; 1: maybe free
        self._lowest = 0  # every free slot's position is at least this
        self.counter = ComparisonCounter()
        self.occupied = 0

    @property
    def capacity(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self.occupied

    def insert(self, label: Label) -> int:
        """Place a finite label at the first free slot and sift; returns the
        vertex where the label settled."""
        if type(label) is not int and not is_finite_label(label):
            raise NonFiniteLabelError(f"cannot insert {label!r}")
        if self.occupied >= self._n:
            raise FullQueueError("queue is full")
        labels, order, free = self._labels, self._order, self._free
        pos = free.find(1, self._lowest)  # not -1: some slot is free
        while labels[order[pos]] != INF:  # filled by a sift or lower_label_at
            free[pos] = 0
            pos = free.find(1, pos + 1)
        self._lowest = pos
        v = order[pos]
        trace = lower_label(self.dag, v, label, self.counter)
        if labels[v] != INF:  # else the sift pulled an INF down into v
            free[pos] = 0
        self.occupied += 1
        return trace.path[-1]

    def get_min(self) -> tuple[int, Label]:
        """Source vertex and its label; costs zero comparisons."""
        if self.occupied == 0:
            raise EmptyQueueError("queue is empty")
        return self.dag.source, self.dag.labels[self.dag.source]

    def remove_min(self) -> Label:
        if self.occupied == 0:
            raise EmptyQueueError("queue is empty")
        source = self.dag.source
        smallest = self._labels[source]
        trace = raise_label(self.dag, source, INF, self.counter)
        pos = self._position[trace.path[-1]]
        self._free[pos] = 1
        if pos < self._lowest:
            self._lowest = pos
        self.occupied -= 1
        return smallest

    def drain(self) -> list[Label]:
        """Remove every held label, smallest first; every label ends at INF."""
        labels, source, dag, counter = self._labels, self.dag.source, self.dag, self.counter
        top = max(filter(INF.__ne__, labels), default=0) + 1
        out = []
        for _ in range(self.occupied):
            out.append(labels[source])
            raise_label(dag, source, top, counter)
        labels[:] = [INF] * self._n
        self._free[:] = b"\x01" * self._n
        self._lowest = self.occupied = 0
        return out

    def lower_label_at(self, v: int, new_label: Label) -> ExchangeTrace:
        """Decrease the label held at v. Lowering a free (INF) slot is a
        targeted insert and consumes one free slot."""
        if not is_finite_label(new_label):
            raise NonFiniteLabelError(f"cannot lower to {new_label!r}")
        # an out-of-range v is refused by lower_label before anything changes
        was_free = 0 <= v < self._n and self._labels[v] == INF
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
