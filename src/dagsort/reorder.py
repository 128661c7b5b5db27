"""Sift procedures that restore the ordered property after one label changes.

Lowering a label walks it toward the source, repeatedly swapping with the
largest violating previous neighbour; raising mirrors that toward the sinks
with the smallest violating next neighbour. Each direction is one
self-contained kernel that scans the neighbourhood inline, ties going to the
smallest vertex id (the first in the ascending adjacency list). Lowering on
a tree (raising on a chain) follows ``lone_prev`` (``lone_next``) instead.
Raising can also be phrased as lowering the negated label on the
edge-reversed DAG, which ``raise_label_via_reversal`` implements as a
cross-check.

A sift records its walk in two plain lists, ``path`` (the vertices the
sifted label visits, from the starting vertex to where it settles) and
``moved`` (the label each exchange displaced), one append to each per swap.
An exchange writes only the displaced label, into the vertex the sifted
label leaves; the sifted label is written once, where it settles. No scan
reads the stale label left behind: that would take a cycle in the DAG.
Everything in the package reads those two lists: the queue and the sort
drivers only the terminal vertex, ``format_trace``, the DOT renderer and the
``golden-trace`` verify suite the whole walk. The two lists fix every
intermediate state of the sift; a caller that wants those states replays
them from the pre-sift labels. ``ExchangeStep`` tuples are built only when
a caller outside the package reads ``ExchangeTrace.steps``.

Cost model: selecting among a vertex's m previous (or next) neighbours costs
exactly m label comparisons when m >= 1 (m - 1 to find the extreme neighbour
plus one violation test) and 0 when m = 0. A one-neighbour step is that
single comparison: one read of the flat array, no adjacency list, no scan.
A sift adds its total to the counter once, when it ends. Every count in the
package is in these units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .dag import Label, LabeledDag, format_label
from .errors import NotLoweringError, NotRaisingError


@dataclass(slots=True, eq=False)
class ComparisonCounter:
    """Mutable tally of label-vs-label comparisons; it starts at 0."""

    count: int = field(default=0, init=False)


class ExchangeStep(NamedTuple):
    """One swap: ``moved_label`` was displaced out of ``to_vertex`` into
    ``from_vertex`` while the sifted label advanced the other way."""

    from_vertex: int
    to_vertex: int
    moved_label: Label


@dataclass(slots=True)
class ExchangeTrace:
    """Record of one sift: ``path`` lists the visited vertices from the
    starting vertex to the terminal one, and ``moved[i]`` is the label the
    exchange from ``path[i]`` to ``path[i + 1]`` displaced.

    Consecutive path vertices are neighbours: each is a previous neighbour
    of the one before it when lowering, a next neighbour when raising.
    ``len(trace)`` is the number of exchanges. Traces compare equal when
    their paths and displaced labels match; they are mutable and unhashable.
    """

    path: list[int]
    moved: list[Label]

    @property
    def terminal_vertex(self) -> int:
        """Where the sifted label settled."""
        return self.path[-1]

    @property
    def steps(self) -> tuple[ExchangeStep, ...]:
        """The exchanges in order, built afresh from ``path`` and ``moved``."""
        path = self.path
        return tuple(map(ExchangeStep, path, path[1:], self.moved))

    def __len__(self) -> int:
        return len(self.moved)


def format_trace(trace: ExchangeTrace) -> str:
    """Serialize a trace, one ``swap u v label=x`` line per exchange."""
    path = trace.path
    return "".join(
        f"swap {u} {v} label={format_label(x)}\n"
        for u, v, x in zip(path, path[1:], trace.moved)
    )


def lower_label(
    g: LabeledDag,
    v: int,
    new_label: Label,
    counter: ComparisonCounter | None = None,
) -> ExchangeTrace:
    """Replace labels[v] with a strictly smaller value and sift it toward the
    source until no previous neighbour violates the ordered property.

    Each step swaps with the previous neighbour holding the largest label,
    ties broken toward the smallest vertex id, while that label exceeds the
    sifted one. Requires an ordered g on entry (not checked: the scan is
    O(edges)); leaves g ordered with the same label multiset except for the
    one replacement.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    if not new_label < g.labels[v]:
        raise NotLoweringError(
            f"new label {new_label!r} does not lower {g.labels[v]!r} at vertex {v}"
        )

    labels = g.labels
    prev_adj = g.prev_adj
    current = v
    path = [v]
    moved: list[Label] = []
    if (lone := g.lone_prev) is not None:  # a tree: follow the one edge, no scan
        while (u := lone[current]) is not None:
            displaced = labels[u]
            if not displaced > new_label:
                break
            labels[current] = displaced
            path.append(u)
            moved.append(displaced)
            current = u
        comparisons = len(moved) + (u is not None)  # a stop paid its one test
    else:
        comparisons = 0
        while True:
            # seeding the scan with the sifted label and moving only on a strict
            # rise lands on the largest violating label at its smallest id; the
            # seed object survives the scan only when nothing violates
            prev = prev_adj[current]
            comparisons += len(prev)
            displaced = new_label
            for w in prev:
                if labels[w] > displaced:
                    u = w
                    displaced = labels[w]
            if displaced is new_label:
                break
            labels[current] = displaced
            path.append(u)
            moved.append(displaced)
            current = u
    labels[current] = new_label
    if counter is not None:
        counter.count += comparisons
    return ExchangeTrace(path, moved)


def raise_label(
    g: LabeledDag,
    v: int,
    new_label: Label,
    counter: ComparisonCounter | None = None,
) -> ExchangeTrace:
    """Replace labels[v] with a strictly larger value (INF allowed) and sift
    it toward the sinks, swapping with the smallest violating next neighbour.
    Exact mirror of lower_label.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    if not new_label > g.labels[v]:
        raise NotRaisingError(
            f"new label {new_label!r} does not raise {g.labels[v]!r} at vertex {v}"
        )

    labels = g.labels
    next_adj = g.next_adj
    current = v
    path = [v]
    moved: list[Label] = []
    if (lone := g.lone_next) is not None:  # a chain: follow the one edge, no scan
        while (u := lone[current]) is not None:
            displaced = labels[u]
            if not displaced < new_label:
                break
            labels[current] = displaced
            path.append(u)
            moved.append(displaced)
            current = u
        comparisons = len(moved) + (u is not None)  # a stop paid its one test
    else:
        comparisons = 0
        while True:
            nxt = next_adj[current]
            comparisons += len(nxt)
            displaced = new_label
            for w in nxt:
                if labels[w] < displaced:
                    u = w
                    displaced = labels[w]
            if displaced is new_label:
                break
            labels[current] = displaced
            path.append(u)
            moved.append(displaced)
            current = u
    labels[current] = new_label
    if counter is not None:
        counter.count += comparisons
    return ExchangeTrace(path, moved)


def raise_label_via_reversal(
    g: LabeledDag,
    v: int,
    new_label: Label,
    counter: ComparisonCounter | None = None,
) -> ExchangeTrace:
    """Raise by lowering on the logically reversed DAG.

    Negates every label in place (INF becomes -INF), runs lower_label over a
    view that swaps the adjacency roles, then negates back. No edges are
    copied and g ends with its original orientation and label signs, plus the
    one raised label. Must agree exactly with raise_label, swap for swap.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    if not new_label > g.labels[v]:
        raise NotRaisingError(
            f"new label {new_label!r} does not raise {g.labels[v]!r} at vertex {v}"
        )
    labels = g.labels
    for i in range(g.n):
        labels[i] = -labels[i]
    reversed_view = replace(g, prev_adj=g.next_adj, next_adj=g.prev_adj)
    inner = lower_label(reversed_view, v, -new_label, counter)
    for i in range(g.n):
        labels[i] = -labels[i]
    return ExchangeTrace(inner.path, [-x for x in inner.moved])
