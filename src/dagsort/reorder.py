"""Sift procedures that restore the ordered property after one label changes.

Lowering a label walks it toward the source, repeatedly swapping with the
largest violating previous neighbour; raising mirrors that toward the sinks
with the smallest violating next neighbour. Each direction is one
self-contained loop that scans the neighbourhood inline, ties going to the
smallest vertex id (the first in the ascending adjacency list). Raising can
also be phrased as lowering the negated label on the edge-reversed DAG,
which ``raise_label_via_reversal`` implements as a cross-check.

Cost model: selecting among a vertex's m previous (or next) neighbours costs
exactly m label comparisons when m >= 1 (m - 1 to find the extreme neighbour
plus one violation test) and 0 when m = 0. A sift adds its total to the
counter once, when it ends. Every count in the package is in these units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .dag import Label, LabeledDag, format_label
from .errors import NotLoweringError, NotOrderedError, NotRaisingError


class ComparisonCounter:
    """Mutable tally of label-vs-label comparisons."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __repr__(self) -> str:
        return f"ComparisonCounter(count={self.count})"


class ExchangeStep(NamedTuple):
    """One swap: ``moved_label`` was displaced out of ``to_vertex`` into
    ``from_vertex`` while the sifted label advanced the other way."""

    from_vertex: int
    to_vertex: int
    moved_label: Label


@dataclass(frozen=True)
class ExchangeTrace:
    """Record of one sift: the swaps in order plus where the label settled.

    Consecutive steps form a directed path: each ``to_vertex`` is a previous
    neighbour of its ``from_vertex`` when lowering, a next neighbour when
    raising.
    """

    steps: tuple[ExchangeStep, ...]
    terminal_vertex: int

    def __len__(self) -> int:
        return len(self.steps)


IterationHook = Optional[Callable[[LabeledDag, int], None]]


def format_trace(trace: ExchangeTrace) -> str:
    """Serialize a trace, one ``swap u v label=x`` line per step."""
    return "".join(
        f"swap {s.from_vertex} {s.to_vertex} label={format_label(s.moved_label)}\n"
        for s in trace.steps
    )


def lower_label(
    g: LabeledDag,
    v: int,
    new_label: Label,
    counter: ComparisonCounter | None = None,
    *,
    iteration_hook: IterationHook = None,
    check_ordered: bool = False,
) -> ExchangeTrace:
    """Replace labels[v] with a strictly smaller value and sift it toward the
    source until no previous neighbour violates the ordered property.

    Each step swaps with the previous neighbour holding the largest label,
    ties broken toward the smallest vertex id, while that label exceeds the
    sifted one. Requires an ordered g on entry (validated only when
    ``check_ordered`` is set, the scan is O(edges)); leaves g ordered with
    the same label multiset except for the one replacement.
    ``iteration_hook``, when given, is called with (g, current_vertex) at the
    end of every loop iteration; it exists for instrumented tests and costs
    nothing otherwise.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    if not new_label < g.labels[v]:
        raise NotLoweringError(
            f"new label {new_label!r} does not lower {g.labels[v]!r} at vertex {v}"
        )
    if check_ordered and not g.is_ordered():
        raise NotOrderedError("lower_label requires an ordered DAG")

    labels = g.labels
    prev_adj = g.prev_adj
    labels[v] = new_label
    current = v
    comparisons = 0
    steps: list[ExchangeStep] = []
    while True:
        # seeding the scan with the sifted label and moving only on a strict
        # rise lands on the largest violating label at its smallest id
        prev = prev_adj[current]
        comparisons += len(prev)
        u = current
        displaced = new_label
        for w in prev:
            lw = labels[w]
            if lw > displaced:
                u = w
                displaced = lw
        if u == current:
            break
        labels[current] = displaced
        labels[u] = new_label
        steps.append(ExchangeStep(current, u, displaced))
        current = u
        if iteration_hook is not None:
            iteration_hook(g, current)
    if iteration_hook is not None:
        iteration_hook(g, current)
    if counter is not None:
        counter.count += comparisons
    return ExchangeTrace(tuple(steps), current)


def raise_label(
    g: LabeledDag,
    v: int,
    new_label: Label,
    counter: ComparisonCounter | None = None,
    *,
    iteration_hook: IterationHook = None,
    check_ordered: bool = False,
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
    if check_ordered and not g.is_ordered():
        raise NotOrderedError("raise_label requires an ordered DAG")

    labels = g.labels
    next_adj = g.next_adj
    labels[v] = new_label
    current = v
    comparisons = 0
    steps: list[ExchangeStep] = []
    while True:
        nxt = next_adj[current]
        comparisons += len(nxt)
        u = current
        displaced = new_label
        for w in nxt:
            lw = labels[w]
            if lw < displaced:
                u = w
                displaced = lw
        if u == current:
            break
        labels[current] = displaced
        labels[u] = new_label
        steps.append(ExchangeStep(current, u, displaced))
        current = u
        if iteration_hook is not None:
            iteration_hook(g, current)
    if iteration_hook is not None:
        iteration_hook(g, current)
    if counter is not None:
        counter.count += comparisons
    return ExchangeTrace(tuple(steps), current)


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
    # source is meaningless on the reversed view; the sift never consults it
    reversed_view = LabeledDag(
        n=g.n,
        prev_adj=g.next_adj,
        next_adj=g.prev_adj,
        labels=labels,
        source=g.source,
    )
    inner = lower_label(reversed_view, v, -new_label, counter)
    for i in range(g.n):
        labels[i] = -labels[i]
    steps = tuple(
        ExchangeStep(s.from_vertex, s.to_vertex, -s.moved_label) for s in inner.steps
    )
    return ExchangeTrace(steps, inner.terminal_vertex)
