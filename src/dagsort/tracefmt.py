"""Render exchange traces as DOT snapshot sequences.

One digraph per sift iteration: the vertex currently holding the sifted
label is filled gray, the neighbour the next exchange will target is filled
black. The final snapshot has no black vertex. Output is fully
deterministic, byte for byte.

The sift is replayed from the trace's ``path`` and ``moved`` lists. The edge
block is formatted once, from the successor lists; one plain line per vertex
is kept, and each exchange re-formats two: the vertex the sifted label left
takes the displaced label, and the vertex it entered is drawn gray. A
snapshot is one join of its header, its vertex lines and the edge block.
Vertex ids are formatted once; a label is written by ``str``, which gives
``format_label``'s text for ints and for INF (``inf``).
"""

from __future__ import annotations

from .dag import Label, LabeledDag
from .reorder import ExchangeTrace


def dot_snapshots(
    g: LabeledDag,
    labels_before: list[Label],
    new_label: Label,
    trace: ExchangeTrace,
) -> list[str]:
    """Replay a lowering (or raising) trace against the pre-sift labels and
    render len(trace) + 1 snapshots."""
    ids = list(map(str, range(g.n)))
    plain = [f'  {v} [label="{x}"];\n' for v, x in zip(ids, labels_before)]
    edge_lines = [f"  {i} -> {ids[v]};\n" for i, vs in zip(ids, g.next_adj) for v in vs]
    edge_block = "".join(edge_lines) + "}\n"
    sifted = str(new_label)
    path, moved = trace.path, trace.moved
    snapshots = []
    for i, current in enumerate(path):
        lines = [f"digraph sift_{i} {{\n", *plain, edge_block]
        lines[1 + current] = (
            f'  {current} [label="{sifted}", style=filled, fillcolor=gray];\n'
        )
        if i < len(moved):
            target, displaced = path[i + 1], str(moved[i])
            lines[1 + target] = (
                f'  {target} [label="{displaced}", style=filled, '
                "fillcolor=black, fontcolor=white];\n"
            )
            # the exchange: the displaced label settles where the sifted one was
            plain[current] = f'  {current} [label="{displaced}"];\n'
        snapshots.append("".join(lines))
    return snapshots
