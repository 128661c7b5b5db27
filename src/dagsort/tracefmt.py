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
"""

from __future__ import annotations

from .dag import Label, LabeledDag, format_label
from .reorder import ExchangeTrace


def dot_snapshots(
    g: LabeledDag,
    labels_before: list[Label],
    vertex: int,
    new_label: Label,
    trace: ExchangeTrace,
) -> list[str]:
    """Replay a lowering (or raising) trace against the pre-sift labels and
    render len(trace) + 1 snapshots."""
    plain = [
        f'  {v} [label="{format_label(x)}"];\n' for v, x in enumerate(labels_before)
    ]
    edge_lines = [f"  {u} -> {v};\n" for u, nxt in enumerate(g.next_adj) for v in nxt]
    edge_block = "".join(edge_lines) + "}\n"
    sifted = format_label(new_label)
    path, moved = trace.path, trace.moved
    snapshots = []
    for i, current in enumerate(path):
        lines = [f"digraph sift_{i} {{\n", *plain, edge_block]
        lines[1 + current] = (
            f'  {current} [label="{sifted}", style=filled, fillcolor=gray];\n'
        )
        if i < len(moved):
            target, displaced = path[i + 1], format_label(moved[i])
            lines[1 + target] = (
                f'  {target} [label="{displaced}", style=filled, '
                "fillcolor=black, fontcolor=white];\n"
            )
            # the exchange: the displaced label settles where the sifted one was
            plain[current] = f'  {current} [label="{displaced}"];\n'
        snapshots.append("".join(lines))
    return snapshots
