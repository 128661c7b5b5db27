"""Render exchange traces as DOT snapshot sequences.

One digraph per sift iteration: the vertex currently holding the sifted
label is filled gray, the neighbour the next exchange will target is filled
black. The final snapshot has no black vertex. Output is fully
deterministic, byte for byte.

The sift is replayed from the trace's ``path`` and ``moved`` lists. The edge
block never changes, so it is formatted once; one plain line per vertex is
kept, and each exchange re-formats two lines: the vertex the sifted label
left takes the displaced label, and the vertex it entered is drawn gray.
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
    edge_block = "".join(f"  {u} -> {v};\n" for u, v in g.edges()) + "}\n"
    sifted = format_label(new_label)
    path, moved = trace.path, trace.moved
    snapshots = []
    for i, current in enumerate(path):
        lines = plain.copy()
        lines[current] = (
            f'  {current} [label="{sifted}", style=filled, fillcolor=gray];\n'
        )
        if i < len(moved):
            target, displaced = path[i + 1], format_label(moved[i])
            lines[target] = (
                f'  {target} [label="{displaced}", style=filled, '
                "fillcolor=black, fontcolor=white];\n"
            )
            # the exchange: the displaced label settles where the sifted one was
            plain[current] = f'  {current} [label="{displaced}"];\n'
        snapshots.append(f"digraph sift_{i} {{\n" + "".join(lines) + edge_block)
    return snapshots
