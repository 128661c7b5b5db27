"""A hand-built 12-vertex ordered DAG used by docs, golden tests and the
trace tooling, kept as ``DEMO_TEXT``: the text of ``fixtures/demo12.dag``
byte for byte, since an installed package cannot read ``fixtures/``.

It has two in-degree-0 vertices (so the strict constructor rejects it), one
pair of equal labels meeting at a shared successor, and a five-exchange
lowering: dropping the label 12 at vertex 9 to 3 displaces 10, 9, 8, 6, 4 in
that order and settles at vertex 2.
"""

from __future__ import annotations

from .dag import LabeledDag, parse_dag_text

DEMO_TEXT = """12 18
0 2
1 2
1 8
2 3
2 4
3 5
3 6
4 5
5 6
5 7
5 8
6 7
6 9
7 9
8 7
8 9
9 10
9 11
labels: 1 2 4 6 6 8 8 10 9 12 14 16
"""


def demo_dag() -> LabeledDag:
    return parse_dag_text(DEMO_TEXT)
