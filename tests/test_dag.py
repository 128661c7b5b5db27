"""Construction, validation, orderedness and the text format."""

import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given

from dagsort import (
    INF,
    CycleError,
    LabeledDag,
    MultipleSourcesError,
    format_label,
    is_finite_label,
    parse_dag_text,
    parse_label,
    topological_order,
)
from dagsort.demo import DEMO_TEXT
from dagsort.random_dags import random_ordered_labels, random_single_source_dag

from support import assert_adjacency_consistent, single_source_dags

DEMO_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "demo12.dag"


def test_from_edges_minimal_chain():
    g = LabeledDag.from_edges(2, [(0, 1)])
    assert g.source == 0
    assert g.labels == [INF, INF]
    assert g.prev_adj == [[], [0]]
    assert g.next_adj == [[1], []]


def test_from_edges_rejects_cycle():
    with pytest.raises(CycleError):
        LabeledDag.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def test_from_edges_rejects_two_roots():
    with pytest.raises(MultipleSourcesError):
        LabeledDag.from_edges(3, [(0, 2), (1, 2)])


def test_from_edges_rejects_bad_endpoints_and_duplicates():
    with pytest.raises(ValueError):
        LabeledDag.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        LabeledDag.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledDag.from_edges(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        LabeledDag.from_edges(0, [])


def test_multi_source_constructor_picks_lowest_root():
    g = LabeledDag.from_edges_multi_source(3, [(0, 2), (1, 2)])
    assert g.source == 0
    with pytest.raises(CycleError):
        LabeledDag.from_edges_multi_source(2, [(0, 1), (1, 0)])


def test_demo_graph_needs_the_tolerant_constructor(demo):
    edges = [(u, v) for u, nxt in enumerate(demo.next_adj) for v in nxt]
    with pytest.raises(MultipleSourcesError):
        LabeledDag.from_edges(demo.n, edges)
    assert demo.source == 0
    assert demo.n == 12 and len(edges) == 18


def test_demo_fixture_matches_demo_module():
    """demo.py holds the fixture's text (an installed package cannot read
    fixtures/), byte for byte, so the two cannot drift apart."""
    assert DEMO_FIXTURE.read_text() == DEMO_TEXT


def test_single_vertex():
    g = LabeledDag.from_edges(1, [])
    assert g.source == 0 and g.labels == [INF]
    assert g.is_ordered()


def test_is_ordered(demo):
    assert demo.is_ordered()
    demo.labels[9] = 3
    assert not demo.is_ordered()


def test_all_infinity_is_ordered():
    g = LabeledDag.from_edges(3, [(0, 1), (0, 2)])
    assert g.is_ordered()


def test_labels_multiset(demo):
    counts = Counter(demo.labels)
    assert sum(counts.values()) == 12
    assert counts == {1: 1, 2: 1, 4: 1, 6: 2, 8: 2, 9: 1, 10: 1, 12: 1, 14: 1, 16: 1}
    assert demo.labels == [1, 2, 4, 6, 6, 8, 8, 10, 9, 12, 14, 16]


def test_label_helpers():
    assert is_finite_label(0) and is_finite_label(-(2**40))
    assert not is_finite_label(INF)
    assert not is_finite_label(True)
    assert not is_finite_label(1.5)
    assert format_label(INF) == "inf" and format_label(-3) == "-3"
    assert parse_label("inf") == INF and parse_label("17") == 17


@given(single_source_dags())
def test_adjacency_lists_mirror_each_other(g):
    assert_adjacency_consistent(g)
    order = topological_order(g)
    position = {v: i for i, v in enumerate(order)}
    for u, nxt in enumerate(g.next_adj):
        assert all(position[u] < position[v] for v in nxt)


def test_topological_order_is_kahns_fifo_order():
    # sources 1 and 3 in ascending id; 3 releases 0 before 2; 4 joins when
    # its last predecessor, 2, is taken
    g = LabeledDag.from_edges_multi_source(5, [(3, 2), (3, 0), (1, 4), (0, 4), (2, 4)])
    assert topological_order(g) == [1, 3, 0, 2, 4]
    chain = LabeledDag.from_edges(4, [(2, 0), (0, 3), (3, 1)])
    assert topological_order(chain) == [2, 0, 3, 1]


@pytest.mark.parametrize(
    "n, tail", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 4), (5, 2), (5, 9), (5, 10)]
)
def test_random_ordered_labels_puts_inf_on_the_last_tail_vertices(n, tail):
    g = random_single_source_dag(random.Random(n), n)
    random_ordered_labels(random.Random(tail), g, infinity_tail=tail)
    assert g.labels.count(INF) == min(tail, n)
    at_inf = [g.labels[v] == INF for v in topological_order(g)]
    assert at_inf == sorted(at_inf) and g.is_ordered()  # the order's last ones


def test_text_format_infinity_and_no_labels():
    assert parse_dag_text("2 1\n0 1\nlabels: inf 5\n").labels == [INF, 5]
    bare = parse_dag_text("2 1\n0 1\n")
    assert bare.labels == [INF, INF]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2",
        "2 1",
        "2 1\n0 one",
        "2 1\n0 1\nlabels: 3",
        "2 1\n0 1\nlabels: 3 x",
        "2 1\n0 1\nextra 1 2",
        "3 2\n0 1\n1 0\n",
    ],
)
def test_text_format_rejects_malformed(text):
    with pytest.raises((ValueError, CycleError)):
        parse_dag_text(text)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", ValueError, "expected 'n m' header"),
        ("2", ValueError, "expected 'n m' header"),
        ("2 x\n", ValueError, "bad header: invalid literal for int() with base 10: 'x'"),
        ("two 1\n", ValueError, "bad header: invalid literal for int() with base 10: 'two'"),
        ("2 -1\n", ValueError, "negative edge count"),
        ("16777217 -1\n", ValueError, "vertex count 16777217 exceeds 16777216"),
        ("4194305 0\n", ValueError, "4194305 vertices plus 0 edges exceed 4194304"),
        ("1 4194304\n", ValueError, "1 vertices plus 4194304 edges exceed 4194304"),
        ("1 4194303\n", ValueError, "expected 4194303 edges, input ends early"),
        ("-1 4194305\n", ValueError, "-1 vertices plus 4194305 edges exceed 4194304"),
        ("0 0\n", ValueError, "vertex count must be positive, got 0"),
        ("-3 0\n", ValueError, "vertex count must be positive, got -3"),
        ("2 1\n", ValueError, "expected 1 edges, input ends early"),
        ("2 1", ValueError, "expected 1 edges, input ends early"),
        ("3 2\n0 1\n1\n", ValueError, "expected 2 edges, input ends early"),
        ("2 1\n0 one\n", ValueError, "bad edge token: invalid literal for int() with base 10: 'one'"),
        ("2 1\n0 one", ValueError, "bad edge token: invalid literal for int() with base 10: 'one'"),
        ("3 2\n0 1\n1.5 2\n", ValueError, "bad edge token: invalid literal for int() with base 10: '1.5'"),
        ("2 1\n0 2\n", ValueError, "edge (0, 2) out of range for n=2"),
        ("2 1\n-1 1\n", ValueError, "edge (-1, 1) out of range for n=2"),
        ("3 2\n0 1\n1 1\n", ValueError, "self-loop at vertex 1"),
        ("3 3\n0 1\n1 2\n0 1\n", ValueError, "duplicate edge (0, 1)"),
        ("3 3\n0 1\n1 2\n2 0\n", CycleError, "edge set contains a directed cycle"),
        ("3 2\n0 1\n1 0\n", CycleError, "edge set contains a directed cycle"),
        ("2 1\n0 1\nextra 1 2\n", ValueError, "unexpected token 'extra'"),
        ("2 1\n0 1\nextra 1 2", ValueError, "unexpected token 'extra'"),
        ("2 1\n0 1\nlabels: 3\n", ValueError, "expected 2 labels, got 1"),
        ("2 1\n0 1\nlabels: 3", ValueError, "expected 2 labels, got 1"),
        ("2 1\n0 1\nlabels: 3 x\n", ValueError, "bad label token: invalid literal for int() with base 10: 'x'"),
        ("2 1\n0 1\nlabels: 3 x", ValueError, "bad label token: invalid literal for int() with base 10: 'x'"),
        ("3 2\n0 1\n0 2\nlabels: inf y x\n", ValueError, "bad label token: invalid literal for int() with base 10: 'y'"),
        ("3 2\n0 1\n0 2\nlabels: 1 y inf\n", ValueError, "bad label token: invalid literal for int() with base 10: 'y'"),
    ],
)
def test_text_format_fault_messages(text, error, message):
    """One malformed text per fault kind, with its exact exception type and
    message: the contract of ``parse_dag_text`` for input with one fault."""
    with pytest.raises(error) as info:
        parse_dag_text(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_surplus_labels_are_counted_not_split():
    """Past the header's n labels the text is counted, not split, with the
    whitespace ``str.split`` uses: a 6 000 014-byte text of 2 000 001 labels
    for one vertex peaks at a few MiB of ``tracemalloc`` (129 MiB when the
    whole text was split first) and keeps its exact count."""
    for text, got in (
        ("2 1\n0 1\nlabels: 3 4\t5\n 6 \n", 4),
        ("2 1\n0 1\nlabels: 3 4 5\x1c6\u20037\x85", 5),
    ):
        with pytest.raises(ValueError) as info:
            parse_dag_text(text)
        assert str(info.value) == f"expected 2 labels, got {got}"
    text = "1 0\nlabels: 5" + " 99" * 2_000_000 + "\n"
    assert len(text) == 6_000_014
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            parse_dag_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "expected 1 labels, got 2000001"
    assert peak < 8 << 20, peak  # one copy of the surplus is about 5.7 MiB


def test_copy_is_independent(demo):
    twin = demo.copy()
    assert type(twin) is LabeledDag
    assert (twin.n, twin.source, twin.lone_prev, twin.lone_next) == (
        demo.n, demo.source, demo.lone_prev, demo.lone_next
    )
    twin.labels[0] = -5
    twin.prev_adj[2].append(99)
    twin.next_adj[2].append(98)
    assert demo.labels[0] == 1
    assert 99 not in demo.prev_adj[2]
    assert 98 not in demo.next_adj[2]
