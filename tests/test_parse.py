"""The DAG text format against an adjacency oracle: edge lines in any order,
several roots, isolated vertices, ``inf`` labels, and exactly one injected
fault per malformed text. Then every validating entry point against
``support.oracle_build``, with up to three faults per edge list."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagsort import (
    INF,
    CycleError,
    DagSortError,
    LabeledDag,
    format_label,
    parse_dag_text,
)

from support import oracle_adjacency, oracle_build, ordered_dags


@st.composite
def edge_sets(draw, max_n: int = 16):
    """``(n, edges, labels)`` of an acyclic graph; ``labels`` may be None.

    Either an ordered single-source DAG from ``support.ordered_dags``, or a
    graph whose edges follow a random vertex permutation: it may have several
    roots and isolated vertices, and its edges need not go from low to high.
    """
    if draw(st.booleans()):
        g = draw(ordered_dags(max_n=max_n, infinity_tail=True))
        return g.n, [(u, v) for u, nxt in enumerate(g.next_adj) for v in nxt], g.labels
    n = draw(st.integers(1, max_n))
    rank = draw(st.permutations(range(n)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    edges = sorted({(rank[a], rank[b]) for a, b in pairs if a < b})
    label = st.integers(-50, 50) | st.just(INF)
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n))
    return n, edges, labels


def dag_text(n, edges, labels) -> str:
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    if labels is not None:
        lines.append("labels: " + " ".join(format_label(x) for x in labels))
    return "\n".join(lines) + "\n"


@given(edge_sets(), st.randoms(use_true_random=False))
def test_parse_matches_adjacency_oracle(graph, rng):
    n, edges, labels = graph
    shuffled = list(edges)
    rng.shuffle(shuffled)
    g = parse_dag_text(dag_text(n, shuffled, labels))
    next_adj, prev_adj = oracle_adjacency(n, edges)
    assert g.n == n
    assert g.next_adj == next_adj
    assert g.prev_adj == prev_adj
    assert g.labels == (labels if labels is not None else [INF] * n)
    assert g.source == min(v for v in range(n) if not prev_adj[v])


FAULTS = ("out of range", "self-loop", "duplicate", "back edge")


@given(edge_sets(), st.sampled_from(FAULTS), st.data())
def test_parse_names_the_one_injected_fault(graph, fault, data):
    n, edges, labels = graph
    if not edges and fault in ("duplicate", "back edge"):
        fault = "self-loop"  # both need an edge to copy or reverse
    if fault == "out of range":
        inside = data.draw(st.integers(0, n - 1))
        outside = data.draw(st.sampled_from([-1, n, n + 7, -(n + 3)]))
        bad = data.draw(st.sampled_from([(inside, outside), (outside, inside)]))
        error, message = ValueError, f"edge {bad} out of range for n={n}"
    elif fault == "self-loop":
        v = data.draw(st.integers(0, n - 1))
        bad = (v, v)
        error, message = ValueError, f"self-loop at vertex {v}"
    elif fault == "duplicate":
        bad = data.draw(st.sampled_from(edges))
        error, message = ValueError, f"duplicate edge {bad}"
    else:
        u, v = data.draw(st.sampled_from(edges))
        bad = (v, u)  # closes the cycle u -> v -> u
        error, message = CycleError, "edge set contains a directed cycle"
    faulty = data.draw(st.permutations([*edges, bad]))
    with pytest.raises(error) as info:
        parse_dag_text(dag_text(n, faulty, labels))
    assert type(info.value) is error
    assert str(info.value) == message


@st.composite
def faulty_edge_lists(draw, max_n: int = 12):
    """``(n, edges, labels)``: an acyclic edge set whose vertex ids follow a
    random permutation, so ids may fall along edges and some vertices may
    have no edge at all, plus up to three faults in random places. A
    ``back edge`` fault reverses an edge, or the rank order of a random pair,
    which closes a cycle when the pair is joined by a path. ``n`` may be 0 or
    negative; ``labels`` is None or n labels, ``inf`` among them."""
    n = draw(st.integers(-1, max_n))
    size = max(n, 1)
    rank = draw(st.permutations(range(size)))
    vertex = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * size))
    if draw(st.booleans()):  # a parent of lower rank for each vertex: one root
        pairs += [(draw(st.integers(0, b - 1)), b) for b in range(1, size)]
    edges = list({(rank[a], rank[b]) for a, b in pairs if a < b})
    # a cycle is named only when no other fault is, so back edges count twice
    fault_kind = st.sampled_from(FAULTS) | st.just("back edge")
    for fault in draw(st.lists(fault_kind, max_size=3)):
        if fault == "out of range":
            inside = draw(vertex)
            outside = draw(st.sampled_from([-1, size, size + 7, -(size + 3)]))
            edges.append(draw(st.sampled_from([(inside, outside), (outside, inside)])))
        elif fault == "self-loop":
            v = draw(vertex)
            edges.append((v, v))
        elif fault == "duplicate" and edges:
            edges.append(draw(st.sampled_from(edges)))
        elif fault == "back edge" and edges and draw(st.booleans()):
            u, v = draw(st.sampled_from(edges))
            edges.append((v, u))
        elif fault == "back edge" and size > 1:
            a = draw(st.integers(0, size - 2))
            b = draw(st.integers(a + 1, size - 1))
            edges.append((rank[b], rank[a]))
    edges = draw(st.permutations(edges))
    label = st.integers(-50, 50) | st.just(INF)
    labels = draw(st.none() | st.lists(label, min_size=max(n, 0), max_size=max(n, 0)))
    return n, edges, labels


def outcome(build):
    """What an admission did: the graph it built, or the fault it named."""
    try:
        g = build()
    except (ValueError, DagSortError) as exc:  # its type and message are pinned
        return type(exc), str(exc)
    return g.n, g.next_adj, g.prev_adj, g.source, g.labels


@settings(max_examples=400)
@given(faulty_edge_lists())
# a cycle through a vertex whose successors fall and rise: 2 -> 1 and 2 -> 3
@example((4, [(0, 1), (1, 2), (2, 1), (2, 3)], None))
def test_admission_matches_the_oracle(case):
    n, edges, labels = case
    single = outcome(lambda: oracle_build(n, edges, True))
    multi = outcome(lambda: oracle_build(n, edges, False))
    assert outcome(lambda: LabeledDag.from_edges(n, edges)) == single
    assert outcome(lambda: LabeledDag.from_edges_multi_source(n, edges)) == multi
    parsed = outcome(lambda: parse_dag_text(dag_text(n, edges, labels)))
    if labels is not None and len(multi) == 5:
        multi = (*multi[:4], labels)
    assert parsed == multi
