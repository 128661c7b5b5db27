"""The DAG text format against an adjacency oracle: edge lines in any order,
several roots, isolated vertices, ``inf`` labels, and exactly one injected
fault per malformed text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagsort import INF, CycleError, format_dag_text, format_label, parse_dag_text

from support import oracle_adjacency, ordered_dags


@st.composite
def edge_sets(draw, max_n: int = 16):
    """``(n, edges, labels)`` of an acyclic graph; ``labels`` may be None.

    Either an ordered single-source DAG from ``support.ordered_dags``, or a
    graph whose edges follow a random vertex permutation: it may have several
    roots and isolated vertices, and its edges need not go from low to high.
    """
    if draw(st.booleans()):
        g = draw(ordered_dags(max_n=max_n, infinity_tail=True))
        return g.n, list(g.edges()), g.labels
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
    # the edge lines come back sorted, whatever order they were read in
    assert format_dag_text(g) == dag_text(n, sorted(edges), g.labels)


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
