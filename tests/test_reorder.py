"""Sift procedures: neighbour selection, lowering, raising, and their contracts."""

import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagsort import (
    INF,
    ComparisonCounter,
    ExchangeStep,
    ExchangeTrace,
    LabeledDag,
    NotLoweringError,
    NotRaisingError,
    OrderedDagQueue,
    Path,
    Star,
    build,
    dag_sort,
    format_trace,
    hypercube_sort,
    lower_label,
    parse_dag_text,
    parse_topology,
    raise_label,
    raise_label_via_reversal,
    topological_order,
)
from dagsort import cli, reorder
from dagsort.demo import demo_dag
from dagsort.random_dags import random_ordered_labels, random_single_source_dag

from support import (
    bad_edges,
    finite_multiset,
    longest_path_ending_at,
    longest_path_starting_at,
    oracle_largest_violating,
    oracle_smallest_violating_next,
    ordered_dags,
    replay_states,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
EXPECTED_DEMO_STEPS = [(9, 7, 10), (7, 8, 9), (8, 5, 8), (5, 3, 6), (3, 2, 4)]
EXPECTED_DEMO_FINAL = [1, 2, 3, 4, 6, 6, 8, 9, 8, 10, 14, 16]


def test_selector_picks_largest_violating_prev(demo):
    trace = lower_label(demo, 9, 3)
    assert trace.steps[0] == (9, 7, 10)  # 10 is the max of {8, 10, 9} at 6, 7, 8


def test_selector_tie_breaks_to_smallest_id():
    g = LabeledDag.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    g.labels[:] = [1, 7, 7, 8]
    c = ComparisonCounter()
    trace = lower_label(g, 3, 5, c)
    assert [tuple(s) for s in trace.steps] == [(3, 1, 7)]
    assert g.labels == [1, 5, 7, 7]
    assert c.count == 3  # two previous neighbours at 3, one at 1

    g.labels[:] = [1, 3, 3, 9]
    c = ComparisonCounter()
    trace = raise_label(g, 0, 5, c)
    assert [tuple(s) for s in trace.steps] == [(0, 1, 3)]
    assert g.labels == [3, 5, 3, 9]
    assert c.count == 3  # two next neighbours at 0, one at 1


def test_selector_none_cases(demo):
    c = ComparisonCounter()
    trace = lower_label(demo, 0, 0, c)  # no previous neighbours
    assert len(trace) == 0 and trace.terminal_vertex == 0
    assert c.count == 0
    trace = lower_label(demo, 9, 11, c)  # 11 still exceeds 8, 10, 9: nothing violates
    assert len(trace) == 0 and trace.terminal_vertex == 9
    assert c.count == 3  # scanning still costs
    trace = raise_label(demo, 11, 99, c)  # a sink has no next neighbours
    assert len(trace) == 0 and c.count == 3


def test_next_selector_mirror():
    g = build(Star(4))
    g.labels[:] = [1, 4, 7, 2]
    c = ComparisonCounter()
    trace = raise_label(g, 0, 5, c)
    assert [tuple(s) for s in trace.steps] == [(0, 3, 2)]
    assert c.count == 3  # the leaf 3 has no next neighbours to scan
    trace = raise_label(g, 0, 3, c)  # 3 is below 4, 7, 5: nothing violates
    assert len(trace) == 0
    assert c.count == 6


BIG = int("1" + "0" * 20)


@pytest.mark.parametrize(
    "sift, labels, v, new",
    [
        # the neighbour holds the very object being sifted (a cached small int)
        (lower_label, [1, 4, 5, 9], 3, 5),
        # an equal big int that is a distinct object: equal, yet not identical
        (lower_label, [1, 4, BIG, BIG + 1], 3, int("1" + "0" * 20)),
        # raising to INF where every next neighbour already holds INF
        (raise_label, [0, INF, INF, INF], 0, INF),
    ],
    ids=["same-object", "distinct-equal-bigint", "raise-to-inf"],
)
def test_sift_stops_on_an_equal_extreme_neighbour(sift, labels, v, new):
    """A tie with the extreme neighbour is no violation: the sift makes no
    exchange, writes the new label where it started, and still pays for
    the one scan."""
    g = LabeledDag.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    g.labels[:] = labels
    adj = g.prev_adj if sift is lower_label else g.next_adj
    c = ComparisonCounter()
    trace = sift(g, v, new, c)
    assert len(trace) == 0 and trace.path == [v]
    assert g.labels[v] == new and g.labels[v] is new
    assert g.labels == [*labels[:v], new, *labels[v + 1 :]]
    assert c.count == len(adj[v]) == 2


def fresh_int(x: int) -> int:
    """An int equal to x built as a new object (CPython caches only small ints)."""
    return int(str(x))


def test_tie_between_equal_distinct_objects_goes_to_the_smallest_id():
    """Two neighbours hold equal big ints that are distinct objects: the
    exchange takes the one at the smallest id, so that very object moves."""
    g = LabeledDag.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    first, second = fresh_int(10**30), fresh_int(10**30)
    assert first == second and first is not second
    g.labels[:] = [1, first, second, 10**31]
    c = ComparisonCounter()
    trace = lower_label(g, 3, 5, c)
    assert (trace.path, c.count) == ([3, 1], 3)
    assert trace.moved[0] is first and g.labels[3] is first and g.labels[2] is second

    g.labels[:] = [1, first, second, 10**31]
    c = ComparisonCounter()
    trace = raise_label(g, 0, 10**30 + 5, c)
    assert (trace.path, c.count) == ([0, 1], 3)
    assert trace.moved[0] is first and g.labels[0] is first and g.labels[2] is second


@pytest.mark.parametrize(
    "sift, edges, labels, v, path",
    [
        # lowered past vertex 3, then both previous neighbours of 3 tie
        (lower_label, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
         [1, fresh_int(BIG), fresh_int(BIG), 10**25, 10**26], 4, [4, 3]),
        # raised past vertex 1, then both next neighbours of 1 tie
        (raise_label, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
         [1, 5, fresh_int(BIG), fresh_int(BIG), 10**26], 0, [0, 1]),
    ],
    ids=["lower", "raise"],
)
def test_walk_stops_on_equal_labels_held_by_distinct_objects(sift, edges, labels, v, path):
    """Neighbours equal to the sifted label, as distinct objects, are no
    violation: the walk stops there and pays only for the scans it made."""
    g = LabeledDag.from_edges(5, edges)
    g.labels[:] = labels
    new = fresh_int(BIG)
    assert all(new is not x for x in labels)
    adj = g.prev_adj if sift is lower_label else g.next_adj
    c = ComparisonCounter()
    trace = sift(g, v, new, c)
    assert trace.path == path and trace.moved == [labels[path[1]]]
    assert g.labels[path[-1]] is new
    assert c.count == sum(len(adj[u]) for u in path) == 3


@pytest.mark.parametrize("new", [10, INF])
@pytest.mark.parametrize("labels", [[0, INF, 4, INF], [0, INF, INF, 4], [0, 4, INF, INF]])
def test_raise_scan_skips_inf_around_the_smallest_finite_label(labels, new):
    g = build(Star(4))
    g.labels[:] = labels
    twin = g.copy()
    c = ComparisonCounter()
    trace = raise_label(g, 0, new, c)
    assert (trace.path, trace.moved, c.count) == ([0, labels.index(4)], [4], 3)
    assert g.labels[0] == 4 and g.labels[labels.index(4)] == new
    assert raise_label_via_reversal(twin, 0, new) == trace and twin.labels == g.labels


@given(ordered_dags(infinity_tail=True), st.data())
def test_selectors_match_oracle(g, data):
    """Every step of either sift goes where the oracle selector points, and
    the sift costs the summed neighbourhood sizes of the vertices it visits."""
    v = data.draw(st.integers(0, g.n - 1))
    old = g.labels[v]
    lowering = old == INF or data.draw(st.booleans())
    if lowering:
        new = data.draw(st.integers(-200, 200)) if old == INF else old - data.draw(
            st.integers(1, 30)
        )
        sift, oracle, adj = lower_label, oracle_largest_violating, g.prev_adj
    else:
        new = INF if data.draw(st.booleans()) else old + data.draw(st.integers(1, 30))
        sift, oracle, adj = raise_label, oracle_smallest_violating_next, g.next_adj
    # a label some vertex already holds makes the sifted one tie on the way
    held = [x for x in g.labels if (x < old if lowering else x > old)]
    if held and data.draw(st.booleans()):
        new = data.draw(st.sampled_from(held))
    labels_before = list(g.labels)
    c = ComparisonCounter()
    trace = sift(g, v, new, c)
    picks = []
    for state, at in replay_states(g, labels_before, v, new, trace):
        picks.append(oracle(state, at))
    assert state.labels == g.labels
    # each state's pick is the next exchange's target; the last state has none
    assert picks == trace.path[1:] + [None]
    visited = [v] + [s.to_vertex for s in trace.steps]
    assert c.count == sum(len(adj[u]) for u in visited)


@given(ordered_dags(infinity_tail=True), st.data())
def test_replay_ends_on_the_sifted_labels(g, data):
    """What the sift tests lean on: from the pre-sift labels and the trace
    alone, the replay ends on the labels the sift left, and every state on
    the way holds the post-replacement label multiset."""
    v = data.draw(st.integers(0, g.n - 1))
    old = g.labels[v]
    if old == INF or data.draw(st.booleans()):
        new = data.draw(st.integers(-200, 200)) if old == INF else old - data.draw(
            st.integers(1, 30)
        )
        sift = lower_label
    else:
        new = INF if data.draw(st.booleans()) else old + data.draw(st.integers(1, 30))
        sift = raise_label
    labels_before = list(g.labels)
    after = Counter(labels_before)
    after[old] -= 1
    after[new] += 1
    trace = sift(g, v, new)
    for state, _ in replay_states(g, labels_before, v, new, trace):
        assert Counter(state.labels) == +after
    assert state.labels == g.labels


def test_lower_label_singleton():
    g = LabeledDag.from_edges(1, [])
    trace = lower_label(g, 0, 42)
    assert g.labels == [42]
    assert len(trace) == 0 and trace.terminal_vertex == 0


def test_lower_label_path_example():
    g = build(Path(3))
    g.labels[:] = [1, 4, 9]
    trace = lower_label(g, 2, 0)
    assert g.labels == [0, 1, 4]
    assert len(trace) == 2 and trace.terminal_vertex == 0


def test_lower_label_demo_trace(demo):
    c = ComparisonCounter()
    trace = lower_label(demo, 9, 3, c)
    assert [tuple(s) for s in trace.steps] == EXPECTED_DEMO_STEPS
    assert [s.moved_label for s in trace.steps] == [10, 9, 8, 6, 4]
    assert trace.terminal_vertex == 2
    assert demo.labels == EXPECTED_DEMO_FINAL
    assert demo.is_ordered()
    assert c.count == 13  # sum of prev-degrees along 9, 7, 8, 5, 3, 2


def test_lower_label_preconditions(demo):
    with pytest.raises(NotLoweringError):
        lower_label(demo, 9, 12)  # equal is not lower
    with pytest.raises(NotLoweringError):
        lower_label(demo, 0, INF)
    with pytest.raises(IndexError):
        lower_label(demo, 12, 0)


def test_raise_label_path_example():
    g = build(Path(3))
    g.labels[:] = [1, 2, 3]
    trace = raise_label(g, 0, 5)
    assert g.labels == [2, 3, 5]
    assert len(trace) == 2 and trace.terminal_vertex == 2


def test_raise_label_sink_is_trivial():
    g = build(Path(3))
    g.labels[:] = [1, 2, 3]
    trace = raise_label(g, 2, 9)
    assert g.labels == [1, 2, 9] and len(trace) == 0


def test_raise_label_to_infinity_star():
    g = build(Star(4))
    g.labels[:] = [1, 4, 7, 2]
    c = ComparisonCounter()
    raise_label(g, 0, INF, c)
    assert g.labels == [2, 4, 7, INF]
    assert c.count == 3  # one scan of the leaves, then the new leaf has no nexts


def test_raise_label_preconditions(demo):
    with pytest.raises(NotRaisingError):
        raise_label(demo, 9, 12)
    with pytest.raises(NotRaisingError):
        raise_label_via_reversal(demo, 9, 11)


def test_reversal_equivalence_star_example():
    direct = build(Star(4))
    direct.labels[:] = [1, 4, 7, 2]
    twin = direct.copy()
    t1 = raise_label(direct, 0, INF)
    t2 = raise_label_via_reversal(twin, 0, INF)
    assert direct.labels == twin.labels == [2, 4, 7, INF]
    assert t1 == t2


def test_reversal_restores_signs_and_orientation(demo):
    before = demo.copy()
    lists = demo.labels, demo.prev_adj, demo.next_adj
    raise_label_via_reversal(demo, 0, 3)
    assert (demo.prev_adj, demo.next_adj) == (before.prev_adj, before.next_adj)
    # the same list objects: a queue over this DAG holds ``dag.labels``
    assert all(a is b for a, b in zip(lists, (demo.labels, demo.prev_adj, demo.next_adj)))
    assert all(l > 0 for l in demo.labels)
    assert demo.is_ordered()


@given(ordered_dags(), st.data())
def test_reversal_equivalence_property(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    bump = data.draw(st.integers(1, 20))
    use_inf = data.draw(st.booleans())
    new = INF if use_inf else g.labels[v] + bump
    twin = g.copy()
    t1 = raise_label(g, v, new)
    t2 = raise_label_via_reversal(twin, v, new)
    assert g.labels == twin.labels
    assert t1 == t2


@given(ordered_dags(infinity_tail=True), st.data())
def test_sift_postconditions(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    old = g.labels[v]
    before = Counter(g.labels)
    lowering = data.draw(st.booleans()) if old != INF else True
    if lowering:
        new = data.draw(st.integers(-200, 200)) if old == INF else old - data.draw(
            st.integers(1, 20)
        )
        trace = lower_label(g, v, new)
        path_bound = longest_path_ending_at(g)
    else:
        new = INF if data.draw(st.booleans()) else old + data.draw(st.integers(1, 20))
        trace = raise_label(g, v, new)
        path_bound = longest_path_starting_at(g)
    assert g.is_ordered()
    before[old] -= 1
    before[new] += 1
    assert +before == +Counter(g.labels)
    assert len(trace) <= path_bound[v]
    # steps form a neighbour path from v to the terminal vertex
    at = v
    for step in trace.steps:
        assert step.from_vertex == at
        if lowering:
            assert step.to_vertex in g.prev_adj[at]
        else:
            assert step.to_vertex in g.next_adj[at]
        at = step.to_vertex
    assert at == trace.terminal_vertex
    # displaced labels now sit along the path, so the sifted label rests at the end
    assert g.labels[trace.terminal_vertex] == new


@given(ordered_dags(), st.data())
def test_sift_cost_accounting(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    c = ComparisonCounter()
    delta = data.draw(st.integers(1, 9))
    if data.draw(st.booleans()):
        trace, adj = lower_label(g, v, g.labels[v] - delta, c), g.prev_adj
    else:
        trace, adj = raise_label(g, v, g.labels[v] + delta, c), g.next_adj
    visited = [v] + [s.to_vertex for s in trace.steps]
    assert c.count == sum(len(adj[u]) for u in visited)


class NoScan(list):
    """An adjacency list that refuses to be iterated, indexed, measured or
    truth-tested: a sift that reads it at all fails."""

    def _refuse(self, *args):
        raise AssertionError("scanned a neighbourhood")

    __iter__ = __getitem__ = __len__ = __bool__ = _refuse


@pytest.mark.parametrize("side", ["prev", "next"])
@pytest.mark.parametrize(
    "spec, one_prev, one_next",
    [
        ("star:8", True, False),
        ("path:8", True, True),
        ("grid:1:8", True, True),
        ("grid:2:3", False, False),
        ("hypercube:3", False, False),
        ("dag40", False, False),
    ],
)
def test_sift_form_follows_the_degree_maxima(spec, one_prev, one_next, side):
    """A sift follows the one edge through ``lone_prev`` (``lone_next``) and
    reads no adjacency list exactly when no vertex has two neighbours on its
    side: trees when lowering, chains when raising. Any other DAG takes the
    scan loop."""
    if spec == "dag40":
        g = parse_dag_text((FIXTURES / "dag40.dag").read_text())
    else:
        g = build(parse_topology(spec))
    assert (g.lone_prev is not None, g.lone_next is not None) == (one_prev, one_next)
    order = topological_order(g)
    for rank, v in enumerate(order):
        g.labels[v] = 2 * rank
    g.prev_adj[:] = map(NoScan, g.prev_adj)
    g.next_adj[:] = map(NoScan, g.next_adj)
    if side == "prev":
        sift, v, new, step, follows = lower_label, order[-1], -1, -1, one_prev
    else:
        sift, v, new, step, follows = raise_label, g.source, INF, 1, one_next
    if not follows:
        with pytest.raises(AssertionError, match="scanned"):
            sift(g, v, new)
        return
    c = ComparisonCounter()
    # an odd label between the neighbours' even ones: no exchange, one test
    assert len(sift(g, v, g.labels[v] + step, c)) == 0 and c.count == 1
    c.count = 0
    trace = sift(g, v, new, c)
    assert trace.terminal_vertex == (g.source if side == "prev" else order[-1])
    assert g.labels[trace.terminal_vertex] == new
    assert c.count == len(trace)  # one per step; none at the source or sink


@pytest.mark.parametrize(
    "spec, labels, sift, v, new, path, moved, count",
    [
        # INF pulled down from free parents, then a stop at a finite one
        ("path:4", [1, INF, INF, INF], lower_label, 3, 5, [3, 2, 1], [INF, INF], 3),
        # down to the source, which has no previous neighbour to compare
        ("path:4", [1, 2, INF, INF], lower_label, 3, 0, [3, 2, 1, 0], [INF, 2, 1], 3),
        ("star:4", [INF] * 4, lower_label, 2, 5, [2, 0], [INF], 1),
        ("star:4", [1, 4, 7, 2], lower_label, 1, 3, [1], [], 1),
        # raised to INF down the whole chain; the sink compares nothing
        ("path:4", [1, 2, 3, 4], raise_label, 0, INF, [0, 1, 2, 3], [2, 3, 4], 3),
        ("path:4", [1, 2, INF, INF], raise_label, 0, INF, [0, 1], [2], 2),
        # a tie with the one neighbour is no violation
        ("path:4", [1, 2, 3, 4], raise_label, 1, 3, [1], [], 1),
    ],
)
def test_one_neighbour_steps_move_inf_and_pay_one_comparison(
    spec, labels, sift, v, new, path, moved, count
):
    g = build(parse_topology(spec))
    g.labels[:] = labels
    twin = g.copy()
    c = ComparisonCounter()
    trace = sift(g, v, new, c)
    assert (trace.path, trace.moved, c.count) == (path, moved, count)
    assert g.is_ordered()
    if sift is raise_label:
        assert raise_label_via_reversal(twin, v, new) == trace and twin.labels == g.labels


def test_lone_neighbours_are_derived_and_left_out_of_eq_and_repr(monkeypatch):
    """The arrays the sift form reads are made from the adjacency by every
    constructor, never copied, and take no part in ``==`` or ``repr``."""
    single = LabeledDag.from_edges(1, [])
    assert (single.lone_prev, single.lone_next) == ([None], [None])
    star = [None, 0, 0, 0]
    made = [
        LabeledDag.from_successors([[1, 2, 3], [], [], []]),
        LabeledDag.from_edges(4, [(0, 3), (0, 1), (0, 2)]),
        LabeledDag.from_edges_multi_source(4, [(0, 3), (0, 1), (0, 2)]),
        build(Star(4)),
    ]
    assert all((g.lone_prev, g.lone_next) == (star, None) for g in made)
    chain = LabeledDag.from_edges_multi_source(4, [(2, 0), (3, 1)])  # two chains
    assert (chain.lone_prev, chain.lone_next) == ([2, 3, None, None], [None, None, 0, 1])
    g = build(Star(8))
    assert "lone_" not in repr(g)
    g.lone_prev = g.lone_next = [5] * 8  # stale, as if adjacency changed
    assert g == build(Star(8))
    twin = g.copy()
    assert (twin.lone_prev, twin.lone_next) == ([None] + [0] * 7, None)
    views = []
    real = reorder.lower_label

    def spy(view, *args):
        views.append(view)
        return real(view, *args)

    monkeypatch.setattr(reorder, "lower_label", spy)
    g.labels[:] = range(8)
    raise_label_via_reversal(g, 0, INF)
    assert (views[0].lone_prev, views[0].lone_next) == (None, [None] + [0] * 7)


def test_sift_determinism(demo):
    first = lower_label(demo_dag(), 9, 3)
    second = lower_label(demo_dag(), 9, 3)
    assert first == second
    assert format_trace(first) == format_trace(second)


def test_trace_records_path_and_moved_labels(demo):
    empty = lower_label(demo, 0, 0)  # the source has no previous neighbours
    assert len(empty) == 0 and empty.steps == () and empty.terminal_vertex == 0

    trace = lower_label(demo, 9, 3)
    assert trace.path == [9, 7, 8, 5, 3, 2]
    assert trace.moved == [10, 9, 8, 6, 4]
    assert len(trace) == 5 and trace.terminal_vertex == 2
    first = trace.steps[0]
    assert isinstance(first, ExchangeStep)
    assert (first.from_vertex, first.to_vertex, first.moved_label) == (9, 7, 10)
    assert trace.steps == tuple(EXPECTED_DEMO_STEPS)

    assert trace == lower_label(demo_dag(), 9, 3)
    assert trace != lower_label(demo_dag(), 9, 5)  # stops one step earlier
    assert trace != lower_label(demo_dag(), 10, 3)


def test_trace_and_counter_value_semantics():
    """A trace is a mutable value, equal by its two lists and unhashable; a
    counter is a mutable tally, equal only to itself and hashable."""
    trace = ExchangeTrace([9, 7], [10])
    assert repr(trace) == "ExchangeTrace(path=[9, 7], moved=[10])"
    assert trace == ExchangeTrace([9, 7], [10])
    assert trace != ExchangeTrace([9, 7], [11])
    assert trace.__eq__(([9, 7], [10])) is NotImplemented
    with pytest.raises(TypeError):
        hash(trace)

    counter, twin = ComparisonCounter(), ComparisonCounter()
    assert counter.count == 0
    for args, kwargs in (((5,), {}), ((), {"count": 5})):
        with pytest.raises(TypeError):
            ComparisonCounter(*args, **kwargs)  # a counter always starts at 0
    counter.count += 3
    twin.count += 3
    assert repr(counter) == "ComparisonCounter(count=3)"
    assert counter == counter and counter != twin
    assert len({counter, twin}) == 2
    for obj in (trace, counter):
        with pytest.raises(AttributeError):
            obj.extra = 1  # slots: no per-instance dict


@pytest.mark.parametrize(
    "sift, spec, labels, v, new",
    [
        (lower_label, "path:4", [1, 2, 3, 4], 3, 0),  # tree loop
        (lower_label, "hypercube:2", [1, 2, 3, 4], 3, 0),  # scan loop
        (raise_label, "path:4", [1, 2, 3, 4], 0, 9),  # chain loop
        (raise_label, "hypercube:2", [1, 2, 3, 4], 0, INF),  # scan loop
        (raise_label_via_reversal, "hypercube:2", [1, 2, 3, 4], 0, 9),
    ],
    ids=["lower-tree", "lower-scan", "raise-chain", "raise-scan", "raise-via-reversal"],
)
def test_traces_the_kernels_return_are_full_values(sift, spec, labels, v, new):
    """A returned trace behaves exactly like one made by the constructor."""
    g = build(parse_topology(spec))
    g.labels[:] = labels
    trace = sift(g, v, new)
    assert type(trace) is ExchangeTrace and len(trace.path) == len(trace.moved) + 1 > 1
    made = ExchangeTrace(trace.path, trace.moved)
    assert trace == made and repr(trace) == repr(made)
    assert trace.terminal_vertex == trace.path[-1] and len(trace) == len(trace.moved)
    assert trace.steps == made.steps
    with pytest.raises(TypeError):
        hash(trace)
    with pytest.raises(AttributeError):
        trace.extra = 1


def test_hot_path_builds_no_steps(monkeypatch, capsys):
    """Sorting and queue calls read only terminal vertices, and the trace
    renderers and verify suites read ``path``/``moved``, so no exchange step
    is ever built on their behalf."""

    def no_steps(*args):
        raise AssertionError("ExchangeStep built on the hot path")

    monkeypatch.setattr(reorder, "ExchangeStep", no_steps)
    rng = random.Random(4)
    values = [rng.randrange(200) for _ in range(64)]
    assert dag_sort(build(Path(64)), values).output == sorted(values)
    values = [rng.randrange(200) for _ in range(100)]
    assert hypercube_sort(values).output == sorted(values)

    q = OrderedDagQueue(random_single_source_dag(rng, 24, extra_edges=20))
    for x in (9, 4, 7, 1, 8, 3):
        q.insert(x)
    v = q.dag.labels.index(8)
    q.lower_label_at(v, 0)
    v = q.dag.labels.index(3)
    q.raise_label_at(v, 12)
    assert q.get_min()[1] == 0
    assert [q.remove_min() for _ in range(len(q))] == [0, 1, 4, 7, 9, 12]

    # `dagsort verify` has no per-suite option; a full run includes golden-trace
    capsys.readouterr()
    assert cli.main(["verify", "--runs", "5"]) == 0
    assert "PASS golden-trace" in capsys.readouterr().out
    argv = ["trace", "--input", str(FIXTURES / "demo12.dag")]
    argv += ["--vertex", "9", "--new-label", "3"]
    assert cli.main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("swap 9 7 label=10\nswap 7 8 label=9\n")
    assert cli.main(argv + ["--format", "dot"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "demo12_sift.dot").read_text()


def test_loop_invariant_hook(demo):
    """Both halves of the loop invariant hold at every replayed state."""
    labels_before = list(demo.labels)
    trace = lower_label(demo, 9, 3)
    checked = []
    for state, current in replay_states(demo, labels_before, 9, 3, trace):
        for u, v in bad_edges(state):
            assert v == current  # every bad edge enters the sifted vertex
        for p in state.prev_adj[current]:
            for q in state.next_adj[current]:
                assert state.labels[p] <= state.labels[q]
        checked.append(current)
    assert state.labels == demo.labels
    assert checked == [9, 7, 8, 5, 3, 2]  # the start, then once per exchange
    assert demo.is_ordered()


def test_format_trace_lines(demo):
    trace = lower_label(demo, 9, 3)
    assert format_trace(trace) == (
        "swap 9 7 label=10\n"
        "swap 7 8 label=9\n"
        "swap 8 5 label=8\n"
        "swap 5 3 label=6\n"
        "swap 3 2 label=4\n"
    )
    empty = raise_label(demo, 11, 99)
    assert format_trace(empty) == ""


def test_inverted_tie_break_changes_the_golden_trace(demo):
    """Guard on the smallest-id tie rule: the golden trace's (5, 3, 6) step is
    a 6/6 tie between vertices 3 and 4; an implementation preferring the
    larger id would go to 4 and diverge from the golden trace."""
    labels_before = list(demo.labels)
    trace = lower_label(demo, 9, 3)
    tied = []
    for state, current in replay_states(demo, labels_before, 9, 3, trace):
        if current == 5:
            tied.append([state.labels[u] for u in state.prev_adj[5]])
    assert state.labels == demo.labels
    assert demo.prev_adj[5] == [3, 4]
    assert tied == [[6, 6]]
    assert [tuple(s) for s in trace.steps] == EXPECTED_DEMO_STEPS
    assert demo.labels[4] == 6  # the larger id kept its label


def test_bulk_random_ops_stay_ordered():
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        g = random_single_source_dag(rng, rng.randint(1, 30))
        random_ordered_labels(rng, g, infinity_tail=rng.randint(0, 3))
        for _ in range(10):
            v = rng.randrange(g.n)
            old = g.labels[v]
            if old == INF:
                lower_label(g, v, rng.randint(-50, 50))
            elif rng.random() < 0.5:
                lower_label(g, v, old - rng.randint(1, 10))
            else:
                raise_label(g, v, old + rng.randint(1, 10))
            assert g.is_ordered()
        assert sum(1 for l in g.labels if l == INF) + finite_multiset(g).total() == g.n
