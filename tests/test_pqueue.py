"""Queue discipline over labeled DAGs, checked against a multiset oracle."""

import random
from collections import Counter
from enum import IntEnum
from itertools import compress
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsort import (
    INF,
    EmptyQueueError,
    FullQueueError,
    LabeledDag,
    MultipleSourcesError,
    NonFiniteLabelError,
    NotAllInfinityError,
    NotLoweringError,
    NotRaisingError,
    OrderedDagQueue,
    Path,
    RaiseToInfinityError,
    bfs_order,
    build,
    lower_label,
    order_for,
    parse_topology,
    raise_label,
)
from dagsort.demo import demo_dag
from dagsort.random_dags import random_single_source_dag

from support import ScanQueue, finite_multiset, single_source_dags

FAMILIES = ("star:8", "path:8", "grid:2:3", "hypercube:3")


def fresh_queue(spec):
    g = build(parse_topology(spec))
    return OrderedDagQueue(g, order=order_for(g))


def test_create_requires_single_source_and_fresh_labels():
    with pytest.raises(MultipleSourcesError):
        OrderedDagQueue(demo_dag())
    g = build(Path(3))
    g.labels[0] = 1
    with pytest.raises(NotAllInfinityError):
        OrderedDagQueue(g)


def test_create_validates_order():
    g = build(Path(3))
    with pytest.raises(ValueError):
        OrderedDagQueue(g, order=[0, 1])
    with pytest.raises(ValueError):
        OrderedDagQueue(g, order=[1, 0, 2])
    # a repeated, an out-of-range, a negative and a non-int vertex, each of the
    # right length
    for order in ([0, 1, 1], [0, 1, 3], [0, -1, 2], [0, "1", 2]):
        with pytest.raises(ValueError) as exc:
            OrderedDagQueue(g, order=order)
        assert str(exc.value) == "order must be a permutation of the vertices", order
    q = OrderedDagQueue(g, order=(v for v in [0, 1, 2]))
    assert [q.insert(5) for _ in range(3)] == [0, 1, 2]


def test_insert_examples():
    q = fresh_queue("hypercube:2")
    assert q.insert(7) == 0  # lands at the source
    assert q.counter.count == 0
    assert q.insert(3) == 0  # sifts past the 7
    assert q.counter.count == 1
    assert q.dag.labels == [3, 7, INF, INF]
    assert q.occupied == 2


def test_insert_equal_labels_never_exchange():
    q = fresh_queue("hypercube:3")
    order = order_for(q.dag)
    for i in range(8):
        assert q.insert(5) == order[i]  # settles where it was placed
    assert q.counter.count == sum(len(q.dag.prev_adj[v]) for v in order)


def test_insert_validation():
    q = fresh_queue("path:2")
    with pytest.raises(NonFiniteLabelError):
        q.insert(INF)
    with pytest.raises(NonFiniteLabelError):
        q.insert(1.5)
    q.insert(1)
    q.insert(2)
    with pytest.raises(FullQueueError):
        q.insert(3)


def test_insert_admits_exact_ints_and_int_subclasses_but_not_bools():
    q = fresh_queue("path:3")
    for label in (True, False):
        with pytest.raises(NonFiniteLabelError):
            q.insert(label)
        with pytest.raises(NonFiniteLabelError):
            q.lower_label_at(2, label)
        assert len(q) == 0 and q.dag.labels == [INF] * 3
    assert q.insert(Rank.HIGH) == 0
    q.lower_label_at(2, Rank.LOW)  # a targeted insert at a free vertex
    assert len(q) == 2 and q.dag.labels == [Rank.LOW, Rank.HIGH, INF]
    assert q.remove_min() is Rank.LOW and q.remove_min() is Rank.HIGH


def test_get_min():
    q = fresh_queue("hypercube:2")
    with pytest.raises(EmptyQueueError):
        q.get_min()
    q.insert(7)
    q.insert(3)
    before = q.counter.count
    assert q.get_min() == (0, 3)
    assert q.counter.count == before  # free peek
    single = fresh_queue("path:1")
    single.insert(42)
    assert single.get_min() == (0, 42)


def test_get_min_with_duplicates():
    q = fresh_queue("star:3")
    for v in (5, 5, 9):
        q.insert(v)
    assert q.get_min()[1] == 5


def test_remove_min_example():
    q = fresh_queue("hypercube:2")
    q.insert(7)
    q.insert(3)
    assert q.remove_min() == 3
    assert q.get_min() == (0, 7)
    assert q.occupied == 1
    assert q.remove_min() == 7
    with pytest.raises(EmptyQueueError):
        q.remove_min()
    assert all(l == INF for l in q.dag.labels)


def test_remove_min_returns_sorted_stream():
    rng = random.Random(11)
    for spec in FAMILIES:
        q = fresh_queue(spec)
        values = [rng.randint(-50, 50) for _ in range(q.capacity)]
        for v in values:
            q.insert(v)
        assert [q.remove_min() for _ in values] == sorted(values)


class Rank(IntEnum):
    LOW = 3
    HIGH = 7


# tie-heavy labels: a few small ints, int subclasses equal to two of them,
# and ints too large to be shared objects, so ``is`` tells copies apart
TIED_LABELS = st.one_of(
    st.integers(-3, 3), st.sampled_from([Rank.LOW, Rank.HIGH, 10**20, -(10**20)])
)


def recorded_raises(run):
    """Call ``run()`` with ``pqueue.raise_label`` wrapped, as the benchmark's
    tracer wraps it; return its result and the trace of every raise."""
    traces = []

    def recording(dag, v, new_label, counter=None):
        traces.append(raise_label(dag, v, new_label, counter))
        return traces[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dagsort.pqueue.raise_label", recording)
        return run(), traces


def assert_drain_matches_remove_min_loop(q, twin):
    """Drain q and remove twin's minima one by one; both must agree on every
    returned object, every raise's path and displaced labels, and the count,
    and leave every label INF."""
    held = len(q)
    out, traces = recorded_raises(q.drain)
    expected, twin_traces = recorded_raises(
        lambda: [twin.remove_min() for _ in range(held)]
    )
    assert len(out) == len(expected) == len(traces) == held
    assert all(a is b for a, b in zip(out, expected))
    assert traces == twin_traces
    assert q.counter.count == twin.counter.count
    assert q.dag.labels == twin.dag.labels == [INF] * q.capacity
    assert len(q) == len(twin) == 0


@settings(max_examples=200, deadline=None)
@given(
    single_source_dags(max_n=24),
    st.booleans(),
    st.lists(TIED_LABELS, max_size=24),
    st.lists(st.tuples(st.sampled_from("LRU"), st.integers(0, 99), TIED_LABELS), max_size=8),
    st.lists(TIED_LABELS, max_size=24),
)
def test_drain_matches_a_remove_min_loop(g, topological, fill, ops, refill):
    """A drain raises each minimum to one above the largest held label, not
    to INF, yet must act as a loop of ``remove_min``: on trees, chains and
    DAGs whose BFS order is not topological, after a full or partial fill in
    either order, after targeted lowering (of free slots too), raising and
    removals, and again after the drained queue is refilled."""
    order = order_for(g) if topological else None
    q, twin = OrderedDagQueue(g, order=order), OrderedDagQueue(g.copy(), order=order)
    for x in fill[: g.n]:
        assert q.insert(x) == twin.insert(x)
    for kind, pick, x in ops:
        labels = q.dag.labels
        if kind == "U" and len(q):
            assert q.remove_min() is twin.remove_min()
        elif kind == "L":
            v = pick % g.n
            new = x if labels[v] == INF else labels[v] - 1 - pick % 3
            assert q.lower_label_at(v, new) == twin.lower_label_at(v, new)
        elif kind == "R" and len(q):
            v = [u for u in range(g.n) if labels[u] != INF][pick % len(q)]
            new = labels[v] + 1 + pick % 3
            assert q.raise_label_at(v, new) == twin.raise_label_at(v, new)
        assert q.dag.labels == twin.dag.labels
    assert_drain_matches_remove_min_loop(q, twin)
    for x in refill[: g.n]:
        assert q.insert(x) == twin.insert(x)
    assert q.dag.labels == twin.dag.labels
    assert_drain_matches_remove_min_loop(q, twin)


def test_drain_of_an_empty_queue_returns_nothing():
    q = fresh_queue("grid:2:3")
    assert q.drain() == []
    q.insert(4)
    assert q.drain() == [4]
    assert q.drain() == []
    assert q.counter.count == 2  # the one removal's raise: two successors
    assert q.dag.labels == [INF] * q.capacity and len(q) == 0


def test_targeted_lower_and_raise():
    q = fresh_queue("grid:2:3")
    for v in range(1, 10):
        q.insert(v * 10)
    resting = q.dag.labels.index(90)
    q.lower_label_at(resting, -1)
    assert q.get_min() == (0, -1)
    q.raise_label_at(0, 500)  # push the minimum out of the way
    assert q.get_min()[1] == 10
    with pytest.raises(RaiseToInfinityError):
        q.raise_label_at(0, INF)
    with pytest.raises(NotRaisingError):
        q.raise_label_at(0, -7)
    with pytest.raises(NotLoweringError):
        q.lower_label_at(0, 600)
    with pytest.raises(NonFiniteLabelError):
        q.lower_label_at(0, 0.5)


def test_lowering_a_free_slot_is_an_insert():
    q = fresh_queue("path:4")
    q.insert(5)
    q.lower_label_at(2, 3)  # vertex 2 held INF
    assert q.occupied == 2
    assert q.get_min() == (0, 3)
    assert sorted([q.remove_min(), q.remove_min()]) == [3, 5]
    assert q.occupied == 0


def test_pure_insert_prefix_property():
    for spec in FAMILIES:
        q = fresh_queue(spec)
        order = order_for(q.dag)
        for m in range(1, q.capacity + 1):
            q.insert(100 - m)
            finite = {v for v in range(q.capacity) if q.dag.labels[v] != INF}
            assert finite == set(order[:m])


@settings(max_examples=200, deadline=None)
@given(single_source_dags(max_n=30), st.randoms(use_true_random=False))
def test_fill_in_topological_order_never_displaces_inf(g, rng):
    """Why sorts insert in ``order_for``'s topological order: every free
    slot's predecessors are filled first, so after the i-th insert of a fill
    exactly the first i vertices of the order hold finite labels, on any DAG
    shape. BFS order, the queue's default, breaks this on a DAG whose BFS
    order is not topological."""
    order = order_for(g)
    q = OrderedDagQueue(g, order=order)
    labels = g.labels
    for i in range(1, g.n + 1):
        q.insert(rng.randrange(-g.n, g.n + 1))
        assert [labels[v] != INF for v in order] == [True] * i + [False] * (g.n - i)


def test_insert_after_remove_reuses_smallest_position():
    q = fresh_queue("hypercube:2")
    for v in (4, 5, 6, 7):
        q.insert(v)
    q.remove_min()
    q.remove_min()
    q.insert(1)  # must go to the source slot, the smallest free position
    assert q.get_min() == (0, 1)
    assert q.occupied == 3


def test_occupied_plus_free_slots_is_capacity():
    rng = random.Random(3)
    q = fresh_queue("hypercube:3")
    live = 0
    for _ in range(200):
        if live < q.capacity and (live == 0 or rng.random() < 0.55):
            q.insert(rng.randint(0, 99))
            live += 1
        else:
            q.remove_min()
            live -= 1
        assert q.occupied == live
        assert q.dag.labels.count(INF) == q.capacity - live


def test_non_graded_dag_keeps_bookkeeping_exact():
    # Edge (2, 1) stays inside one BFS layer: inserting at vertex 1 displaces
    # the INF at vertex 2, so the free-slot set must follow the sift.
    g = LabeledDag.from_edges(3, [(0, 1), (0, 2), (2, 1)])
    q = OrderedDagQueue(g, order=bfs_order(g))
    q.insert(10)
    q.insert(5)  # goes to vertex 1; its INF-labeled neighbour 2 gets dragged in
    assert q.occupied == 2
    assert q.dag.labels == [5, INF, 10]
    q.insert(7)
    assert q.occupied == 3
    assert [q.remove_min() for _ in range(3)] == [5, 7, 10]


def test_insert_that_pulls_inf_down_keeps_its_slot_first(monkeypatch):
    # vertex 1's previous neighbours are 0 and the INF at 2, so inserting at 1
    # swaps that INF into 1, which stays the first free slot
    g = LabeledDag.from_edges(3, [(0, 1), (0, 2), (2, 1)])
    q = OrderedDagQueue(g, order=bfs_order(g))
    starts = []

    def recording(dag, v, new_label, counter=None):
        starts.append(v)
        return lower_label(dag, v, new_label, counter)

    monkeypatch.setattr("dagsort.pqueue.lower_label", recording)
    q.insert(10)
    assert q.insert(5) == 0
    assert q.dag.labels == [5, INF, 10]
    assert q.insert(7) == 2
    assert starts == [0, 1, 1]
    assert q.dag.labels == [5, 10, 7]


def test_insert_takes_a_slot_freed_below_the_last_insert():
    # remove_min frees vertex 2 while vertex 4 is still free: the next insert
    # must take 2, the earlier of the two in the insertion order
    q = fresh_queue("star:5")
    for x in (1, 5, 3, 4):
        q.insert(x)
    assert q.remove_min() == 1
    assert q.dag.labels == [3, 5, INF, 4, INF]
    assert q.insert(9) == 2
    assert q.dag.labels == [3, 5, 9, 4, INF]


def test_targeted_calls_refuse_out_of_range_vertices():
    q = fresh_queue("star:4")
    q.insert(3)
    q.insert(5)
    before = list(q.dag.labels), len(q), q.counter.count
    for v in (4, -1):
        for method in (q.lower_label_at, q.raise_label_at):
            with pytest.raises(IndexError) as exc:
                method(v, 1)
            assert str(exc.value) == f"vertex {v} out of range"
            assert (q.dag.labels, len(q), q.counter.count) == before


def test_heap_order_soundness_under_random_ops():
    rng = random.Random(99)
    for spec in FAMILIES:
        q = fresh_queue(spec)
        live = []
        for _ in range(300):
            op = rng.random()
            if op < 0.5 and len(live) < q.capacity:
                x = rng.randint(-99, 99)
                q.insert(x)
                live.append(x)
            elif op < 0.75 and live:
                live.remove(q.remove_min())
            elif live:
                target = rng.choice(live)
                v = q.dag.labels.index(target)
                if op < 0.9:
                    new = target - rng.randint(1, 9)
                    q.lower_label_at(v, new)
                else:
                    new = target + rng.randint(1, 9)
                    q.raise_label_at(v, new)
                live.remove(target)
                live.append(new)
            assert q.dag.is_ordered()
            if live:
                assert q.get_min()[1] == min(live)
            assert finite_multiset(q.dag) == Counter(live)


def test_interface_algebra_against_multiset_oracle():
    # many short randomized sequences across all four families, all five ops
    rng = random.Random(0xBADA55)
    specs = [parse_topology(s) for s in ("star:6", "path:5", "grid:2:3", "hypercube:4")]
    for round_no in range(10_000):
        t = specs[round_no % len(specs)]
        g = build(t)
        q = OrderedDagQueue(g, order=order_for(g))
        oracle: list[int] = []
        for _ in range(12):
            op = rng.random()
            if op < 0.40 and len(oracle) < q.capacity:
                x = rng.randint(0, 30)
                q.insert(x)
                oracle.append(x)
            elif op < 0.60 and oracle:
                assert q.remove_min() == min(oracle)
                oracle.remove(min(oracle))
            elif op < 0.80:
                # targeted lowering; an INF slot makes it a targeted insert
                v = rng.randrange(g.n)
                old = g.labels[v]
                new = rng.randint(-20, 20) if old == INF else old - rng.randint(1, 10)
                q.lower_label_at(v, new)
                if old != INF:
                    oracle.remove(old)
                oracle.append(new)
            elif oracle:
                finite = [v for v in range(g.n) if g.labels[v] != INF]
                v = rng.choice(finite)
                old = g.labels[v]
                new = old + rng.randint(1, 10)
                q.raise_label_at(v, new)
                oracle.remove(old)
                oracle.append(new)
            if oracle:
                assert q.get_min()[1] == min(oracle)
        assert q.dag.is_ordered()
        assert finite_multiset(q.dag) == Counter(oracle)


@settings(max_examples=300)
@given(
    st.one_of(
        st.builds(
            random_single_source_dag,
            st.integers(0, 2**32 - 1).map(random.Random),
            st.integers(1, 12),
            st.integers(0, 40),
        ),
        single_source_dags(max_n=12, shapes=("tree", "chain")),
    ),
    st.lists(
        st.tuples(st.sampled_from("IIILGRU"), st.integers(-30, 30), st.integers(0, 99)),
        max_size=40,
    ),
)
def test_queue_fuzz_on_non_graded_dags(g, ops):
    """All five operations on random DAGs whose BFS order need not be
    topological, so inserts can pull INF labels down into earlier slots, and
    on trees and chains, whose sifts follow single edges: there lowering a
    free vertex pulls INF down from a free parent, and ``remove_min`` raises
    INF along the chain."""
    n = g.n
    q = OrderedDagQueue(g, order=bfs_order(g))
    position = {v: i for i, v in enumerate(bfs_order(g))}
    oracle = Counter()
    for kind, x, pick in ops:
        labels = q.dag.labels
        free = [v for v in range(n) if labels[v] == INF]
        finite = [v for v in range(n) if labels[v] != INF]
        if kind == "I" and not free:
            with pytest.raises(FullQueueError):
                q.insert(x)
        elif kind == "I":
            # the insert must equal lowering the first free slot of the order
            twin = q.dag.copy()
            expected = lower_label(twin, min(free, key=position.__getitem__), x)
            assert q.insert(x) == expected.terminal_vertex
            assert labels == twin.labels
            oracle[x] += 1
        elif kind == "L":
            v = pick % n
            old = labels[v]
            new = x if old == INF else old - 1 - pick % 7
            q.lower_label_at(v, new)
            oracle[new] += 1
            if old != INF:
                oracle[old] -= 1
        elif kind in "GU" and not finite:
            with pytest.raises(EmptyQueueError):
                q.get_min() if kind == "G" else q.remove_min()
        elif kind == "G":
            assert q.get_min() == (g.source, min(oracle.elements()))
        elif kind == "R" and finite:
            v = finite[pick % len(finite)]
            old = labels[v]
            new = old + 1 + pick % 7
            q.raise_label_at(v, new)
            oracle[old] -= 1
            oracle[new] += 1
        elif kind == "U":
            smallest = min(oracle.elements())
            assert q.remove_min() == smallest
            oracle[smallest] -= 1
        oracle = +oracle
        assert q.dag.is_ordered()
        assert finite_multiset(q.dag) == oracle
        assert len(q) == oracle.total()


def test_free_slot_map_hands_out_the_first_free_slot_under_churn():
    """On a non-graded DAG an insert can pull an INF down and leave its slot
    free, and lowering a free slot in place fills it behind the byte map's
    back. Through 20 000 calls, with targeted inserts at free vertices, and
    the fill that follows, the queue settles every value on the same vertex
    as a reference that scans the labels for the first free slot, pops the
    same minima and counts the same comparisons. Through 180 000 - n more
    calls, every free slot keeps its byte set at or above ``_lowest``."""
    rng = random.Random(512)
    n = 512
    g = random_single_source_dag(rng, n)
    q, ref = OrderedDagQueue(g, order=bfs_order(g)), ScanQueue(g.copy())
    labels_in_order = itemgetter(*q._order)
    flip = bytes.maketrans(b"\0\1", b"\1\0")  # 1 where a byte says filled

    def churn(queues, calls):
        for _ in range(calls):
            if len(q) < n // 4 or (len(q) < 3 * n // 4 and rng.random() < 0.5):
                x = rng.randrange(1 << 20)
                if rng.random() < 0.1:  # a targeted insert at the lowest free id
                    v = q.dag.labels.index(INF)
                    for queue in queues:
                        queue.lower_label_at(v, x)
                else:
                    assert len({queue.insert(x) for queue in queues}) == 1
            else:
                assert len({queue.remove_min() for queue in queues}) == 1
            if ref in queues:
                assert ref.dag.labels == q.dag.labels
                assert (len(ref), ref.counter.count) == (len(q), q.counter.count)
            else:
                in_order = labels_in_order(q.dag.labels)
                assert INF not in in_order[: q._lowest]
                # no free slot behind a byte that says filled
                assert INF not in compress(in_order, q._free.translate(flip))

    churn([q, ref], 20_000)
    for x in range(n - len(q)):
        assert q.insert(x) == ref.insert(x)
    assert q.dag.labels == ref.dag.labels
    assert q.counter.count == ref.counter.count
    churn([q], 180_000 - n)
