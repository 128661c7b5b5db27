"""Sorting through the queue: correctness, counts, size rules."""

import random

import pytest

from dagsort import (
    Hypercube,
    Path,
    SizeMismatchError,
    Star,
    YoungGrid,
    build,
    dag_sort,
    general_bound,
    hypercube_sort,
    hypercube_worst_case_closed,
    hypercube_worst_case_sum,
    order_for,
    stats,
    worst_case_input,
)


def run(t, values):
    g = build(t)
    return dag_sort(g, values, order=order_for(t, g))


def test_star_selection_sort():
    report = run(Star(5), [4, 2, 5, 1, 3])
    assert report.output == [1, 2, 3, 4, 5]
    assert report.total_comparisons == report.insert_comparisons + report.remove_comparisons


def test_path_reverse_insert_count():
    report = run(Path(5), [5, 4, 3, 2, 1])
    assert report.output == [1, 2, 3, 4, 5]
    assert report.insert_comparisons == 10  # 0+1+2+3+4, full walks to the source


def test_equal_input_costs_only_failed_tests():
    for t in (Star(6), Path(6), YoungGrid(2, 3), Hypercube(3)):
        g = build(t)
        report = dag_sort(g, [7] * g.n, order=order_for(t, g))
        assert report.output == [7] * g.n
        # every insert scans its target's previous neighbours and stops
        assert report.insert_comparisons == sum(map(len, g.next_adj))


def test_size_mismatch():
    with pytest.raises(SizeMismatchError):
        run(Path(4), [1, 2, 3, 4, 5])
    with pytest.raises(SizeMismatchError):
        run(Hypercube(2), [1])


def test_dag_sort_leaves_graph_reusable():
    t = YoungGrid(2, 2)
    g = build(t)
    first = dag_sort(g, [4, 3, 2, 1])
    second = dag_sort(g, [4, 3, 2, 1])
    assert first == second


def test_hypercube_sort_picks_appropriate_dims():
    assert hypercube_sort([]).output == []
    for n in range(10):
        k = next(k for k in range(5) if 2**k >= max(n, 1))
        assert Hypercube.fitting(n) == Hypercube(k), n


def test_hypercube_sort_pads_with_infinity():
    values = [5, -2, 9, 9, 0]
    report = hypercube_sort(values)
    assert report.output == sorted(values)


def test_worst_case_input():
    assert worst_case_input(Hypercube(2)) == [4, 3, 2, 1]
    assert worst_case_input(Star(3)) == [3, 2, 1]


def test_hypercube_worst_case_counts_small():
    for dims in range(0, 9):
        n = 1 << dims
        report = hypercube_sort(worst_case_input(Hypercube(dims)))
        assert report.output == list(range(1, n + 1))
        assert (
            report.insert_comparisons
            == hypercube_worst_case_closed(dims)
            == hypercube_worst_case_sum(dims)
        )


def test_random_arrays_match_reference_sort():
    rng = random.Random(2024)
    makers = [
        lambda n: Star(n),
        lambda n: Path(n),
        lambda n: YoungGrid(2, max(1, round(n ** 0.5))),
        lambda n: Hypercube(max(0, (n - 1).bit_length())),
    ]
    for _ in range(120):
        t = rng.choice(makers)(rng.randint(1, 40))
        n = t.capacity
        values = [rng.randint(-30, 30) for _ in range(n)]
        assert run(t, values).output == sorted(values)
    for _ in range(60):
        values = [rng.randint(-30, 30) for _ in range(rng.randint(0, 70))]
        assert hypercube_sort(values).output == sorted(values)


def test_totals_respect_general_bound():
    rng = random.Random(5)
    for spec_t in (Star(32), Path(32), YoungGrid(2, 6), YoungGrid(3, 3), Hypercube(5)):
        g = build(spec_t)
        bound = general_bound(stats(g))
        for _ in range(6):
            values = [rng.randint(0, 99) for _ in range(g.n)]
            report = dag_sort(g, values, order=order_for(spec_t, g))
            assert report.total_comparisons <= bound
