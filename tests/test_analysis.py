"""Structural stats, the general bound, exact hypercube counts, entropy floor."""

import math
import random

import pytest
from hypothesis import given

from dagsort import (
    DagStats,
    Hypercube,
    MultipleSourcesError,
    Path,
    Star,
    YoungGrid,
    build,
    entropy_bound_holds,
    general_bound,
    hypercube_worst_case_closed,
    stats,
)
from dagsort.analysis import log2_factorial
from dagsort.demo import demo_dag
from dagsort.random_dags import random_single_source_dag

from support import dfs_longest_path_from_source, hypercube_worst_case_sum, single_source_dags


def test_stats_examples():
    assert stats(build(Hypercube(3))) == DagStats(8, 3, 3, 3)
    assert stats(build(Star(6))) == DagStats(6, 1, 1, 5)
    assert stats(build(Path(5))) == DagStats(5, 4, 1, 1)
    assert stats(build(YoungGrid(2, 3))) == DagStats(9, 4, 2, 2)
    assert stats(build(Hypercube(0))) == DagStats(1, 0, 0, 0)
    assert stats(build(Star(8))) == DagStats(8, 1, 1, 7)
    # the maxima come from the adjacency, not from the tree's lone_prev array
    tree = random_single_source_dag(random.Random(1), 30, extra_edges=0)
    assert stats(tree) == DagStats(30, dfs_longest_path_from_source(tree), 1, 9)


def test_stats_rejects_multi_source():
    with pytest.raises(MultipleSourcesError):
        stats(demo_dag())


@given(single_source_dags(max_n=10))
def test_stats_longest_path_matches_exhaustive_dfs(g):
    assert stats(g).longest_path == dfs_longest_path_from_source(g)


def test_topology_stats_matches_built_graphs():
    members = [Star(1), Star(2), Star(9), Path(1), Path(2), Path(7)]
    members += [YoungGrid(0, 4), YoungGrid(1, 5), YoungGrid(2, 1), YoungGrid(2, 4), YoungGrid(3, 3)]
    members += [Hypercube(0), Hypercube(1), Hypercube(4), Hypercube(7)]
    for t in members:
        assert t.stats() == stats(build(t)), t


def test_general_bound_examples():
    assert general_bound(stats(build(Hypercube(3)))) == 8 * 3 * 6
    # 8 vertices = hub plus 7 leaves, so degree sum is 1 + 7
    assert general_bound(stats(build(Star(8)))) == 8 * 1 * (1 + 7)
    assert general_bound(stats(build(Path(1)))) == 0


def test_worst_case_forms_agree_and_freeze():
    values = [hypercube_worst_case_closed(k) for k in range(6)]
    assert values == [0, 1, 5, 18, 56, 160]
    for k in range(0, 31):
        assert hypercube_worst_case_closed(k) == hypercube_worst_case_sum(k)


def test_log2_factorial_matches_lgamma():
    for n in (0, 1, 2, 5, 100, 1000, 4096):
        via_lgamma = math.lgamma(n + 1) / math.log(2)
        assert math.isclose(log2_factorial(n), via_lgamma, rel_tol=0, abs_tol=1e-6)


def test_entropy_bound_examples():
    check = entropy_bound_holds(stats(build(Path(2))))
    assert check.lhs == 0.5 and check.rhs == 2.0 and check.ok
    check = entropy_bound_holds(stats(build(Hypercube(10))))
    # cross-check against exact big-int factorial
    assert check.lhs == pytest.approx(math.log2(math.factorial(1024)) / 1024, abs=1e-9)
    assert round(check.lhs, 2) == 8.56
    assert check.rhs == 10 * 20 and check.ok
    with pytest.raises(ValueError):
        entropy_bound_holds(stats(build(Path(1))))


def test_entropy_bound_on_random_dags():
    rng = random.Random(17)
    for _ in range(150):
        g = random_single_source_dag(rng, rng.randint(2, 80))
        assert entropy_bound_holds(stats(g)).ok
