"""Topology builders and vertex orders."""

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagsort import (
    Hypercube,
    LabeledDag,
    Path,
    Star,
    YoungGrid,
    build,
    order_for,
    parse_topology,
)

from support import bfs_order

BUILD_SPECS = [
    "star:1",
    "path:1",
    "grid:0:3",
    "grid:2:1",
    "hypercube:0",
    "star:2",
    "star:17",
    "path:2",
    "path:33",
    "grid:1:5",
    "grid:3:4",
    "grid:2:9",
    "grid:4:3",
    "hypercube:1",
    "hypercube:6",
    "hypercube:10",
]


def test_star_shape():
    g = build(Star(5))
    assert g.n == 5 and g.source == 0
    assert g.next_adj[0] == [1, 2, 3, 4]
    assert all(g.prev_adj[v] == [0] and g.next_adj[v] == [] for v in range(1, 5))


def test_path_shape():
    g = build(Path(4))
    assert g.next_adj == [[1], [2], [3], []]


@pytest.mark.parametrize("spec", BUILD_SPECS)
def test_build_equals_validated_build(spec):
    """The direct builders give exactly what the validating constructor
    makes of the same edges."""
    t = parse_topology(spec)
    g = build(t)
    edges = [(u, v) for u, nxt in enumerate(g.next_adj) for v in nxt]
    assert g == LabeledDag.from_edges(t.capacity, edges)


@pytest.mark.parametrize("spec", BUILD_SPECS)
def test_build_shares_one_int_per_vertex(spec):
    """Adjacency entries naming the same vertex, in successor and
    predecessor lists alike, are one int object, so a build costs no int
    object per adjacency entry."""
    g = build(parse_topology(spec))
    assert len({id(w) for lst in g.next_adj + g.prev_adj for w in lst}) <= g.n


def test_build_does_not_revalidate(monkeypatch):
    def refuse(cls, n, edges):
        raise AssertionError("family builds must not go through from_edges")

    monkeypatch.setattr(LabeledDag, "from_edges", classmethod(refuse))
    for spec in ("star:5", "path:5", "grid:2:3", "hypercube:4"):
        assert build(parse_topology(spec)).n > 1


def test_single_vertex_members():
    for t in (Star(1), Path(1), YoungGrid(0, 3), YoungGrid(2, 1), Hypercube(0)):
        g = build(t)
        assert g.n == 1 and not any(g.next_adj) and t.capacity == 1


def test_grid_shape():
    g = build(YoungGrid(2, 3))
    assert g.n == 9 and sum(map(len, g.next_adj)) == 12
    # row-major: vertex 4 is (1, 1); steps go right (+1) and down (+3)
    assert g.next_adj[4] == [5, 7]
    assert g.prev_adj[4] == [1, 3]
    assert g.next_adj[8] == []
    assert g.source == 0


def test_grid_edge_count_formula():
    for dims in (1, 2, 3):
        for side in (1, 2, 3, 4):
            g = build(YoungGrid(dims, side))
            assert sum(map(len, g.next_adj)) == dims * side ** (dims - 1) * (side - 1)


def test_hypercube_shape():
    g = build(Hypercube(3))
    assert g.n == 8 and sum(map(len, g.next_adj)) == 12
    expected = {
        (0, 1), (0, 2), (0, 4),
        (1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6),
        (3, 7), (5, 7), (6, 7),
    }
    assert {(u, v) for u, nxt in enumerate(g.next_adj) for v in nxt} == expected


def test_hypercube_degrees_match_cardinality():
    for dims in range(0, 8):
        g = build(Hypercube(dims))
        for v in range(g.n):
            m = v.bit_count()
            assert len(g.prev_adj[v]) == m
            assert len(g.next_adj[v]) == dims - m


def test_parse_and_format_round_trip():
    for spec in ("star:5", "path:9", "grid:2:3", "hypercube:4"):
        assert str(parse_topology(spec)) == spec


@pytest.mark.parametrize(
    "spec", ["star:0", "path:-1", "grid:2", "grid:x:3", "hypercube", "ring:5", "star:a"]
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_topology(spec)


PARSE_FAULTS = [
    ("star:0", ValueError, "star:0: need n >= 1"),
    ("path:-1", ValueError, "path:-1: need n >= 1"),
    ("grid:2", ValueError, "unrecognized topology spec 'grid:2'"),
    ("grid:x:3", ValueError, "unrecognized topology spec 'grid:x:3'"),
    ("grid:-1:3", ValueError, "grid:-1:3: need dims >= 0 and side >= 1"),
    ("grid:2:0", ValueError, "grid:2:0: need dims >= 0 and side >= 1"),
    ("hypercube", ValueError, "unrecognized topology spec 'hypercube'"),
    ("hypercube:-1", ValueError, "hypercube:-1: need dims >= 0"),
    ("ring:5", ValueError, "unrecognized topology spec 'ring:5'"),
    ("star:a", ValueError, "unrecognized topology spec 'star:a'"),
    ("star:1:2", ValueError, "unrecognized topology spec 'star:1:2'"),
    ("", ValueError, "unrecognized topology spec ''"),
    ("hypercube:40", OverflowError, "hypercube:40 exceeds 16777216 vertices"),
    ("grid:8:10", OverflowError, "grid:8:10 exceeds 16777216 vertices"),
    ("grid:25:2", OverflowError, "grid:25:2 exceeds 16777216 vertices"),
    ("hypercube:25", OverflowError, "hypercube:25 exceeds 16777216 vertices"),
    ("grid:10000000:2", OverflowError, "grid:10000000:2 exceeds 16777216 vertices"),
    ("hypercube:10000000", OverflowError, "hypercube:10000000 exceeds 16777216 vertices"),
]
# members under the vertex cap whose n + m passes the shared entry budget
PARSE_FAULTS += [
    (spec, OverflowError, f"{spec}: {n} vertices plus {m} edges exceed 4194304")
    for spec, n, m in (
        ("hypercube:19", 524288, 4980736),
        ("path:2097153", 2097153, 2097152),
        ("star:16777216", 16777216, 16777215),
        ("grid:2:1183", 1399489, 2796612),
    )
]


@pytest.mark.parametrize("spec, error, message", PARSE_FAULTS)
def test_parse_fault_type_and_message(spec, error, message):
    with pytest.raises(error) as info:
        parse_topology(spec)
    assert type(info.value) is error
    assert str(info.value) == message


def test_members_check_their_parameters_when_made():
    with pytest.raises(ValueError, match=r"^star:0: need n >= 1$"):
        Star(0)
    with pytest.raises(ValueError, match=r"^grid:2:0: need dims >= 0 and side >= 1$"):
        YoungGrid(2, 0)
    with pytest.raises(OverflowError, match=r"^grid:8:10 exceeds 16777216 vertices$"):
        YoungGrid(8, 10)


def test_build_refuses_huge_members():
    with pytest.raises(OverflowError):
        parse_topology("hypercube:40")
    with pytest.raises(OverflowError):
        build(YoungGrid(8, 10))


def peak_bytes(call) -> int:
    """Peak traced allocation while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_vertex_grid_builds_in_constant_memory():
    """``grid:K:1`` is one vertex for every K, so its build must not cost
    anything of size K."""
    t = parse_topology("grid:200000:1")
    assert peak_bytes(lambda: build(t)) < 64 * 1024
    g = build(t)
    assert g.n == 1 and not any(g.next_adj) and t.stats().n == 1


def test_cap_refused_before_the_capacity_is_computed():
    """A dims past the cap is refused without first making a dims-bit int."""

    def refuse(spec):
        with pytest.raises(OverflowError, match=f"^{spec} exceeds 16777216 vertices$"):
            parse_topology(spec)

    for spec in ("grid:10000000:2", "hypercube:10000000"):
        assert peak_bytes(lambda: refuse(spec)) < 64 * 1024
    # at the vertex cap, the edges put both past the n + m budget
    for spec in ("grid:24:2", "hypercube:24"):
        message = f"{spec}: 16777216 vertices plus 201326592 edges exceed 4194304"
        with pytest.raises(OverflowError) as info:
            parse_topology(spec)
        assert str(info.value) == message


def test_entry_budget_boundary():
    """The largest members under the n + m budget are still accepted."""
    for spec, n in (
        ("hypercube:18", 1 << 18),
        ("path:2097152", 2097152),
        ("grid:2:1182", 1182**2),
    ):
        assert parse_topology(spec).capacity == n


@pytest.mark.parametrize(
    "spec",
    ["star:1", "star:7", "path:1", "path:9", "grid:0:4", "grid:1:5", "grid:3:4",
     "grid:4:1", "hypercube:0", "hypercube:1", "hypercube:7"],
)
def test_closed_form_edge_count_matches_the_build(spec):
    t = parse_topology(spec)
    assert t._edges() == sum(map(len, build(t).next_adj))


def test_bfs_order_small_families():
    assert bfs_order(build(Path(4))) == [0, 1, 2, 3]
    assert bfs_order(build(Star(4))) == [0, 1, 2, 3]
    assert bfs_order(build(Hypercube(2))) == [0, 1, 2, 3]
    assert bfs_order(build(YoungGrid(2, 2))) == [0, 1, 2, 3]


@given(st.builds(lambda s: s, st.sampled_from(["star:6", "path:6", "grid:2:3", "grid:3:2", "hypercube:3"])))
def test_bfs_order_layers_are_nondecreasing(spec):
    g = build(parse_topology(spec))
    dist = {g.source: 0}
    order = bfs_order(g)
    assert sorted(order) == list(range(g.n))
    for v in order:
        for u in g.next_adj[v]:
            dist.setdefault(u, dist[v] + 1)
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)


def test_hypercube_order_frozen():
    assert order_for(build(Hypercube(0))) == [0]
    assert order_for(build(Hypercube(2))) == [0, 1, 2, 3]
    assert order_for(build(Hypercube(3))) == [0, 1, 2, 4, 3, 5, 6, 7]


def test_hypercube_order_matches_sort_oracle():
    """On every cube the sort path inserts in popcount order, ascending
    value inside each layer, so its layers have the binomial sizes."""
    for dims in range(15):
        got = order_for(build(Hypercube(dims)))
        assert got == sorted(range(1 << dims), key=lambda v: (bin(v).count("1"), v))
        sizes = [0] * (dims + 1)
        for v in got:
            sizes[v.bit_count()] += 1
        assert sizes == [math.comb(dims, m) for m in range(dims + 1)]


def test_order_for_is_bfs_order_on_the_golden_families():
    """The sweep's families insert in BFS order, as they did before the
    order became topological, so their counts cannot drift silently. A
    3-D grid is where the two orders part."""
    sizes = [*range(1, 65), 256, 1024]
    topologies = [Star(n) for n in sizes] + [Path(n) for n in sizes]
    topologies += [YoungGrid(2, s) for s in range(1, 65)]
    for t in topologies:
        g = build(t)
        assert order_for(g) == bfs_order(g), t
    g = build(YoungGrid(3, 3))
    assert order_for(g) != bfs_order(g)
