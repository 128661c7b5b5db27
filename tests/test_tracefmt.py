"""DOT snapshot rendering: the incremental renderer against a full re-render."""

from hypothesis import given
from hypothesis import strategies as st

from dagsort import INF, lower_label, raise_label
from dagsort.demo import demo_dag
from dagsort.tracefmt import dot_snapshots

from support import oracle_dot_snapshots, ordered_dags


def render_both(g, v, new, lowering):
    labels_before = list(g.labels)
    trace = (lower_label if lowering else raise_label)(g, v, new)
    return (
        trace,
        dot_snapshots(g, labels_before, new, trace),
        oracle_dot_snapshots(g, labels_before, v, new, trace),
    )


@given(ordered_dags(infinity_tail=True), st.data())
def test_dot_snapshots_match_full_render(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    old = g.labels[v]
    lowering = old == INF or data.draw(st.booleans())
    if lowering:
        new = data.draw(st.integers(-200, 200)) if old == INF else old - data.draw(
            st.integers(1, 20)
        )
    else:
        new = data.draw(st.one_of(st.just(INF), st.integers(old + 1, old + 20)))
    trace, snapshots, expected = render_both(g, v, new, lowering)
    assert len(snapshots) == len(trace) + 1
    assert snapshots == expected


def test_empty_sift_is_one_snapshot_without_black():
    g = demo_dag()
    trace, snapshots, expected = render_both(g, 0, 0, True)  # the source
    assert len(trace) == 0
    assert snapshots == expected and len(snapshots) == 1
    assert "fillcolor=gray" in snapshots[0]
    assert "fillcolor=black" not in snapshots[0]
