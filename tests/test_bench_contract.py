"""The benchmark under ``perfbench/`` times dagsort by replacing functions
by name (``cli.build``, ``cli.order_for``, ``cli.dag_sort``,
``cli.parse_dag_text``, ``cli.dot_snapshots``, ``LabeledDag.from_edges``,
the sift kernels ``pqueue.lower_label`` and ``pqueue.raise_label``, the
queue's ``lower_label_at`` and ``raise_label_at``, ...). This runs each of
its four traced workloads on tiny inputs and checks that each named layer
was still reached, so a rename, a changed signature or a bypass shows up
here and not first as a zero in a benchmark table.

The workloads run in a child process: ``perfbench/run.py`` drops and
re-imports the ``dagsort`` package, which would leave this test session
with two copies of every exception class.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
print(json.dumps(run.run_workload(sys.argv[3], 1, 0, True, tiny=True)))
"""

# layers each workload must reach, by the benchmark's metric names
LAYERS = {
    "hypercube-subset": (
        "topologies.build_s",
        "topologies.order_s",
        "sorting.dag_sort_self_s",
        "pqueue.init_s",
    ),
    "path-insertion": (
        "reorder.lower_s",
        "reorder.raise_s",
        "reorder.exchanges",
        "sorting.dag_sort_self_s",
    ),
    "trace-render": ("dag.parse_s", "tracefmt.render_s", "tracefmt.snapshots"),
    "queue-churn": (
        "dag.from_edges_s",
        "reorder.lower_s",
        "reorder.raise_s",
        "pqueue.inf_moves",
        "pqueue.lower_at_self_s",
        "pqueue.raise_at_self_s",
    ),
}


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_workload_reaches_every_patched_layer(workload):
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(REPO / "perfbench"), str(REPO / "src"), workload],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"], child.stderr
    assert result["failed"] == 0
    for layer in LAYERS[workload]:
        assert result["metrics"][layer]["value"] > 0, layer
