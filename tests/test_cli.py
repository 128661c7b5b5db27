"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main so exit codes and stream
separation are asserted exactly; subprocess tests cover the module entry
point wiring and scripts/worst_case_table.py.
"""

import io
import random
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dagsort import Hypercube, cli, demo
from dagsort.analysis import hypercube_worst_case_closed
from dagsort.errors import CycleError, SizeMismatchError

REPO = Path(__file__).resolve().parent.parent
DEMO_FIXTURE = str(REPO / "fixtures" / "demo12.dag")
# stdout of `dagsort trace --input fixtures/demo12.dag --vertex 9 --new-label 3`
GOLDEN_DOT = (REPO / "fixtures" / "demo12_sift.dot").read_text()
# 40 vertices, three roots, 28 of 72 edges falling in id, eight inf labels
DAG40_FIXTURE = str(REPO / "fixtures" / "dag40.dag")
# stdout of `dagsort trace --input fixtures/dag40.dag --vertex 29 --new-label -14`
DAG40_DOT = (REPO / "fixtures" / "dag40_sift.dot").read_text()

GOLDEN_TRACE_TEXT = (
    "swap 9 7 label=10\n"
    "swap 7 8 label=9\n"
    "swap 8 5 label=8\n"
    "swap 5 3 label=6\n"
    "swap 3 2 label=4\n"
    "labels: 1 2 3 4 6 6 8 9 8 10 14 16\n"
)

CSV_HEADER = "topology,n,pattern,seed,insert_cmp,remove_cmp,total_cmp,bound,worst_case_formula"


def run_cli(argv, stdin="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_sort_golden_hypercube2(monkeypatch, capsys):
    rc, out, err = run_cli(
        ["sort", "--topology", "hypercube:2"], "3 1 2 0", monkeypatch, capsys
    )
    assert rc == 0
    # stdout carries only the data line
    assert out == "0 1 2 3\n"
    assert (
        "n=4 topology=hypercube:2 insert_cmp=5 remove_cmp=11 total=16 bound=32"
        in err
    )


def test_sort_bare_hypercube_autosizes(monkeypatch, capsys):
    rc, out, err = run_cli(["sort"], "5 4 3 2 1", monkeypatch, capsys)
    assert rc == 0
    assert out == "1 2 3 4 5\n"
    assert err == (
        "n=5 topology=hypercube:3 insert_cmp=6 remove_cmp=24 total=30 bound=90\n"
    )


def test_sort_empty_input(monkeypatch, capsys):
    rc, out, err = run_cli(["sort"], "", monkeypatch, capsys)
    assert rc == 0
    assert out == ""
    assert err == "n=0 topology=hypercube:0 insert_cmp=0 remove_cmp=0 total=0 bound=0\n"


def test_sort_size_mismatch_exits_3(monkeypatch, capsys):
    """A mismatched value count is refused before the topology is built."""

    def no_build(t):
        raise AssertionError(f"built {t!r} for a mismatched sort")

    monkeypatch.setattr(cli, "build", no_build)
    for spec, n in (("path:4", 4), ("hypercube:18", 1 << 18)):
        rc, out, err = run_cli(
            ["sort", "--topology", spec], "1 2 3 4 5", monkeypatch, capsys
        )
        assert rc == 3, spec
        assert out == ""
        assert err == f"error: 5 values for {n} vertices\n"


def test_sort_garbage_input_exits_2(monkeypatch, capsys):
    rc, out, err = run_cli(["sort"], "12 x 9", monkeypatch, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: invalid literal for int() with base 10: 'x'\n"


def test_sort_bad_topology_exits_2(monkeypatch, capsys):
    for spec, message in (
        ("blob:9", "unrecognized topology spec 'blob:9'"),
        ("grid:2", "unrecognized topology spec 'grid:2'"),
        ("path:0", "path:0: need n >= 1"),
        ("path:99999999999", "path:99999999999 exceeds 16777216 vertices"),
    ):
        rc, out, err = run_cli(["sort", "--topology", spec], "1", monkeypatch, capsys)
        assert (rc, out) == (2, ""), spec
        assert err == f"error: {message}\n"


class EndlessStdin:
    """A stdin that never ends: each read serves as many characters as asked,
    cut from ``unit`` repeated, and counts them."""

    def __init__(self, unit):
        self.unit, self.served = unit, 0

    def read(self, size):
        self.served += size
        return (self.unit * (size // len(self.unit) + 1))[:size]


def test_sort_refuses_endless_input_after_reading_a_bound(monkeypatch, capsys):
    """More values than the topology holds are refused as soon as a read
    brings them, without reading on to an end that may never come; so is a
    value longer than a read."""
    assert cli._LARGEST_CUBE == Hypercube(18).capacity == 1 << 18  # the bare family's limit
    with pytest.raises(OverflowError):
        Hypercube(19)
    cases = (
        (["sort", "--topology", "path:4"], "1\n", 3, "more than 4 values", 1),
        (["sort"], "1 ", 2, "more than 262144 values", 1),
        (["sort"], "1", 2, "a value longer than 1048576 characters", 2),
    )
    for argv, unit, code, message, reads in cases:
        stdin = EndlessStdin(unit)
        monkeypatch.setattr("sys.stdin", stdin)
        assert cli.main(argv) == code, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert stdin.served == reads << 20


@pytest.mark.parametrize("token, count", [("12345 ", 200_000), ("1234567\n", 262_144)])
def test_sort_input_is_read_across_chunk_ends(tmp_path, token, count):
    """A 1 MiB read ends inside a 6-character token, or right after the
    whitespace of an 8-character one, whose input is exactly 2 MiB long."""
    src = tmp_path / "values.txt"
    src.write_text(token * count)
    assert cli._read_values(str(src), count) == ([int(token)] * count, True)
    # ended only when the input did, so a bound reached first is not exact
    assert cli._read_values(str(src), 1000)[1] is False


def test_sort_reads_input_file(tmp_path, capsys):
    src = tmp_path / "values.txt"
    src.write_text("9 8 7\n")
    rc, out, _ = run_cli(["sort", "--input", str(src)], capsys=capsys)
    assert rc == 0
    assert out == "7 8 9\n"


def test_bench_csv_schema(capsys):
    rc, out, err = run_cli(
        [
            "bench",
            "--topology",
            "hypercube:1,hypercube:2,hypercube:3",
            "--pattern",
            "reverse,equal",
            "--seed",
            "5",
        ],
        capsys=capsys,
    )
    assert rc == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert all(len(r) == 9 for r in rows)

    # seeds increment per row, patterns cycle within each topology
    assert [r[3] for r in rows] == [str(5 + i) for i in range(6)]
    assert [r[2] for r in rows] == ["reverse", "equal"] * 3

    # reverse-sorted input drives insertion to its exact worst case
    for dims, row in zip((1, 2, 3), rows[::2]):
        worst = hypercube_worst_case_closed(dims)
        assert int(row[4]) == worst
        assert row[8] == str(worst)

    # equal labels still pay one comparison per edge on the way in
    for dims, row in zip((1, 2, 3), rows[1::2]):
        assert int(row[4]) == dims * (1 << (dims - 1))


def test_bench_bare_family_with_sizes(capsys):
    rc, out, _ = run_cli(
        ["bench", "--topology", "star", "--sizes", "4,8"], capsys=capsys
    )
    assert rc == 0
    lines = out.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["star:4", "star:8"]
    assert [r[1] for r in rows] == ["4", "8"]
    # worst_case_formula column stays empty off the hypercube family
    assert all(r[8] == "" for r in rows)
    # bound column matches n * L * (din + dout) for a star
    assert [int(r[7]) for r in rows] == [4 * 1 * 4, 8 * 1 * 8]


def test_bench_bare_family_without_sizes_exits_2(capsys):
    rc, out, err = run_cli(["bench", "--topology", "star"], capsys=capsys)
    assert (rc, out) == (2, "")
    assert err == "error: bare family 'star' needs --sizes\n"


def test_bench_unknown_pattern_exits_2(capsys):
    rc, out, err = run_cli(
        ["bench", "--topology", "path:4", "--pattern", "zigzag"], capsys=capsys
    )
    assert (rc, out) == (2, "")
    assert err == "error: unknown pattern 'zigzag'\n"


def test_verify_passes(capsys):
    rc, out, _ = run_cli(["verify", "--runs", "20"], capsys=capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert all(line.startswith("PASS ") for line in lines)
    names = {line.split(" ", 1)[1] for line in lines}
    assert names == {
        "ordered-after-sift",
        "multiset-conservation",
        "raise-equivalence",
        "entropy-bound",
        "golden-trace",
    }


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_verify_refuses_runs_below_one(runs, capsys):
    rc, out, err = run_cli(["verify", "--runs", runs], capsys=capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: --runs must be at least 1, got {runs}\n"


def test_verify_draws_trees_and_chains():
    """Each run of the sift suites draws a denser DAG and, beside it, a tree
    or a chain, so the one-neighbour sift loops are checked too and the
    neighbour scans as often as before. A chain's ids are shuffled."""
    rng = random.Random(0)
    drawn = [cli._verify_dags(rng, 12) for _ in range(60)]
    assert all(dense.lone_prev is None for dense, _ in drawn)
    assert all(other.lone_prev is not None for _, other in drawn)
    chains = [other for _, other in drawn if other.lone_next is not None]
    assert 0 < len(chains) < len(drawn)
    assert len({tuple(map(tuple, g.next_adj)) for g in chains}) > 1


def test_verify_failing_suite_exits_1(monkeypatch, capsys):
    """The demo DAG with every label one higher still sifts, but no longer
    to the golden trace's labels."""
    shifted = demo.demo_dag()
    shifted.labels[:] = [label + 1 for label in shifted.labels]
    monkeypatch.setattr(demo, "demo_dag", shifted.copy)
    rc, out, _ = run_cli(["verify", "--runs", "20"], capsys=capsys)
    assert rc == 1
    assert out == (
        "PASS ordered-after-sift\n"
        "PASS multiset-conservation\n"
        "PASS raise-equivalence\n"
        "PASS entropy-bound\n"
        "FAIL golden-trace\n"
    )


def test_verify_checks_the_raise_comparison_count(monkeypatch, capsys):
    """A raise that sifts right but counts one comparison too many fails
    raise-equivalence, and only it: the suite compares each raise's count
    with the reversal's, not just its trace and labels."""
    raise_label = cli.raise_label

    def overcounting(g, v, new_label, counter=None):
        trace = raise_label(g, v, new_label, counter)
        if counter is not None:
            counter.count += 1
        return trace

    monkeypatch.setattr(cli, "raise_label", overcounting)
    rc, out, _ = run_cli(["verify", "--runs", "20"], capsys=capsys)
    assert rc == 1
    assert out == (
        "PASS ordered-after-sift\n"
        "PASS multiset-conservation\n"
        "FAIL raise-equivalence\n"
        "PASS entropy-bound\n"
        "PASS golden-trace\n"
    )


def test_trace_text_golden(capsys):
    rc, out, err = run_cli(
        [
            "trace",
            "--input",
            DEMO_FIXTURE,
            "--vertex",
            "9",
            "--new-label",
            "3",
            "--format",
            "text",
        ],
        capsys=capsys,
    )
    assert rc == 0
    assert err == ""
    assert out == GOLDEN_TRACE_TEXT


def test_trace_dot_snapshots(capsys):
    argv = ["trace", "--input", DEMO_FIXTURE, "--vertex", "9", "--new-label", "3"]
    rc, out, _ = run_cli(argv, capsys=capsys)
    assert rc == 0
    # one snapshot before each exchange plus the final state; the current
    # vertex is gray, its next target black
    assert out == GOLDEN_DOT


def test_trace_dot_golden_on_forty_vertices(capsys):
    """A sift of nine exchanges whose first one displaces an ``inf`` label,
    on a DAG whose edge lines are out of order: pinned byte for byte."""
    argv = ["trace", "--input", DAG40_FIXTURE, "--vertex", "29", "--new-label", "-14"]
    rc, out, err = run_cli(argv, capsys=capsys)
    assert (rc, err) == (0, "")
    assert out == DAG40_DOT
    assert out.count("digraph") == 10
    assert '  18 [label="inf", style=filled, fillcolor=black, fontcolor=white];' in out


def test_trace_out_directory(tmp_path, capsys):
    out_dir = tmp_path / "snaps"
    rc, out, err = run_cli(
        [
            "trace",
            "--input",
            DEMO_FIXTURE,
            "--vertex",
            "9",
            "--new-label",
            "3",
            "--out",
            str(out_dir),
        ],
        capsys=capsys,
    )
    assert rc == 0
    assert out == ""
    assert "wrote 6 snapshots" in err
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"sift_{i:03d}.dot" for i in range(6)]
    assert "".join((out_dir / name).read_text() for name in files) == GOLDEN_DOT


def test_trace_out_directory_holds_only_the_last_sift(tmp_path, capsys):
    """A shorter sift written over a longer one leaves exactly its own
    snapshots; files not named ``sift_<digits>.dot`` are left alone."""
    out_dir = tmp_path / "snaps"
    out_dir.mkdir()
    others = {"notes.txt": "keep", "sift_x.dot": "keep", "sift_001.txt": "keep"}
    for name, text in others.items():
        (out_dir / name).write_text(text)
    argv = ["trace", "--input", DEMO_FIXTURE, "--vertex", "9"]
    rc, _, _ = run_cli([*argv, "--new-label", "3", "--out", str(out_dir)], capsys=capsys)
    assert rc == 0 and (out_dir / "sift_005.dot").exists()
    rc, expected, _ = run_cli([*argv, "--new-label", "9"], capsys=capsys)
    assert rc == 0
    rc, out, err = run_cli([*argv, "--new-label", "9", "--out", str(out_dir)], capsys=capsys)
    assert (rc, out) == (0, "")
    count = expected.count("digraph")
    assert 0 < count < 6 and err == f"wrote {count} snapshots to {out_dir}\n"
    snaps = [f"sift_{i:03d}.dot" for i in range(count)]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*snaps, *others])
    assert "".join((out_dir / name).read_text() for name in snaps) == expected
    for name, text in others.items():
        assert (out_dir / name).read_text() == text


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_output_ignores_edge_line_order(seed, tmp_path, capsys):
    """The DOT edge block and the sift follow the sorted adjacency, not the
    order in which the input lists its edges."""
    header, *edge_lines, label_line = Path(DEMO_FIXTURE).read_text().splitlines()
    random.Random(seed).shuffle(edge_lines)
    shuffled = tmp_path / "shuffled.dag"
    shuffled.write_text("\n".join([header, *edge_lines, label_line]) + "\n")
    argv = ["trace", "--input", str(shuffled), "--vertex", "9", "--new-label", "3"]
    rc, out, err = run_cli(argv, capsys=capsys)
    assert (rc, err) == (0, "")
    assert out == GOLDEN_DOT
    rc, out, err = run_cli([*argv, "--format", "text"], capsys=capsys)
    assert (rc, err) == (0, "")
    assert out == GOLDEN_TRACE_TEXT


def test_trace_not_lowering_exits_4(capsys):
    rc, out, err = run_cli(
        ["trace", "--input", DEMO_FIXTURE, "--vertex", "9", "--new-label", "12"],
        capsys=capsys,
    )
    assert (rc, out) == (4, "")
    assert err == "error: 12 does not lower label 12 at vertex 9\n"


def test_trace_unordered_input_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.dag"
    bad.write_text("2 1\n0 1\nlabels: 5 1\n")
    rc, out, err = run_cli(
        ["trace", "--input", str(bad), "--vertex", "1", "--new-label", "0"],
        capsys=capsys,
    )
    assert (rc, out) == (4, "")
    assert err == "error: DAG is not ordered\n"
    # the vertex range is checked before the ordered property
    rc, out, err = run_cli(
        ["trace", "--input", str(bad), "--vertex", "5", "--new-label", "0"],
        capsys=capsys,
    )
    assert (rc, out) == (2, "")
    assert err == "error: vertex 5 out of range\n"


def test_trace_bad_arguments_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.dag")
    blocker = tmp_path / "file"  # --out names a file, so no directory can be made
    blocker.write_text("")
    cases = [
        (
            ["--input", missing, "--vertex", "0", "--new-label", "0"],
            f"[Errno 2] No such file or directory: '{missing}'",
        ),
        (
            ["--input", DEMO_FIXTURE, "--vertex", "99", "--new-label", "0"],
            "vertex 99 out of range",
        ),
        (
            ["--input", DEMO_FIXTURE, "--vertex", "9", "--new-label", "abc"],
            "bad label 'abc'",
        ),
        (
            ["--input", DEMO_FIXTURE, "--vertex", "9", "--new-label", "3",
             "--out", str(blocker)],
            f"[Errno 17] File exists: '{blocker}'",
        ),
        (  # refused before the input is read, so the missing file goes unnamed
            ["--input", missing, "--vertex", "0", "--new-label", "0",
             "--format", "text", "--out", str(tmp_path / "snaps")],
            "--out needs --format dot",
        ),
    ]
    for argv, message in cases:
        rc, out, err = run_cli(["trace", *argv], capsys=capsys)
        assert (rc, out) == (2, ""), argv
        assert err == f"error: {message}\n", argv
    assert not (tmp_path / "snaps").exists()


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


TRACE_DEMO = ["trace", "--input", DEMO_FIXTURE, "--vertex", "9", "--new-label", "3"]
NOT_A_PERMUTATION = ValueError("order must be a permutation of the vertices")


@pytest.mark.parametrize(
    "argv, name, exc",
    [
        (["bench", "--topology", "path:4"], "order_for", NOT_A_PERMUTATION),
        (["sort", "--topology", "path:4"], "order_for", NOT_A_PERMUTATION),
        (["sort", "--topology", "path:4"], "dag_sort", SizeMismatchError("4 vs 5")),
        (["sort"], "hypercube_sort", OverflowError("a fault")),
        (["verify", "--runs", "2"], "_verify_entropy_bound", OverflowError("a fault")),
        (TRACE_DEMO, "lower_label", ValueError("a fault")),
        (TRACE_DEMO, "dot_snapshots", CycleError("a fault")),
    ],
)
def test_fault_past_admission_propagates(argv, name, exc, monkeypatch, capsys):
    """Once a command has admitted its input, an exception of a refusal
    type from its computation is a fault: it propagates as a traceback
    instead of reading as bad input with exit 2 or 3."""
    monkeypatch.setattr(cli, name, _raise(exc))
    monkeypatch.setattr("sys.stdin", io.StringIO("4 3 2 1"))
    with pytest.raises(type(exc)) as raised:
        cli.main(argv)
    assert raised.value is exc
    assert "error:" not in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [["sort"], ["bench", "--topology", "path:4"], ["verify", "--runs", "2"], TRACE_DEMO],
)
def test_failed_output_write_exits_2(argv, monkeypatch, capsys):
    """A failed write, such as to a closed pipe, is a refusal in either
    step: one error line and exit 2."""
    monkeypatch.setattr("sys.stdin", io.StringIO("4 3 2 1"))
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_trace_oversized_header_exits_2(tmp_path, capsys):
    """The vertex count is checked before anything of that size is allocated."""
    big = tmp_path / "big.dag"
    for n in ("16777217", "20000000000000000000"):
        big.write_text(f"{n} 0\n")
        rc, out, err = run_cli(
            ["trace", "--input", str(big), "--vertex", "0", "--new-label", "0"],
            capsys=capsys,
        )
        assert (rc, out) == (2, ""), n
        assert err == f"error: vertex count {n} exceeds 16777216\n"


def test_bench_topology_over_budget_exits_2(capsys):
    """A family whose closed-form n + m exceeds 2**22 is refused before it
    is built: ``hypercube:19`` would build about 5.5 million entries."""
    for spec, n, m in (
        ("hypercube:19", 524288, 4980736),
        ("path:2097153", 2097153, 2097152),
    ):
        tracemalloc.start()
        try:
            rc, out, err = run_cli(["bench", "--topology", spec], capsys=capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err == f"error: {spec}: {n} vertices plus {m} edges exceed 4194304\n"
        assert peak < 1 << 20, (spec, peak)


def test_bare_hypercube_sort_over_budget_exits_2(monkeypatch, capsys):
    """One value past 2**18 needs ``hypercube:19``, which is over budget."""
    rc, out, err = run_cli(["sort"], "1 " * (262144 + 1), monkeypatch, capsys)
    assert (rc, out) == (2, "")
    assert err == "error: hypercube:19: 524288 vertices plus 4980736 edges exceed 4194304\n"


def test_trace_header_over_budget_exits_2(tmp_path, capsys):
    """A header whose n + m exceeds 2**22 is refused before any list of that
    size is made, so the refusal costs next to nothing."""
    big = tmp_path / "big.dag"
    argv = ["trace", "--input", str(big), "--vertex", "0", "--new-label", "0"]
    for n, m in ((4194305, 0), (16777216, 0), (1, 4194304), (2097152, 2097153)):
        big.write_text(f"{n} {m}\n")
        tracemalloc.start()
        try:
            rc, out, err = run_cli(argv, capsys=capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err == f"error: {n} vertices plus {m} edges exceed 4194304\n"
        # a first call in a fresh process peaks near 0.25 MiB (argparse and
        # import caches); one n-sized list of the refused graph is 32 MiB
        assert peak < 1 << 20, (n, m, peak)


def test_bench_sweep_golden(monkeypatch, capsys):
    """scripts/bench_sweep.py's default sweep, byte for byte: every count and
    bound of the four families must survive any speed change."""
    sweep = runpy.run_path(str(REPO / "scripts" / "bench_sweep.py"))
    monkeypatch.setattr("sys.argv", ["bench_sweep.py"])
    assert sweep["main"]() == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (REPO / "fixtures" / "bench_sweep.csv").read_bytes()


def test_worst_case_table_script():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "worst_case_table.py"), "--max-dims", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["k", "n", "closed", "sum", "measured", "remove", "seconds"]
    assert [int(row.split()[0]) for row in rows] == list(range(1, 9))
    assert "MISMATCH" not in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dagsort.cli", "sort", "--topology", "hypercube:2"],
        input="3 1 2 0",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1 2 3\n"
    assert "total=16 bound=32" in proc.stderr


def test_make_pattern_shapes():
    import random

    rng = random.Random(0)
    assert cli.make_pattern("sorted", 4, rng) == [0, 1, 2, 3]
    assert cli.make_pattern("reverse", 4, rng) == [4, 3, 2, 1]
    assert cli.make_pattern("equal", 3, rng) == [7, 7, 7]
    assert len(cli.make_pattern("random", 9, rng)) == 9
    with pytest.raises(ValueError):
        cli.make_pattern("zigzag", 4, rng)
