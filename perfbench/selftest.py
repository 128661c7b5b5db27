"""Check the benchmark's own checks, on tiny inputs, in a few seconds.

    python3 perfbench/selftest.py

For every workload: a clean run on two seeds passes with 0 failed
operations, both untraced and traced (the traced run also requires the
wrapper tallies to equal the counts made apart from the program); and a
run whose first pass has one output corrupted reports that operation as
failed and the run as not correct.
"""

from __future__ import annotations

import dataclasses
import sys

import run


def _swap_sorted_values(outputs):
    code, out, err = outputs[0]
    tokens = out.split()
    i = next(i for i in range(len(tokens) - 1) if tokens[i] != tokens[i + 1])
    tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return [(code, " ".join(tokens) + "\n", err), *outputs[1:]]


def _bump_insert_cmp(call: int):
    def corrupt(outputs):
        code, out, err = outputs[call]
        head, _, rest = err.partition("insert_cmp=")
        count, _, tail = rest.partition(" ")
        bumped = (code, out, f"{head}insert_cmp={int(count) + 1} {tail}")
        return [*outputs[:call], bumped, *outputs[call + 1 :]]

    return corrupt


def _bump_removed(outputs):
    removed = (outputs.removed[0] + 1, *outputs.removed[1:])
    return dataclasses.replace(outputs, removed=removed)


def _unordered_final_dot(outputs):
    # Swap the labels of the source and its first successor in the final
    # snapshot: the edge now points from the larger label to the smaller.
    code, out, err = outputs[0]
    head, sep, last = out.rpartition("digraph ")
    lines = last.split("\n")
    label = lambda line: line.split('"')[1]  # noqa: E731
    a, b = lines[1], lines[2]
    lines[1] = a.replace(f'"{label(a)}"', f'"{label(b)}"')
    lines[2] = b.replace(f'"{label(b)}"', f'"{label(a)}"')
    return [(code, head + sep + "\n".join(lines), err), *outputs[1:]]


def _exit_code(outputs):
    return [(1, *outputs[0][1:]), *outputs[1:]]


CORRUPTIONS = {
    "path-insertion": [_swap_sorted_values, _bump_insert_cmp(0)],
    "hypercube-subset": [_swap_sorted_values, _bump_insert_cmp(1)],
    "queue-churn": [_bump_removed],
    "trace-render": [_unordered_final_dot, _exit_code],
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name, corruptions in CORRUPTIONS.items():
        for seed in (1, 2):
            for trace in (False, True):
                result = run.run_workload(name, seed, 0, trace, tiny=True)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{name} seed {seed} trace {trace}: {result}")
        for corrupt in corruptions:
            result = run.run_workload(name, 1, 0, False, tiny=True, corrupt=corrupt)
            if result["failed"] != 1:
                problems.append(f"{name} {corrupt.__name__}: failed={result['failed']}")
            if corrupt is not _exit_code and result["correct"]:
                problems.append(f"{name} {corrupt.__name__}: still reported correct")
        print(f"{name}: ok" if not any(p.startswith(name) for p in problems) else
              f"{name}: FAILED")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
