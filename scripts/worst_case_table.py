"""Print the exact hypercube worst-case comparison table.

For each k the closed form, the binomial sum, and an instrumented run on
the strictly decreasing input must agree; a disagreement flags the row.
"""

import argparse
import time

from dagsort import (
    Hypercube,
    build,
    dag_sort,
    hypercube_worst_case_closed,
    hypercube_worst_case_sum,
    worst_case_input,
)
from dagsort.topologies import hypercube_order


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dims", type=int, default=14)
    args = parser.parse_args()

    header = f"{'k':>3} {'n':>7} {'closed':>12} {'sum':>12} {'measured':>12} {'remove':>12} {'seconds':>8}"
    print(header)
    for k in range(1, args.max_dims + 1):
        t = Hypercube(k)
        n = 1 << k
        start = time.perf_counter()
        rep = dag_sort(build(t), worst_case_input(t), order=hypercube_order(k))
        elapsed = time.perf_counter() - start
        closed = hypercube_worst_case_closed(k)
        summed = hypercube_worst_case_sum(k)
        flag = "" if closed == summed == rep.insert_comparisons else "  MISMATCH"
        print(
            f"{k:>3} {n:>7} {closed:>12} {summed:>12} "
            f"{rep.insert_comparisons:>12} {rep.remove_comparisons:>12} {elapsed:>8.3f}{flag}"
        )


if __name__ == "__main__":
    main()
