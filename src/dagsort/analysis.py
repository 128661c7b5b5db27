"""Structural statistics and the comparison-count bounds they imply.

The general bound is n * L * (d_in + d_out): n queue operations, each
sifting along at most L edges, each step scanning at most d_in (lowering)
or d_out (raising) neighbours. The hypercube insert phase additionally has
an exact worst case, computed here in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dag import LabeledDag, topological_order
from .errors import MultipleSourcesError


@dataclass(frozen=True)
class DagStats:
    n: int
    longest_path: int
    max_in_degree: int
    max_out_degree: int


def stats(g: LabeledDag) -> DagStats:
    """Longest source-to-anywhere path (in edges), by DP over a topological
    order, and g's degree maxima. Single-source DAGs only.
    """
    if sum(1 for p in g.prev_adj if not p) != 1:
        raise MultipleSourcesError("stats requires a single-source DAG")
    dist = [0] * g.n
    for u in topological_order(g):
        du = dist[u]
        for v in g.next_adj[u]:
            if du + 1 > dist[v]:
                dist[v] = du + 1
    return DagStats(
        n=g.n,
        longest_path=max(dist),
        max_in_degree=max(map(len, g.prev_adj)),
        max_out_degree=max(map(len, g.next_adj)),
    )


def general_bound(s: DagStats) -> int:
    """Comparison budget for sorting n values: n * L * (d_in + d_out)."""
    return s.n * s.longest_path * (s.max_in_degree + s.max_out_degree)


def hypercube_worst_case_closed(dims: int) -> int:
    """Insert-phase worst case: a layer holds C(k, i) vertices and filling
    one costs i + (i-1) + ... + 1 comparisons when every insert sifts to the
    source. Summed over the layers: (k*2^k + k*(k-1)*2^(k-2)) / 2."""
    k = dims
    return (k * (1 << k) + k * (k - 1) * (1 << k) // 4) // 2


def log2_factorial(n: int) -> float:
    """log2(n!) by direct summation; exact up to float rounding."""
    return sum(math.log2(i) for i in range(2, n + 1))


class EntropyBoundCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def entropy_bound_holds(s: DagStats) -> EntropyBoundCheck:
    """Information-theoretic floor per element vs. the structural budget:
    (1/n) * log2(n!) <= L * (d_in + d_out). Needs n >= 2."""
    if s.n < 2:
        raise ValueError("entropy bound check needs n >= 2")
    lhs = log2_factorial(s.n) / s.n
    rhs = float(s.longest_path * (s.max_in_degree + s.max_out_degree))
    return EntropyBoundCheck(lhs=lhs, rhs=rhs, ok=lhs <= rhs)
