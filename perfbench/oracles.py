"""Checks computed apart from dagsort.

Nothing here imports the package. Each oracle works on the benchmark's own
copy of the inputs (values, edge lists, label arrays) and on what the
program printed or returned, so agreement with the program means something.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque

INF = float("inf")


def greater_before(values: list[int]) -> list[int]:
    """s_i = how many of values[:i] are strictly greater than values[i],
    by a Fenwick tree over value ranks."""
    ranks = {v: r + 1 for r, v in enumerate(sorted(set(values)))}
    size = len(ranks)
    tree = [0] * (size + 1)
    out = []
    for i, v in enumerate(values):
        r = ranks[v]
        at_most = 0
        j = r
        while j:
            at_most += tree[j]
            j -= j & -j
        out.append(i - at_most)
        while r <= size:
            tree[r] += 1
            r += r & -r
    return out


def path_counts(values: list[int]) -> tuple[int, int, int]:
    """Insertion sort along a chain: (insert comparisons, remove comparisons,
    exchanges). An insert walks past the s_i larger earlier values and pays
    one more comparison unless it reached the source; a remove-min with k
    labels left walks INF down k - 1 slots and stops on the first INF slot
    (k comparisons), or at the sink when the chain is full (n - 1)."""
    n = len(values)
    s = greater_before(values)
    insert = sum(si + (si < i) for i, si in enumerate(s))
    remove = n * (n - 1) // 2 + n - 1
    return insert, remove, sum(s) + n * (n - 1) // 2


def hypercube_decreasing_insert(k: int) -> int:
    """Insert comparisons of the strictly decreasing input on hypercube:k,
    (k 2^k + k(k-1) 2^(k-2)) / 2: every insert is a new minimum and scans
    all popcount(v) previous neighbours at every level on its way down."""
    return (k * 2**k + k * (k - 1) * 2 ** (k - 2)) // 2


def adjacency(n: int, edges) -> tuple[list[list[int]], list[list[int]]]:
    prev = [[] for _ in range(n)]
    nxt = [[] for _ in range(n)]
    for u, v in edges:
        nxt[u].append(v)
        prev[v].append(u)
    for lst in prev:
        lst.sort()
    for lst in nxt:
        lst.sort()
    return prev, nxt


def bfs(nxt: list[list[int]], source: int = 0) -> list[int]:
    seen = {source}
    order = []
    todo = deque([source])
    while todo:
        u = todo.popleft()
        order.append(u)
        for v in nxt[u]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return order


def is_ordered(labels, edges) -> bool:
    return all(labels[u] <= labels[v] for u, v in edges)


class MultisetOracle:
    """The queue's contents as a heap plus live counts; deletion of an
    arbitrary value is lazy."""

    def __init__(self):
        self.heap: list[int] = []
        self.live: Counter = Counter()
        self.dead: Counter = Counter()
        self.size = 0

    def add(self, x: int) -> None:
        heapq.heappush(self.heap, x)
        self.live[x] += 1
        self.size += 1

    def discard(self, x: int) -> bool:
        """Remove one x; False when x is not held."""
        if self.live[x] <= 0:
            return False
        self.live[x] -= 1
        self.dead[x] += 1
        self.size -= 1
        return True

    def pop_min(self) -> int:
        heap, dead = self.heap, self.dead
        while dead[heap[0]]:
            dead[heapq.heappop(heap)] -= 1
        x = heapq.heappop(heap)
        self.live[x] -= 1
        self.size -= 1
        return x

    def sorted_items(self) -> list[int]:
        return sorted(self.live.elements())


class ReferenceQueue:
    """A second queue, written from the method's definition, that counts
    comparisons and exchanges. Free slot: the INF vertex earliest in the
    insertion order. Sifts move to the extreme neighbour (largest previous
    when lowering, smallest next when raising), smallest id on ties, and
    pay one comparison per neighbour scanned."""

    def __init__(self, prev, nxt, order):
        self.prev, self.nxt, self.order = prev, nxt, order
        self.rank = [0] * len(order)
        for r, v in enumerate(order):
            self.rank[v] = r
        self.labels = [INF] * len(order)
        self.free = list(range(len(order)))
        self.comparisons = 0
        self.exchanges = 0

    def _lower(self, v: int, x) -> None:
        labels = self.labels
        labels[v] = x
        while self.prev[v]:
            prev = self.prev[v]
            self.comparisons += len(prev)
            top = max(labels[u] for u in prev)
            if top <= x:
                return
            u = next(u for u in prev if labels[u] == top)
            labels[u], labels[v] = x, top
            self.exchanges += 1
            if top == INF:
                heapq.heappush(self.free, self.rank[v])
            v = u

    def _raise(self, v: int, x) -> int:
        labels = self.labels
        labels[v] = x
        while self.nxt[v]:
            nxt = self.nxt[v]
            self.comparisons += len(nxt)
            low = min(labels[u] for u in nxt)
            if low >= x:
                break
            u = next(u for u in nxt if labels[u] == low)
            labels[u], labels[v] = x, low
            self.exchanges += 1
            v = u
        return v

    def insert(self, x: int) -> None:
        while True:
            v = self.order[heapq.heappop(self.free)]
            if self.labels[v] == INF:
                break
        self._lower(v, x)

    def remove_min(self):
        source = self.order[0]
        smallest = self.labels[source]
        heapq.heappush(self.free, self.rank[self._raise(source, INF)])
        return smallest

    def lower_at(self, v: int, x: int) -> None:
        self._lower(v, x)

    def raise_at(self, v: int, x: int) -> None:
        self._raise(v, x)


def sort_counts(prev, nxt, order, values) -> tuple[int, int]:
    """(comparisons, exchanges) of sorting values through ReferenceQueue."""
    q = ReferenceQueue(prev, nxt, order)
    for x in values:
        q.insert(x)
    for _ in values:
        q.remove_min()
    return q.comparisons, q.exchanges


def parse_dot(text: str, n: int) -> list[tuple[list[str], int, str]]:
    """Split ``dagsort trace --format dot`` output into snapshots of
    (label tokens by vertex, gray vertex, edge block)."""
    snapshots = []
    for chunk in text.split("digraph ")[1:]:
        lines = chunk.split("\n")
        labels = []
        gray = -1
        for v, line in enumerate(lines[1 : n + 1]):
            head, _, rest = line.partition(' [label="')
            if head.strip() != str(v):
                raise ValueError(f"vertex line {v} reads {line!r}")
            token, _, attrs = rest.partition('"')
            labels.append(token)
            if "fillcolor=gray" in attrs:
                gray = v
        snapshots.append((labels, gray, "\n".join(lines[n + 1 :])))
    return snapshots


def check_sift_snapshots(
    snapshots, labels_before: list[str], vertex: int, new_label: str, edges, edge_block
) -> str | None:
    """None when the snapshots show one lowering sift of ``vertex`` to
    ``new_label`` on these edges, else the first thing that is wrong."""
    if not snapshots:
        return "no snapshots"
    edge_set = set(edges)
    expect = list(labels_before)
    expect[vertex] = new_label
    for i, (labels, gray, block) in enumerate(snapshots):
        if block != edge_block:
            return f"snapshot {i}: edges differ from the input"
        if i == 0:
            if labels != expect or gray != vertex:
                return "snapshot 0 is not the input with the new label"
        else:
            before = snapshots[i - 1][0]
            diff = [v for v in range(len(labels)) if labels[v] != before[v]]
            if len(diff) != 2:
                return f"snapshot {i}: {len(diff)} labels changed, not one swap"
            a, b = diff
            if (a, b) not in edge_set and (b, a) not in edge_set:
                return f"snapshot {i}: swap {a}<->{b} is not along an edge"
            if labels[a] != before[b] or labels[b] != before[a]:
                return f"snapshot {i}: labels {a}, {b} were not exchanged"
    final = [int(t) for t in snapshots[-1][0]]
    if not is_ordered(final, edges):
        return "final labels are not ordered"
    want = Counter(int(t) for t in labels_before)
    want[int(labels_before[vertex])] -= 1
    want[int(new_label)] += 1
    if +want != Counter(final):
        return "label multiset changed beyond the one replacement"
    return None
