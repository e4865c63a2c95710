"""Bipartite b-matching by max flow: the reference answer for partition pairs.

A common independent set of two partition matroids on one ground set picks
each element at most once, at most cap(B) elements from every block B of
either matroid.  With the blocks of the first matroid on the left, those of
the second on the right and one unit arc per element between its two
blocks, the largest such set is a maximum flow.  Shares no code with
matroidkit on purpose: it is the independent check on |I|.
"""

from __future__ import annotations

from collections import deque


def max_common_partition_set(
    blocks1: list[list[str]], caps1: list[int], blocks2: list[list[str]], caps2: list[int]
) -> int:
    side1 = {label: i for i, block in enumerate(blocks1) for label in block}
    side2 = {label: i for i, block in enumerate(blocks2) for label in block}
    if set(side1) != set(side2):
        raise ValueError("partition pair does not share a ground set")
    left, right = len(blocks1), len(blocks2)
    source, sink = left + right, left + right + 1
    capacity: dict[tuple[int, int], int] = {}
    adjacent: list[set[int]] = [set() for _ in range(left + right + 2)]

    def arc(u: int, v: int, cap: int) -> None:
        capacity[u, v] = capacity.get((u, v), 0) + cap
        capacity.setdefault((v, u), 0)
        adjacent[u].add(v)
        adjacent[v].add(u)

    for i, cap in enumerate(caps1):
        arc(source, i, cap)
    for j, cap in enumerate(caps2):
        arc(left + j, sink, cap)
    for label in sorted(side1):
        arc(side1[label], left + side2[label], 1)

    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in sorted(adjacent[u]):
                if v not in parent and capacity[u, v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = capacity[u, v] if bottleneck is None else min(bottleneck, capacity[u, v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            capacity[u, v] -= bottleneck
            capacity[v, u] += bottleneck
            v = u
        flow += bottleneck
