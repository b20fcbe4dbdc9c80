"""A frozen copy of the textbook Dinic the package used before its level-edge walk.

Every phase labels the whole graph breadth-first, and every augmenting path
restarts at the source and checks each edge's level as it goes. Tests
require the package's kernel to find the same value and the same per-arc
flows; nothing in the package imports this module.
"""

from __future__ import annotations

from typing import Iterable


class ReferenceDinic:
    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int, int]]):
        """Residual arrays for the arcs: edge 2i is arc i, edge 2i + 1 its reverse."""
        self.node_count = node_count
        self._to: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(node_count)]
        for tail, head, capacity in arcs:
            if capacity < 0:
                raise ValueError("negative capacity")
            self._adj[tail].append(len(self._to))
            self._adj[head].append(len(self._to) + 1)
            self._to += (head, tail)
            self._cap += (capacity, 0)

    def flows(self) -> tuple[int, ...]:
        """Flow on each arc, in arc order."""
        return tuple(self._cap[1::2])

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while True:
            level = self._bfs(source, sink)
            if level is None:
                return total
            iters = [0] * self.node_count
            while True:
                pushed = self._augment(source, sink, level, iters)
                if pushed == 0:
                    break
                total += pushed

    def _bfs(self, source: int, sink: int) -> list[int] | None:
        level = [-1] * self.node_count
        level[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for edge_id in self._adj[node]:
                other = self._to[edge_id]
                if self._cap[edge_id] > 0 and level[other] < 0:
                    level[other] = level[node] + 1
                    queue.append(other)
        return level if level[sink] >= 0 else None

    def _augment(self, source: int, sink: int, level: list[int], iters: list[int]) -> int:
        """Push one level-graph path found depth-first; 0 when none is left.

        A node's edge pointer moves past an edge only once it is saturated,
        off-level or leads to a dead end.
        """
        to, cap, adj = self._to, self._cap, self._adj
        path: list[int] = []  # edge ids from the source to `node`
        node = source
        while node != sink:
            edges = adj[node]
            while iters[node] < len(edges):
                edge_id = edges[iters[node]]
                if cap[edge_id] > 0 and level[to[edge_id]] == level[node] + 1:
                    break
                iters[node] += 1
            else:
                if not path:
                    return 0
                node = to[path.pop() ^ 1]  # back to the tail, past the dead end
                iters[node] += 1
                continue
            path.append(edge_id)
            node = to[edge_id]
        pushed = min(cap[edge_id] for edge_id in path)
        for edge_id in path:
            cap[edge_id] -= pushed
            cap[edge_id ^ 1] += pushed
        return pushed
