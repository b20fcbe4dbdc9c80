"""Deterministic Dinic max-flow for small integer-capacity networks.

Edges are explored in insertion order, so identical inputs always produce
identical flows; all flows are integral on integer capacities. Paths are
walked with an explicit stack, not recursion, so any level-graph depth works.
`flow.max_flow_integral` is the package's only caller.
"""

from __future__ import annotations


class Dinic:
    def __init__(self, node_count: int):
        self.node_count = node_count
        self._to: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(node_count)]

    def add_edge(self, tail: int, head: int, capacity: int) -> int:
        """Add a directed edge and return its id; the residual edge is id ^ 1."""
        if capacity < 0:
            raise ValueError("negative capacity")
        edge_id = len(self._to)
        self._to.append(head)
        self._cap.append(capacity)
        self._adj[tail].append(edge_id)
        self._to.append(tail)
        self._cap.append(0)
        self._adj[head].append(edge_id + 1)
        return edge_id

    def flow_on(self, edge_id: int) -> int:
        """Flow pushed through a forward edge (the residual capacity of its twin)."""
        return self._cap[edge_id ^ 1]

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
