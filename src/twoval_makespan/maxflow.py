"""Deterministic Dinic max-flow for small integer-capacity networks.

The network is given as residual arrays over (tail, head, capacity) arcs:
edge 2i is arc i and edge 2i + 1 its reverse, so the flow on arc i is the
residual capacity of edge 2i + 1. The arrays hold, per edge, its head (`to`)
and residual capacity (`cap`), and per node its edge ids in arc order
(`adj`); the node count is len(adj). `flow.flow_network` writes them, and
the solver pushes flow into `cap` in place. Edges are
explored in arc order, so identical inputs always produce identical flows;
all flows are integral on integer capacities. Paths are walked with an
explicit stack, not recursion, so any level-graph depth works.
`flow.max_flow_integral` is the package's only caller of `max_flow`. It
may hand over residual capacities with the first phases already pushed as
first-fit passes (`flow`): a phase reads nothing but the residual
capacities, so `max_flow` then starts at what would have been its next
phase and ends with the same flows and labels.

Each phase finds the same augmenting paths, in the same order and with the
same push amounts, as the textbook walk (Dinitz 1970) that restarts every
path at the source and checks each edge's level as it goes, with less work:

- The breadth-first search expands the nodes level by level and stops once
  the level above the sink is expanded. Expanding node u at level d keeps,
  in `adj` order, each edge u -> v with residual capacity whose head is
  unlabeled or labeled d + 1: u's level edges. A node the search labels but
  does not expand has none; below the sink's level it could only be a dead
  end of the phase, since level edges climb one level at a time.
- Within a phase flow is pushed only along level edges, and the reverse of a
  level edge points one level down, so no edge becomes a level edge during
  the phase. Walking the precomputed lists and checking only the residual
  capacity thus skips exactly the edges the textbook walk skips.
- After a push the walk keeps the path up to the first edge the push
  saturated and continues from that edge's tail. A restart from the source
  would retrace exactly that prefix, since every current edge on it still
  has residual capacity.

A node's current edge is the last entry of its level-edge list, kept in
reverse `adj` order, so passing an edge is one `pop`. One table of these
lists serves every phase of a max-flow, so a phase allocates no new lists.

The last phase's search finds the sink cut off and runs to exhaustion, so
after `max_flow` the solver's `level` is >= 0 exactly on the nodes the
source still reaches in the residual graph: the source side of a minimum
cut. Every arc leaving that side is saturated and every arc entering it is
empty, so the flow value equals the cut's capacity.
"""

from __future__ import annotations


class Dinic:
    def __init__(self, to: list[int], cap: list[int], adj: list[list[int]]):
        """A solver over residual arrays laid out as above, not copied: it pushes into `cap`."""
        self.level: list[int] = []  # the last search's labels; see the module docstring
        self._to, self._cap, self._adj = to, cap, adj

    def flows(self) -> tuple[int, ...]:
        """Flow on each arc, in arc order."""
        return tuple(self._cap[1::2])

    def max_flow(self, source: int, sink: int) -> int:
        if source == sink:  # the search below would find the sink at level 0 in every phase
            raise ValueError("source and sink are the same node")
        total = 0
        out: list[list[int]] = [[] for _ in self._adj]  # one table for every phase
        while self._level_edges(source, sink, out):
            total += self._augment_all(source, sink, out)
        return total

    def _level_edges(self, source: int, sink: int, out: list[list[int]]) -> bool:
        """Refill `out` with each node's level edges, in reverse `adj` order, and label `level`.

        False when the sink is cut off. Nodes left unexpanded get no edges.
        A saturated source, as at the end of every max-flow that meets its
        demand, labels itself alone and returns before `out` is touched.
        """
        to, cap, adj = self._to, self._cap, self._adj
        level = self.level = [-1] * len(adj)
        level[source] = 0
        if not any(map(cap.__getitem__, adj[source])):
            return False
        for edges in out:
            edges.clear()
        frontier = [source]
        depth = 1  # the level of the nodes the frontier reaches
        while frontier:
            reached = []
            for node in frontier:
                edges = out[node]
                for edge_id in adj[node]:
                    if cap[edge_id]:
                        other = to[edge_id]
                        seen = level[other]
                        if seen < 0:
                            level[other] = depth
                            reached.append(other)
                            edges.append(edge_id)
                        elif seen == depth:
                            edges.append(edge_id)
                edges.reverse()
            if level[sink] >= 0:
                return True
            frontier = reached
            depth += 1
        return False

    def _augment_all(self, source: int, sink: int, out: list[list[int]]) -> int:
        """Push level-graph paths found depth-first until none is left; the total pushed."""
        to, cap = self._to, self._cap
        total = 0
        path: list[int] = []  # edge ids from the source to `node`
        node = source
        while True:
            edges = out[node]
            while edges and not cap[edges[-1]]:
                edges.pop()
            if edges:
                edge_id = edges[-1]
                path.append(edge_id)
                node = to[edge_id]
                if node != sink:
                    continue
                pushed = min([cap[edge_id] for edge_id in path])
                total += pushed
                cut = -1  # the first edge the push saturated
                for idx, edge_id in enumerate(path):
                    left = cap[edge_id] - pushed
                    cap[edge_id] = left
                    cap[edge_id ^ 1] += pushed
                    if not left and cut < 0:
                        cut = idx
                node = to[path[cut] ^ 1]
                del path[cut:]
            elif path:
                node = to[path.pop() ^ 1]  # back to the tail, past the dead end
                out[node].pop()
            else:
                return total
