"""Augmenting-path bipartite matching with deterministic tie-breaking."""

from __future__ import annotations

from typing import Collection, Iterator, Sequence


def maximum_bipartite_matching(adjacency: Sequence[Collection[int]]) -> list[int | None]:
    """Maximum matching of left nodes into right nodes.

    adjacency[u] lists u's right neighbors in preference order; left nodes are
    processed in index order, so ties always resolve the same way. Each
    augmenting path is a depth-first search on an explicit stack, so its
    length is not limited by the recursion limit.
    """
    match_left: list[int | None] = [None] * len(adjacency)
    owner: dict[int, int] = {}

    for root in range(len(adjacency)):
        seen: set[int] = set()
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(adjacency[root]))]
        via: list[int] = []  # via[i]: the right node stack[i] is trying to take over
        while stack:
            u, neighbors = stack[-1]
            for v in neighbors:
                if v not in seen:
                    break
            else:  # u has no augmenting path left; its parent tries its next neighbor
                stack.pop()
                if via:
                    via.pop()
                continue
            seen.add(v)
            via.append(v)
            if v in owner:
                stack.append((owner[v], iter(adjacency[owner[v]])))
                continue
            for (left, _), right in zip(stack, via):  # flip the augmenting path
                owner[right] = left
                match_left[left] = right
            break
    return match_left
