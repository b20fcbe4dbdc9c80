import random

from twoval_makespan.matching import maximum_bipartite_matching


def _recursive_matching(adjacency):
    """The textbook recursive augmenting-path search, as a reference."""
    match_left = [None] * len(adjacency)
    owner = {}

    def try_assign(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in owner or try_assign(owner[v], seen):
                owner[v] = u
                match_left[u] = v
                return True
        return False

    for u in range(len(adjacency)):
        try_assign(u, set())
    return match_left


def test_matches_recursive_search_on_random_graphs():
    rng = random.Random("matching-reference")
    for _ in range(500):
        right = rng.randint(1, 9)
        adjacency = [
            rng.sample(range(right), rng.randint(0, right)) for _ in range(rng.randint(0, 10))
        ]
        assert maximum_bipartite_matching(adjacency) == _recursive_matching(adjacency)


def test_augmenting_chain_longer_than_the_recursion_limit():
    # the last left node displaces every earlier one along a 5000-long chain
    n = 5000
    adjacency = [[u, u + 1] for u in range(n)] + [[0]]
    matched = maximum_bipartite_matching(adjacency)
    assert matched == [u + 1 for u in range(n)] + [0]
