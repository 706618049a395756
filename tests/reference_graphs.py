"""Dense and pure-Python oracles for the graph generator and the k-hop sampler.

``dense_draw_edges`` is the synthetic generator's edge draw as one (n, n)
uniform matrix thresholded over ``np.triu_indices``: O(n^2) memory, kept
here to pin the row-block draw to the same edges and the same rng stream.
``bfs_k_hop`` is a breadth-first search over Python sets, and
``bfs_sample_positive`` draws from its sorted result exactly as
``graphstore.sample_positive`` must.
"""

import numpy as np


def dense_draw_edges(rng, labels, intra, inter):
    """Upper-triangle pairs whose entry of one rng.random((n, n)) draw is below their probability."""
    n = labels.size
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, intra, inter)
    draws = rng.random((n, n))
    iu, ju = np.triu_indices(n, k=1)
    mask = draws[iu, ju] < probs[iu, ju]
    return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def bfs_k_hop(graph, sources, k):
    """Set of nodes at shortest-path distance exactly k from the set `sources`."""
    visited = set(sources)
    frontier = set(sources)
    for _ in range(k):
        nxt = set()
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if v not in visited:
                    nxt.add(v)
        visited.update(nxt)
        frontier = nxt
        if not frontier:
            break
    return frontier


def bfs_sample_positive(graph, node, k, rng):
    """Uniform draw from the sorted exact-k-hop set; None when it is empty."""
    candidates = sorted(bfs_k_hop(graph, [node], k))
    if not candidates:
        return None
    return int(candidates[int(rng.integers(len(candidates)))])
