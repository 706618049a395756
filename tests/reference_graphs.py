"""Dense and pure-Python oracles for the graph generator and the k-hop sampler.

``dense_draw_edges`` is the synthetic generator's edge draw as one (n, n)
uniform matrix thresholded over ``np.triu_indices``: O(n^2) memory, kept
here to pin the row-block draw to the same edges and the same rng stream.
``bfs_k_hop`` is a breadth-first search over Python sets, and
``bfs_sample_positive`` draws from its sorted result exactly as
``graphstore.sample_positive`` must. ``set_canonical_edges``, ``set_edges``
and ``scalar_link_split`` are the tuple-set edge handling and the
one-pair-per-iteration negative sampler that the (m, 2) array code must
reproduce bit for bit.
"""

import numpy as np

from nodegae.errors import ContractError


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


def set_canonical_edges(num_nodes, edges):
    """Sorted (min, max) tuples of `edges` without self-loops; ContractError on a bad endpoint."""
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ContractError(f"edge ({u}, {v}) out of range for a {num_nodes}-node graph")
        if u != v:
            canon.add((u, v) if u < v else (v, u))
    return sorted(canon)


def set_edges(graph):
    """Set of (u, v) tuples, u < v, read one CSR neighbour at a time."""
    return {(u, int(v)) for u in range(graph.num_nodes) for v in graph.neighbors(u) if u < v}


def scalar_link_split(graph, seed=0):
    """The six arrays of a 7:2:1 split, negatives drawn by one scalar rng.integers(n) per endpoint.

    Returns (train_pos, val_pos, test_pos, train_neg, val_neg, test_neg).
    """
    edges = sorted(set_edges(graph))
    n_edges, n = len(edges), graph.num_nodes
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_edges)
    n_train = min(int(round(0.7 * n_edges)), n_edges)
    n_val = min(int(round(0.2 * n_edges)), n_edges - n_train)
    bounds = [0, n_train, n_train + n_val, n_edges]
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    full, chosen, negatives = set(edges), set(), []
    while len(negatives) < n_edges:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in full or e in chosen:
            continue
        chosen.add(e)
        negatives.append(e)
    pos = [edge_arr[np.sort(perm[a:b])] for a, b in zip(bounds, bounds[1:])]
    neg = [np.asarray(sorted(negatives[a:b]), dtype=np.int64).reshape(-1, 2)
           for a, b in zip(bounds, bounds[1:])]
    return tuple(pos + neg)
