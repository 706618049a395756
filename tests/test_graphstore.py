"""Tests for graph storage, k-hop queries, normalization, and link splits.

Derived quantities are checked against independent oracles: a queue-based
BFS for hop distances, a Python-set BFS for the numpy hop frontier, dense matrix algebra for the normalized adjacency,
a per-node loop for the mean adjacency, and exhaustive set arithmetic for
link-split leakage.
"""

from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from nodegae import graphstore as gs
from nodegae.errors import ConfigError, ContractError
from reference_graphs import bfs_k_hop, bfs_sample_positive

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def bfs_distances(adj, src):
    """Plain queue BFS over adjacency lists; returns {node: distance}."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def dense_normalized(adj_dense, add_self_loops):
    a = adj_dense.astype(np.float64).copy()
    if add_self_loops:
        a = a + np.eye(a.shape[0])
    deg = a.sum(axis=1)
    d_inv_sqrt = np.array([0.0 if d == 0 else d ** -0.5 for d in deg])
    return np.diag(d_inv_sqrt) @ a @ np.diag(d_inv_sqrt)


def random_graph(rng, n, p):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return gs.TextGraph.from_edges(n, edges)


def adj_lists(graph):
    return [list(graph.neighbors(v)) for v in range(graph.num_nodes)]


# ---------------------------------------------------------------------------
# TextGraph construction
# ---------------------------------------------------------------------------

def test_from_edges_deduplicates_and_symmetrizes():
    g = gs.TextGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.num_edges == 2
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(2)) == [1]


def test_from_edges_drops_self_loops():
    g = gs.TextGraph.from_edges(2, [(0, 0), (0, 1)])
    assert g.num_edges == 1
    assert list(g.neighbors(0)) == [1]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ContractError):
        gs.TextGraph.from_edges(2, [(0, 5)])


def test_csr_offsets_monotone_and_aligned():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 30, 0.15)
    assert np.all(np.diff(g.indptr) >= 0)
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert g.indices.size == 2 * g.num_edges
    # Symmetry: (u,v) stored implies (v,u) stored.
    pairs = set()
    for u in range(g.num_nodes):
        for v in g.neighbors(u):
            pairs.add((u, int(v)))
    assert all((v, u) in pairs for (u, v) in pairs)


def test_edge_set_uses_canonical_order():
    g = gs.TextGraph.from_edges(4, [(2, 1), (3, 0)])
    assert g.edge_set() == {(1, 2), (0, 3)}


# ---------------------------------------------------------------------------
# k_hop_neighbors
# ---------------------------------------------------------------------------

def test_k_hop_on_path_graph():
    g = gs.TextGraph.from_edges(3, [(0, 1), (1, 2)])
    assert gs.k_hop_neighbors(g, 0, 1) == {1}
    assert gs.k_hop_neighbors(g, 0, 2) == {2}
    assert gs.k_hop_neighbors(g, 0, 3) == set()


def test_k_hop_isolated_node_is_empty():
    g = gs.TextGraph.from_edges(3, [(0, 1)])
    assert gs.k_hop_neighbors(g, 2, 1) == set()


def test_k_hop_out_of_range_node_raises():
    g = gs.TextGraph.from_edges(2, [(0, 1)])
    with pytest.raises(IndexError):
        gs.k_hop_neighbors(g, 5, 1)


def test_k_hop_bad_k_raises():
    g = gs.TextGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ContractError):
        gs.k_hop_neighbors(g, 0, 0)


@pytest.mark.parametrize("seed", range(10))
def test_k_hop_matches_bfs_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 50, 0.06)
    adj = adj_lists(g)
    for node in range(0, 50, 7):
        dist = bfs_distances(adj, node)
        for k in (1, 2, 3):
            want = {v for v, d in dist.items() if d == k}
            assert gs.k_hop_neighbors(g, node, k) == want


@pytest.mark.parametrize("seed", range(3))
def test_hop_sets_disjoint_and_exclude_anchor(seed):
    rng = np.random.default_rng(50 + seed)
    g = random_graph(rng, 40, 0.08)
    for node in range(g.num_nodes):
        one = gs.k_hop_neighbors(g, node, 1)
        two = gs.k_hop_neighbors(g, node, 2)
        assert node not in one and node not in two
        assert one.isdisjoint(two)


@st.composite
def graphs(draw, max_nodes=24):
    """A random graph with possibly isolated nodes, components and dense patches."""
    n = draw(st.integers(1, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return gs.TextGraph.from_edges(n, pairs)


@given(graphs(), st.integers(1, 5))
def test_k_hop_neighbors_match_set_bfs(g, k):
    for node in range(g.num_nodes):
        assert gs.k_hop_neighbors(g, node, k) == bfs_k_hop(g, [node], k)


@given(graphs(), st.data())
def test_hop_frontier_of_node_sets_matches_set_bfs(g, data):
    sources = data.draw(st.lists(st.integers(0, g.num_nodes - 1), max_size=6))
    for k in range(5):
        got = gs.hop_frontier(g, sources, k)
        assert got.dtype == np.int64
        assert got.tolist() == sorted(bfs_k_hop(g, sources, k))


@given(graphs(), st.integers(0, 2**32 - 1))
def test_sample_positive_draws_match_set_bfs(g, seed):
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for node in range(g.num_nodes):
        for k in (1, 2, 3):
            assert gs.sample_positive(g, node, k, rng) == bfs_sample_positive(
                g, node, k, want_rng)
    assert rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# sample_positive
# ---------------------------------------------------------------------------

def test_sample_positive_singleton_neighbor():
    g = gs.TextGraph.from_edges(3, [(0, 1)])
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert gs.sample_positive(g, 0, 1, rng) == 1


def test_sample_positive_isolated_returns_none():
    g = gs.TextGraph.from_edges(3, [(0, 1)])
    rng = np.random.default_rng(0)
    assert gs.sample_positive(g, 2, 1, rng) is None


def test_sample_positive_uniform_frequencies():
    # Star center with 4 leaves: each leaf frequency within 3 sigma of 0.25.
    g = gs.TextGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    rng = np.random.default_rng(123)
    draws = 10_000
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for _ in range(draws):
        counts[gs.sample_positive(g, 0, 1, rng)] += 1
    sigma = (0.25 * 0.75 / draws) ** 0.5
    for leaf in counts:
        assert abs(counts[leaf] / draws - 0.25) < 3 * sigma


# ---------------------------------------------------------------------------
# normalized_adjacency
# ---------------------------------------------------------------------------

def test_normalized_two_nodes_unit_degrees():
    g = gs.TextGraph.from_edges(2, [(0, 1)])
    a = gs.normalized_adjacency(g, add_self_loops=False).toarray()
    assert np.array_equal(a, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_normalized_isolated_row_is_zero():
    g = gs.TextGraph.from_edges(3, [(0, 1)])
    a = gs.normalized_adjacency(g, add_self_loops=False).toarray()
    assert np.all(a[2] == 0.0) and np.all(a[:, 2] == 0.0)


def test_normalized_star_with_self_loops_matches_hand_compute():
    # K_{1,3}: center 0 with leaves 1..3. With self-loops deg(0)=4, deg(leaf)=2.
    g = gs.TextGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    got = gs.normalized_adjacency(g, add_self_loops=True).toarray()
    dense = np.zeros((4, 4))
    for u, v in [(0, 1), (0, 2), (0, 3)]:
        dense[u, v] = dense[v, u] = 1.0
    want = dense_normalized(dense, add_self_loops=True)
    assert np.max(np.abs(got - want)) < 1e-12
    assert abs(got[0, 1] - 1.0 / np.sqrt(4 * 2)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("loops", [True, False])
def test_normalized_matches_dense_oracle(seed, loops):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    g = random_graph(rng, n, 0.5)
    dense = np.zeros((n, n))
    for u, v in g.edge_set():
        dense[u, v] = dense[v, u] = 1.0
    got = gs.normalized_adjacency(g, add_self_loops=loops)
    assert sp.issparse(got) and got.format == "csr"
    want = dense_normalized(dense, add_self_loops=loops)
    assert np.max(np.abs(got.toarray() - want)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_normalized_symmetric_and_bounded_spectrum(seed):
    rng = np.random.default_rng(700 + seed)
    g = random_graph(rng, 20, 0.2)
    a = gs.normalized_adjacency(g, add_self_loops=True).toarray()
    assert np.max(np.abs(a - a.T)) < 1e-12
    eigs = np.linalg.eigvalsh(a)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# mean_adjacency
# ---------------------------------------------------------------------------

def per_node_mean(graph):
    """Dense row-mean operator filled one node at a time."""
    n = graph.num_nodes
    out = np.zeros((n, n))
    for v in range(n):
        nbrs = list(graph.neighbors(v))
        for u in nbrs:
            out[v, u] = 1.0 / len(nbrs)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_mean_adjacency_matches_per_node_oracle(seed):
    rng = np.random.default_rng(800 + seed)
    n = int(rng.integers(2, 9))
    edges = random_graph(rng, n, 0.4).edge_set()
    g = gs.TextGraph.from_edges(n + 1, edges)  # node n is isolated
    got = gs.mean_adjacency(g)
    assert sp.issparse(got) and got.format == "csr"
    assert np.array_equal(got.toarray(), per_node_mean(g))
    sums = np.asarray(got.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - (g.degrees > 0))) < 1e-12
    assert sums[n] == 0.0


# ---------------------------------------------------------------------------
# build_link_split
# ---------------------------------------------------------------------------

def path_graph(n):
    return gs.TextGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_split_sizes_on_ten_edges():
    split = gs.build_link_split(path_graph(11), seed=0)
    assert split.train_pos.shape[0] == 7
    assert split.val_pos.shape[0] == 2
    assert split.test_pos.shape[0] == 1
    for part in ("train", "val", "test"):
        assert split.positives(part).shape == split.negatives(part).shape


def test_split_ratio_sum_validated():
    with pytest.raises(ConfigError):
        gs.build_link_split(path_graph(11), ratios=(0.7, 0.2, 0.2), seed=0)


def test_split_needs_ten_edges():
    with pytest.raises(ConfigError):
        gs.build_link_split(path_graph(5), seed=0)


def test_split_determinism():
    g = random_graph(np.random.default_rng(3), 20, 0.3)
    a = gs.build_link_split(g, seed=9)
    b = gs.build_link_split(g, seed=9)
    for part in ("train", "val", "test"):
        assert np.array_equal(a.positives(part), b.positives(part))
        assert np.array_equal(a.negatives(part), b.negatives(part))


def test_split_exhaustive_leakage_checks():
    rng = np.random.default_rng(42)
    g = random_graph(rng, 20, 0.3)
    split = gs.build_link_split(g, seed=7)
    full = g.edge_set()

    def rows(a):
        return {(int(u), int(v)) for u, v in a}

    pos_parts = [rows(split.positives(p)) for p in ("train", "val", "test")]
    neg_parts = [rows(split.negatives(p)) for p in ("train", "val", "test")]

    # Positives partition the edge set.
    assert pos_parts[0] | pos_parts[1] | pos_parts[2] == full
    assert pos_parts[0].isdisjoint(pos_parts[1])
    assert pos_parts[0].isdisjoint(pos_parts[2])
    assert pos_parts[1].isdisjoint(pos_parts[2])
    # Sizes within one of the exact ratios.
    e = len(full)
    for part_set, ratio in zip(pos_parts, (0.7, 0.2, 0.1)):
        assert abs(len(part_set) - ratio * e) <= 1.0
    # No negative coincides with any edge; negatives mutually distinct.
    all_negs = neg_parts[0] | neg_parts[1] | neg_parts[2]
    assert all_negs.isdisjoint(full)
    assert len(all_negs) == sum(len(s) for s in neg_parts)
    # Message-passing graph for training holds train positives only.
    msg = split.train_message_graph(g)
    assert msg.edge_set() == pos_parts[0]
    assert (msg.edge_set() & (pos_parts[1] | pos_parts[2])) == set()


def test_split_validate_accepts_own_output():
    g = random_graph(np.random.default_rng(8), 20, 0.3)
    split = gs.build_link_split(g, seed=1)
    split.validate(g)  # should not raise

