"""Tests for graph storage, k-hop queries, normalization, and link splits.

Derived quantities are checked against independent oracles: a queue-based
BFS for hop distances, a Python-set BFS for the numpy hop frontier, dense
matrix algebra for the normalized adjacency, a per-node loop for the mean
adjacency, tuple sets and a scalar rejection loop for the (m, 2) edge
arrays and link splits, plain set arithmetic for the node splits that
from_edges accepts, and exhaustive set arithmetic for link-split leakage.
"""

import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from nodegae import graphstore as gs
from nodegae import textcorpus as tc
from nodegae.errors import ConfigError, ContractError
from reference_graphs import (
    bfs_k_hop,
    bfs_sample_positive,
    scalar_link_split,
    set_canonical_edges,
    set_edges,
)

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


def set_splits_accepted(num_nodes, splits):
    """Whether a graph may hold these node splits: known names, each id an int in
    [0, num_nodes) listed once, and no node in two splits; by plain set arithmetic."""
    seen = set()
    for name, ids in splits.items():
        if name not in ("train", "val", "test") or len(set(ids)) != len(ids):
            return False
        if not all(isinstance(i, int) and 0 <= i < num_nodes for i in ids) or seen & set(ids):
            return False
        seen |= set(ids)
    return True


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


def test_edges_uses_canonical_order():
    g = gs.TextGraph.from_edges(4, [(2, 1), (3, 0)])
    got = g.edges()
    assert got.dtype == np.int64
    assert got.tolist() == [[0, 3], [1, 2]]


@pytest.mark.parametrize("edges", [[], np.zeros((0, 2), dtype=np.int64), [(1, 1), (0, 0)]])
def test_from_edges_without_edges_is_edgeless(edges):
    g = gs.TextGraph.from_edges(3, edges)
    assert g.num_edges == 0
    assert g.indptr.tolist() == [0, 0, 0, 0]
    assert g.indices.dtype == np.int64 and g.indices.size == 0
    assert g.edges().shape == (0, 2) and g.edges().dtype == np.int64
    # Without splits a graph still holds the three node splits, each empty.
    assert list(g.splits) == list(gs.NODE_SPLITS) == ["train", "val", "test"]
    assert all(ids.dtype == np.int64 and ids.size == 0 for ids in g.splits.values())


def test_from_edges_reports_first_bad_edge_as_the_set_oracle():
    edges = [(0, 1), (1, 1), (7, 2), (-1, 0), (3, 9)]
    with pytest.raises(ContractError) as want:
        set_canonical_edges(4, edges)
    with pytest.raises(ContractError) as got:
        gs.TextGraph.from_edges(4, np.asarray(edges))
    assert str(got.value) == str(want.value) == "edge (7, 2) out of range for a 4-node graph"


def test_from_edges_rejects_pairs_that_are_not_m_by_2():
    with pytest.raises(ContractError):
        gs.TextGraph.from_edges(4, [(0, 1, 2)])
    with pytest.raises(ContractError):
        gs.TextGraph.from_edges(4, [0, 1])


@given(st.integers(1, 24), st.data())
def test_canonical_edges_and_edges_match_tuple_sets(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=4 * n))
    want = set_canonical_edges(n, pairs)
    g = gs.TextGraph.from_edges(n, pairs)
    assert g.edges().dtype == np.int64 and g.edges().shape == (len(want), 2)
    assert [tuple(r) for r in g.edges().tolist()] == want == sorted(set_edges(g))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [2, 16, 300, 2000])
def test_edge_arrays_match_tuple_sets_at_scale(n, seed):
    # Random draws repeat pairs, reverse them and hit the diagonal.
    rng = np.random.default_rng(seed)
    pairs = rng.integers(n, size=(3 * n, 2))
    pairs[: n // 4, 1] = pairs[: n // 4, 0]
    want = np.asarray(set_canonical_edges(n, pairs), dtype=np.int64).reshape(-1, 2)
    g = gs.TextGraph.from_edges(n, pairs)
    assert np.array_equal(g.edges(), want)
    assert [tuple(e) for e in g.edges().tolist()] == sorted(set_edges(g))
    again = gs.TextGraph.from_edges(n, g.edges()[::-1, ::-1])
    assert np.array_equal(again.indptr, g.indptr) and np.array_equal(again.indices, g.indices)


@given(st.integers(1, 8), st.data())
def test_from_edges_accepts_exactly_the_splits_the_set_oracle_accepts(n, data):
    ids = st.lists(st.integers(-1, n), max_size=n + 1)
    splits = data.draw(st.dictionaries(st.sampled_from(gs.NODE_SPLITS + ("dev",)), ids))
    accepted = set_splits_accepted(n, splits)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    labels = data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    texts = [f"doc {v}" for v in range(n)]
    try:
        g = gs.TextGraph.from_edges(n, pairs, texts=texts, labels=labels, splits=splits)
    except ContractError:
        assert not accepted
        return
    assert accepted
    assert {name: ids.tolist() for name, ids in g.splits.items()} == {
        name: sorted(splits.get(name, [])) for name in gs.NODE_SPLITS}
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / name for name in ("nodes.tsv", "edges.tsv", "splits.txt")]
        tc.save_textgraph(g, *paths)
        back = tc.load_textgraph(*paths)
    for field in ("indptr", "indices", "labels"):
        got, want = getattr(back, field), getattr(g, field)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    assert back.texts == texts
    assert list(back.splits) == list(g.splits)
    assert all(np.array_equal(back.splits[name], g.splits[name]) for name in g.splits)


@pytest.mark.parametrize("labels", [np.array([3, -1], dtype=np.int32), [np.uint8(1), 2]])
def test_from_edges_stores_integer_labels_as_int64(labels):
    g = gs.TextGraph.from_edges(2, [], labels=labels)
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [int(v) for v in labels]


# ---------------------------------------------------------------------------
# exact-k-hop frontiers and their checks in sample_positive
# ---------------------------------------------------------------------------

def test_k_hop_on_path_graph():
    g = gs.TextGraph.from_edges(3, [(0, 1), (1, 2)])
    assert gs.hop_frontier(g, [0], 1).tolist() == [1]
    assert gs.hop_frontier(g, [0], 2).tolist() == [2]
    assert gs.hop_frontier(g, [0], 3).tolist() == []
    rng = np.random.default_rng(0)
    assert gs.sample_positive(g, 0, 2, rng) == 2
    assert gs.sample_positive(g, 0, 3, rng) is None


def test_k_hop_isolated_node_is_empty():
    g = gs.TextGraph.from_edges(3, [(0, 1)])
    assert gs.hop_frontier(g, [2], 1).tolist() == []
    assert gs.sample_positive(g, 2, 1, np.random.default_rng(0)) is None


def test_k_hop_out_of_range_node_raises():
    g = gs.TextGraph.from_edges(2, [(0, 1)])
    for node in (5, 2, -1, 1.5):  # 1.5 once ran from node 1
        with pytest.raises(IndexError):
            gs.sample_positive(g, node, 1, np.random.default_rng(0))


@pytest.mark.parametrize("nodes, k, bad", [([-1, 5], 1, -1), ([3, 64], 1, 64), ([1.7, 2], 1, 1.7),
                                          ([-1], 0, -1), ([True], 1, True)],
                         ids=["negative", "past-the-end", "non-integer", "negative-at-k0", "bool"])
def test_hop_frontier_rejects_ids_that_are_no_nodes(nodes, k, bad):
    # [-1, 5] once raised numpy's ValueError, [3, 64] a bare IndexError,
    # [1.7, 2] ran from node 1 and [-1] at k = 0 returned [-1].
    g = gs.TextGraph.from_edges(64, [(i, i + 1) for i in range(63)])
    with pytest.raises(IndexError, match=rf"^node {bad} is not an integer in \[0, 64\)"):
        gs.hop_frontier(g, nodes, k)
    assert gs.hop_frontier(g, [], 1).tolist() == []


def test_k_hop_bad_k_raises():
    g = gs.TextGraph.from_edges(2, [(0, 1)])
    for k in (0, -1):
        with pytest.raises(ContractError):
            gs.sample_positive(g, 0, k, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(10))
def test_k_hop_matches_bfs_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 50, 0.06)
    adj = adj_lists(g)
    for node in range(0, 50, 7):
        dist = bfs_distances(adj, node)
        for k in (1, 2, 3):
            want = {v for v, d in dist.items() if d == k}
            assert gs.hop_frontier(g, [node], k).tolist() == sorted(want)
            got = gs.sample_positive(g, node, k, np.random.default_rng(seed))
            assert got in want if want else got is None


@pytest.mark.parametrize("seed", range(3))
def test_hop_sets_disjoint_and_exclude_anchor(seed):
    rng = np.random.default_rng(50 + seed)
    g = random_graph(rng, 40, 0.08)
    for node in range(g.num_nodes):
        one = set(gs.hop_frontier(g, [node], 1).tolist())
        two = set(gs.hop_frontier(g, [node], 2).tolist())
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
def test_single_node_hop_frontier_matches_set_bfs(g, k):
    for node in range(g.num_nodes):
        assert gs.hop_frontier(g, [node], k).tolist() == sorted(bfs_k_hop(g, [node], k))


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
    for u, v in g.edges():
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
    edges = random_graph(rng, n, 0.4).edges()
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


def test_split_sizes_follow_the_fixed_ratios_with_no_part_empty():
    # build_link_split takes round(0.7 m) and round(0.2 m) edges unclamped:
    # from m = 10 edges on that leaves at least one test edge.
    assert gs.LINK_SPLIT_RATIOS == (0.7, 0.2, 0.1)
    for m in range(10, 121):
        g = path_graph(m + 1)
        split = gs.build_link_split(g, seed=m)
        sizes = [split.positives(part).shape[0] for part in ("train", "val", "test")]
        assert sizes[:2] == [round(0.7 * m), round(0.2 * m)]
        assert sum(sizes) == m and min(sizes) >= 1
        got = np.concatenate([split.positives(part) for part in ("train", "val", "test")])
        assert set_edges(g) == {tuple(map(int, e)) for e in got}


def test_split_needs_ten_edges():
    with pytest.raises(ConfigError):
        gs.build_link_split(path_graph(5), seed=0)


# Calls that graphstore refuses, each with its error and whole message.
REFUSALS = {
    "no-nodes": (lambda: gs.TextGraph.from_edges(0, []), ContractError,
                 "graph needs at least one node, got 0"),
    "text-count": (lambda: gs.TextGraph.from_edges(2, [(0, 1)], texts=["a"]), ContractError,
                   "expected 2 texts, got 1"),
    "label-shape": (lambda: gs.TextGraph.from_edges(2, [], labels=[[0, 1]]), ContractError,
                    "expected 2 labels, got shape (1, 2)"),
    "float-labels": (lambda: gs.TextGraph.from_edges(2, [], labels=[0.7, 1.9]), ContractError,
                     "labels must be integers, got dtype float64"),
    "bool-labels": (lambda: gs.TextGraph.from_edges(2, [], labels=[True, False]),
                    ContractError, "labels must be integers, got dtype bool"),
    "unknown-split": (lambda: gs.TextGraph.from_edges(3, [], splits={"bogus": [0]}),
                      ContractError, "unknown split 'bogus', not one of ('train', 'val', 'test')"),
    "split-id-twice": (lambda: gs.TextGraph.from_edges(3, [], splits={"train": [1, 1]}),
                       ContractError, "split 'train' lists node 1 twice"),
    "node-in-two-splits": (lambda: gs.TextGraph.from_edges(
                               3, [], splits={"train": [2, 0], "test": [1], "val": [0, 2]}),
                           ContractError, "split 'val' node 0 is also in split 'train'"),
    "split-float-id": (lambda: gs.TextGraph.from_edges(3, [], splits={"train": [0.9]}),
                       ContractError, "split 'train' ids must be integers, got dtype float64"),
    "split-string-id": (lambda: gs.TextGraph.from_edges(3, [], splits={"val": ["a"]}),
                        ContractError, "split 'val' ids must be integers, got dtype <U1"),
    "split-none-id": (lambda: gs.TextGraph.from_edges(3, [], splits={"val": [0, None]}),
                      ContractError, "split 'val' ids must be integers, got dtype object"),
    "split-out-of-range": (lambda: gs.TextGraph.from_edges(2, [], splits={"val": [1, 2]}),
                           ContractError, "split 'val' node 2 is out of range for a 2-node graph"),
    "split-negative-id": (lambda: gs.TextGraph.from_edges(2, [], splits={"test": [1, -1, -2]}),
                          ContractError, "split 'test' node -1 is out of range for a 2-node graph"),
    "neighbors-past-the-end": (lambda: path_graph(3).neighbors(3), IndexError,
                               "node 3 out of range for 3 nodes"),
    "neighbors-negative": (lambda: path_graph(3).neighbors(-1), IndexError,
                           "node -1 out of range for 3 nodes"),
    "split-of-nine-edges": (lambda: gs.build_link_split(path_graph(10)), ConfigError,
                            "link split needs >= 10 edges, graph has 9"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_call_raises_its_whole_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


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
    full = {tuple(e) for e in g.edges().tolist()}

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
    assert rows(msg.edges()) == pos_parts[0]
    assert (rows(msg.edges()) & (pos_parts[1] | pos_parts[2])) == set()


def test_split_validate_accepts_own_output():
    g = random_graph(np.random.default_rng(8), 20, 0.3)
    split = gs.build_link_split(g, seed=1)
    split.validate(g)  # should not raise



def split_arrays(split):
    return (split.train_pos, split.val_pos, split.test_pos,
            split.train_neg, split.val_neg, split.test_neg)


def assert_split_matches_scalar_oracle(g, seed):
    got = split_arrays(gs.build_link_split(g, seed=seed))
    want = scalar_link_split(g, seed=seed)
    for a, b in zip(got, want):
        assert a.dtype == np.int64 and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(10))
def test_split_matches_scalar_oracle_on_ten_edges(seed):
    assert_split_matches_scalar_oracle(path_graph(11), seed)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n,p", [(20, 0.3), (60, 0.1), (200, 0.03), (600, 0.01)])
def test_split_matches_scalar_oracle_on_random_graphs(n, p, seed):
    g = random_graph(np.random.default_rng(1000 + n + seed), n, p)
    assert_split_matches_scalar_oracle(g, seed)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n,spare", [(12, 0), (20, 0), (20, 3), (40, 10)])
def test_split_matches_scalar_oracle_when_rejection_dominates(monkeypatch, n, spare, seed):
    # n_edges == max_non_edges - 2 * spare: after the first draws nearly every
    # pair is an edge or already chosen, so the sampler needs many chunks.
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.permutation(iu.size)[: iu.size // 2 - spare]
    g = gs.TextGraph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
    assert g.num_edges == n * (n - 1) // 2 - g.num_edges - 2 * spare
    chunks = []
    member = gs._member
    monkeypatch.setattr(gs, "_member", lambda *a: chunks.append(1) or member(*a))
    assert_split_matches_scalar_oracle(g, seed)
    assert len(chunks) >= 3


def path_split():
    g = path_graph(12)
    return g, gs.build_link_split(g, seed=0)


def test_validate_rejects_reversed_edge_as_negative():
    g, split = path_split()
    split.validate(g)
    split.val_neg[0] = (4, 3)  # the real edge (3, 4), reversed
    with pytest.raises(ContractError, match="val negatives have rows outside"):
        split.validate(g)


def test_validate_rejects_out_of_range_row():
    g, split = path_split()
    split.test_neg[0] = (0, 40)
    with pytest.raises(ContractError, match=r"test negatives have rows outside \[0, 12\)"):
        split.validate(g)


@pytest.mark.parametrize("row", [(-1, 3), (5, 5), (2, 12)])
def test_validate_rejects_non_canonical_positive(row):
    g, split = path_split()
    split.train_pos[0] = row
    with pytest.raises(ContractError, match="train positives have rows outside"):
        split.validate(g)


def test_validate_reports_each_leak_in_order():
    g, split = path_split()

    def broken(**arrays):
        fields = dict(zip(("train_pos", "val_pos", "test_pos",
                           "train_neg", "val_neg", "test_neg"), split_arrays(split)))
        fields.update({k: np.asarray(v, dtype=np.int64).reshape(-1, 2)
                       for k, v in arrays.items()})
        return gs.LinkSplit(**fields)

    tp, vp, tn = split.train_pos, split.val_pos, split.train_neg
    cases = [
        (dict(train_pos=np.concatenate([tp, tp[:1]])), "train positives contain duplicates"),
        (dict(val_pos=[(0, 2)]), "val positives are not edges of the graph"),
        (dict(train_neg=np.concatenate([tn[:-1], vp[:1]])),
         "train negatives collide with real edges"),
        (dict(train_neg=np.concatenate([tn[:-1], tn[:1]])),
         "train negatives contain duplicates"),
        (dict(val_pos=tp[:1]), "val overlaps another partition"),
        (dict(test_neg=tn[:1]), "test overlaps another partition"),
        (dict(test_pos=np.zeros((0, 2))), "positives do not partition the edge set"),
    ]
    for arrays, message in cases:
        with pytest.raises(ContractError, match=message):
            broken(**arrays).validate(g)
