"""Graph topology storage and the structural queries built on it.

The central type is TextGraph: an undirected graph in compressed sparse row
form whose nodes carry documents, optional labels, and named node splits.
Edge lists in and out of it, and the link-split arrays, have one format: an
(m, 2) int64 array of rows u < v sorted by (u, v), deduplicated through the
int64 key u * n + v. On top of it live the exact-distance k-hop frontier of
a node set (one numpy gather, sort-based dedup and visited mask per hop)
used to draw contrastive positives, the sparse propagation operators of the
graph backbones (the symmetric degree normalization for graph convolutions
and the neighbor mean for GraphSAGE), and the train/val/test edge-split
construction for link prediction.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "TextGraph",
    "LinkSplit",
    "hop_frontier",
    "sample_positive",
    "normalized_adjacency",
    "mean_adjacency",
    "build_link_split",
]

# The train, val and test shares of a link split's edges: 7:2:1.
LINK_SPLIT_RATIOS = (0.7, 0.2, 0.1)
# The node splits that every TextGraph holds.
NODE_SPLITS = ("train", "val", "test")


def _keys(pairs: np.ndarray, num_nodes: int) -> np.ndarray:
    """int64 key u * n + v of each (u, v) row; sorting keys sorts rows by (u, v)."""
    return pairs[:, 0] * num_nodes + pairs[:, 1]


def _pairs(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    """(m, 2) rows of the keys made by _keys."""
    return np.stack(np.divmod(keys, num_nodes), axis=1)


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by np.sort (numpy 2's hash-based np.unique is slower on ints)."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _member(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mask of the entries of `values` that occur in the sorted array `table`."""
    at = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[at] == values if table.size else np.zeros(values.shape, dtype=bool)


def _canonical_edges(num_nodes: int, edges) -> np.ndarray:
    """Sorted (m, 2) rows u < v of an (m, 2) array-like, after checking endpoints.

    The first out-of-range edge in input order is reported; self-loops and
    duplicates, in either direction, are dropped.
    """
    pairs = np.asarray(edges, dtype=np.int64)
    pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ContractError(f"edges must form an (m, 2) array, got shape {pairs.shape}")
    bad = np.flatnonzero(((pairs < 0) | (pairs >= num_nodes)).any(axis=1))
    if bad.size:
        u, v = pairs[bad[0]].tolist()
        raise ContractError(f"edge ({u}, {v}) out of range for a {num_nodes}-node graph")
    pairs = np.sort(pairs, axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return _pairs(_unique(_keys(pairs, num_nodes)), num_nodes)


@dataclass
class TextGraph:
    """Undirected textual graph: CSR adjacency plus per-node payload.

    indptr/indices store both directions of every edge with sorted neighbor
    lists, no self-loops, and no duplicates. labels uses -1 for unlabeled
    nodes. splits maps split names to sorted int64 node-id arrays and always
    holds the NODE_SPLITS, each empty unless given.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    texts: List[str]
    labels: np.ndarray
    splits: Dict[str, np.ndarray]

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges,
        texts: Optional[List[str]] = None,
        labels=None,
        splits: Optional[Dict[str, Sequence[int]]] = None,
    ) -> "TextGraph":
        """CSR graph of an (m, 2) array-like of pairs in either direction, repeats allowed.

        Self-loops are dropped; the first pair with an endpoint outside
        [0, num_nodes) raises ContractError.
        """
        if num_nodes < 1:
            raise ContractError(f"graph needs at least one node, got {num_nodes}")
        pairs = _canonical_edges(num_nodes, edges)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(src, minlength=num_nodes))

        if texts is None:
            texts = [""] * num_nodes
        if len(texts) != num_nodes:
            raise ContractError(f"expected {num_nodes} texts, got {len(texts)}")
        if labels is None:
            labels_arr = -np.ones(num_nodes, dtype=np.int64)
        else:
            labels_arr = np.asarray(labels, dtype=np.int64)
            if labels_arr.shape != (num_nodes,):
                raise ContractError(
                    f"expected {num_nodes} labels, got shape {labels_arr.shape}"
                )
        split_arrs = {name: np.zeros(0, dtype=np.int64) for name in NODE_SPLITS}
        for name, ids in (splits or {}).items():
            arr = np.asarray(sorted(int(i) for i in ids), dtype=np.int64)
            if arr.size and (arr[0] < 0 or arr[-1] >= num_nodes):
                raise ContractError(f"split '{name}' has out-of-range node ids")
            split_arrs[name] = arr
        return cls(num_nodes, indptr, dst, list(texts), labels_arr, split_arrs)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return int(self.indices.size // 2)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        if not (0 <= node < self.num_nodes):
            raise IndexError(f"node {node} out of range for {self.num_nodes} nodes")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def edges(self) -> np.ndarray:
        """All undirected edges as (m, 2) int64 rows u < v, sorted by (u, v)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        upper = src < self.indices
        return np.stack([src[upper], self.indices[upper]], axis=1)


def _gather_neighbors(graph: TextGraph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR neighbour slices of `nodes`, in their order."""
    starts = graph.indptr[nodes]
    lengths = graph.indptr[nodes + 1] - starts
    # Entry j of node i's slice sits at starts[i] + j, and at
    # (sum of earlier lengths) + j in the concatenation.
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return graph.indices[shift + np.arange(shift.size)]


def _reach(graph: TextGraph, nodes: np.ndarray) -> np.ndarray:
    """Sorted, duplicate-free neighbours of the duplicate-free id array `nodes`."""
    if nodes.size == 1:  # one CSR slice is already sorted and duplicate-free
        return graph.neighbors(nodes[0])
    return _unique(_gather_neighbors(graph, nodes))


def hop_frontier(graph: TextGraph, nodes, k: int) -> np.ndarray:
    """Sorted ids of the nodes at shortest-path distance exactly k from the set `nodes`.

    Each hop takes the frontier's neighbours (its gathered CSR slices, sorted
    and deduplicated) and drops visited nodes with a boolean mask, so nodes closer
    than k, the set itself included, are never returned. k = 0 gives the
    set itself. An id that is not an integer in [0, N) raises IndexError.
    """
    ids = np.asarray(nodes).reshape(-1)
    bad = ~(np.issubdtype(ids.dtype, np.integer) & (ids >= 0) & (ids < graph.num_nodes))
    if bad.any():
        raise IndexError(f"node {ids[bad.argmax()]} is not an integer in [0, {graph.num_nodes})")
    frontier = ids.astype(np.int64)
    if frontier.size > 1:  # a single id is already sorted and unique
        frontier = _unique(frontier)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[frontier] = True
    for _ in range(k):
        reached = _reach(graph, frontier)
        frontier = reached[~visited[reached]]
        if not frontier.size:
            break
        visited[frontier] = True
    return frontier


def sample_positive(
    graph: TextGraph, node: int, k: int, rng: np.random.Generator
) -> Optional[int]:
    """Uniform draw from the nodes at distance exactly k >= 1, or None when there are
    none. A node that is not an integer in [0, N) raises hop_frontier's IndexError."""
    if k < 1:
        raise ContractError(f"hop distance must be >= 1, got {k}")
    candidates = hop_frontier(graph, [node], k)
    if not candidates.size:
        return None
    return int(candidates[int(rng.integers(candidates.size))])


def normalized_adjacency(graph: TextGraph, add_self_loops: bool = True
                         ) -> "sp.csr_matrix":
    """Symmetrically normalized adjacency D^{-1/2} A D^{-1/2}.

    Degrees are taken from A after optional self-loop insertion; isolated
    nodes keep zero rows and columns (0^{-1/2} is defined as 0).
    """
    import scipy.sparse as sp  # imported on first use: commands without a graph backbone skip it

    n = graph.num_nodes
    adj = sp.csr_matrix(
        (np.ones(graph.indices.size, dtype=np.float64), graph.indices, graph.indptr),
        shape=(n, n),
    )
    if add_self_loops:
        adj = (adj + sp.identity(n, dtype=np.float64, format="csr")).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    scale = sp.diags(inv_sqrt)
    return (scale @ adj @ scale).tocsr()


def mean_adjacency(graph: TextGraph) -> "sp.csr_matrix":
    """Row-mean neighbor averaging D^{-1} A; isolated nodes keep zero rows."""
    import scipy.sparse as sp  # imported on first use, as in normalized_adjacency

    deg = graph.degrees
    weights = np.repeat(1.0 / np.maximum(deg, 1), deg)
    return sp.csr_matrix((weights, graph.indices, graph.indptr),
                         shape=(graph.num_nodes, graph.num_nodes))


@dataclass
class LinkSplit:
    """Edge-level train/val/test split with one negative per positive.

    The six edge arrays are in the graph's one edge format: (m, 2) int64
    rows u < v, sorted by (u, v). Negatives are uniform over non-edges of
    the full graph and distinct across all six arrays. The training
    message-passing graph must contain train positives only;
    train_message_graph builds it.
    """

    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    train_neg: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray

    def positives(self, part: str) -> np.ndarray:
        return {"train": self.train_pos, "val": self.val_pos, "test": self.test_pos}[part]

    def negatives(self, part: str) -> np.ndarray:
        return {"train": self.train_neg, "val": self.val_neg, "test": self.test_neg}[part]

    def train_message_graph(self, graph: TextGraph) -> TextGraph:
        """Graph restricted to train positives, payload carried over."""
        return TextGraph.from_edges(graph.num_nodes, self.train_pos, texts=graph.texts,
                                    labels=graph.labels, splits=graph.splits)

    def validate(self, graph: TextGraph) -> None:
        """Raise ContractError on a non-canonical row, leakage or a partition violation."""
        n = graph.num_nodes
        full = _keys(graph.edges(), n)
        seen = np.zeros(0, dtype=np.int64)
        for part in ("train", "val", "test"):
            pos, neg = self.positives(part), self.negatives(part)
            for kind, arr in (("positives", pos), ("negatives", neg)):  # keys need u < v < n
                if not ((0 <= arr[:, 0]) & (arr[:, 0] < arr[:, 1]) & (arr[:, 1] < n)).all():
                    raise ContractError(f"{part} {kind} have rows outside [0, {n}) or with u >= v")
            pos, neg = _keys(pos, n), _keys(neg, n)
            if _unique(pos).size != pos.size:
                raise ContractError(f"{part} positives contain duplicates")
            if not _member(pos, full).all():
                raise ContractError(f"{part} positives are not edges of the graph")
            if _member(neg, full).any():
                raise ContractError(f"{part} negatives collide with real edges")
            if _unique(neg).size != neg.size:
                raise ContractError(f"{part} negatives contain duplicates")
            if _member(np.concatenate([pos, neg]), seen).any():
                raise ContractError(f"{part} overlaps another partition")
            seen = np.sort(np.concatenate([seen, pos, neg]))
        total_pos = sum(self.positives(p).shape[0] for p in ("train", "val", "test"))
        if total_pos != full.size:
            raise ContractError("positives do not partition the edge set")


def build_link_split(graph: TextGraph, seed: int = 0) -> LinkSplit:
    """Partition edges by LINK_SPLIT_RATIOS and sample matched negatives."""
    edges = graph.edges()
    n_edges = edges.shape[0]
    if n_edges < 10:
        raise ConfigError(f"link split needs >= 10 edges, graph has {n_edges}")
    n = graph.num_nodes
    max_non_edges = n * (n - 1) // 2 - n_edges
    if n_edges > max_non_edges:
        raise ConfigError(
            f"cannot sample {n_edges} negatives: only {max_non_edges} non-edges exist"
        )

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_edges)
    # With m >= 10 edges, round(0.7 m) + round(0.2 m) <= 0.9 m + 1 <= m, so no part overflows.
    n_train, n_val = (int(round(r * n_edges)) for r in LINK_SPLIT_RATIOS[:2])
    parts = (slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, None))
    pos_parts = [edges[np.sort(perm[part])] for part in parts]

    # Negatives: the first n_edges distinct non-edges, u != v, in the stream
    # that scalar rng.integers(n) calls give. A chunk is the expected number of
    # draws for the `needed` ones (2 * free of the n * n ordered pairs hit one
    # of the `free` unchosen non-edges); rng is local, so extra draws are harmless.
    taken = _keys(edges, n)
    chosen = []
    needed, free = n_edges, max_non_edges
    while needed:
        uv = np.sort(rng.integers(n, size=(-(-needed * n * n // (2 * free)), 2)), axis=1)
        keys = _keys(uv, n)[uv[:, 0] != uv[:, 1]]
        keys = keys[~_member(keys, taken)]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)][:needed]
        chosen.append(keys)
        taken = np.sort(np.concatenate([taken, keys]))
        needed, free = needed - keys.size, free - keys.size
    neg_keys = np.concatenate(chosen)
    neg_parts = [_pairs(np.sort(neg_keys[part]), n) for part in parts]

    return LinkSplit(*pos_parts, *neg_parts)
