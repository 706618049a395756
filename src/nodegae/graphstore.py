"""Graph topology storage and the structural queries built on it.

The central type is TextGraph: an undirected graph in compressed sparse row
form whose nodes carry documents, optional labels, and named node splits.
On top of it live the exact-distance k-hop frontier of a node set (one
numpy gather, np.unique and visited mask per hop) used to draw contrastive
positives, the sparse propagation operators of the graph backbones (the
symmetric degree normalization for graph convolutions and the neighbor mean
for GraphSAGE), and the train/val/test edge-split construction for link
prediction.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ContractError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "TextGraph",
    "LinkSplit",
    "hop_frontier",
    "k_hop_neighbors",
    "sample_positive",
    "normalized_adjacency",
    "mean_adjacency",
    "build_link_split",
]


def _canonical_edges(num_nodes: int, edges: Iterable[Tuple[int, int]]):
    """Validate endpoints, drop self-loops, deduplicate as (min, max) pairs."""
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ContractError(
                f"edge ({u}, {v}) out of range for a {num_nodes}-node graph"
            )
        if u == v:
            continue
        canon.add((u, v) if u < v else (v, u))
    return sorted(canon)


@dataclass
class TextGraph:
    """Undirected textual graph: CSR adjacency plus per-node payload.

    indptr/indices store both directions of every edge with sorted neighbor
    lists, no self-loops, and no duplicates. labels uses -1 for unlabeled
    nodes. splits maps split names to sorted node-id arrays.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    texts: List[str]
    labels: np.ndarray
    splits: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        texts: Optional[List[str]] = None,
        labels=None,
        splits: Optional[Dict[str, Sequence[int]]] = None,
    ) -> "TextGraph":
        if num_nodes < 1:
            raise ContractError(f"graph needs at least one node, got {num_nodes}")
        canon = _canonical_edges(num_nodes, edges)
        if canon:
            pairs = np.asarray(canon, dtype=np.int64)
            src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        else:
            src = np.zeros(0, dtype=np.int64)
            dst = np.zeros(0, dtype=np.int64)
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
        split_arrs: Dict[str, np.ndarray] = {}
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

    def edge_set(self):
        """All undirected edges as a set of (u, v) tuples with u < v."""
        out = set()
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    out.add((u, int(v)))
        return out


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
        return graph.indices[graph.indptr[nodes[0]]:graph.indptr[nodes[0] + 1]]
    return np.unique(_gather_neighbors(graph, nodes))


def hop_frontier(graph: TextGraph, nodes, k: int) -> np.ndarray:
    """Sorted ids of the nodes at shortest-path distance exactly k from the set `nodes`.

    Each hop takes the frontier's neighbours (np.unique over its gathered CSR
    slices) and drops visited nodes with a boolean mask, so nodes closer
    than k, the set itself included, are never returned. k = 0 gives the
    set itself.
    """
    frontier = np.array(nodes, dtype=np.int64).reshape(-1)
    if frontier.size > 1:  # a single id is already sorted and unique
        frontier = np.unique(frontier)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[frontier] = True
    for _ in range(k):
        reached = _reach(graph, frontier)
        frontier = reached[~visited[reached]]
        if not frontier.size:
            break
        visited[frontier] = True
    return frontier


def _exact_hop(graph: TextGraph, node: int, k: int) -> np.ndarray:
    """hop_frontier of one node, after checking the node id and k >= 1."""
    if not (0 <= node < graph.num_nodes):
        raise IndexError(f"node {node} out of range for {graph.num_nodes} nodes")
    if k < 1:
        raise ContractError(f"hop distance must be >= 1, got {k}")
    return hop_frontier(graph, [node], k)


def k_hop_neighbors(graph: TextGraph, node: int, k: int) -> set:
    """Nodes at shortest-path distance exactly k from node.

    Closer nodes and the anchor itself are excluded, so the returned sets
    for different k never overlap.
    """
    return set(_exact_hop(graph, node, k).tolist())


def sample_positive(
    graph: TextGraph, node: int, k: int, rng: np.random.Generator
) -> Optional[int]:
    """Uniform draw from the exact-k-hop set; None when that set is empty."""
    candidates = _exact_hop(graph, node, k)
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

    Edge arrays have shape (m, 2) with canonical u < v rows. Negatives are
    uniform over non-edges of the full graph and distinct across all six
    arrays. The training message-passing graph must contain train positives
    only; train_message_graph builds it.
    """

    num_nodes: int
    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    train_neg: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray
    seed: int

    def positives(self, part: str) -> np.ndarray:
        return {"train": self.train_pos, "val": self.val_pos, "test": self.test_pos}[part]

    def negatives(self, part: str) -> np.ndarray:
        return {"train": self.train_neg, "val": self.val_neg, "test": self.test_neg}[part]

    def train_message_graph(self, graph: TextGraph) -> TextGraph:
        """Graph restricted to train positives, payload carried over."""
        return TextGraph.from_edges(
            graph.num_nodes,
            [tuple(row) for row in self.train_pos],
            texts=graph.texts,
            labels=graph.labels,
            splits=graph.splits,
        )

    def validate(self, graph: TextGraph) -> None:
        """Raise ContractError on any leakage or partition violation."""
        full = graph.edge_set()
        seen = set()
        for part in ("train", "val", "test"):
            pos = {(int(u), int(v)) for u, v in self.positives(part)}
            neg = {(int(u), int(v)) for u, v in self.negatives(part)}
            if len(pos) != self.positives(part).shape[0]:
                raise ContractError(f"{part} positives contain duplicates")
            if not pos <= full:
                raise ContractError(f"{part} positives are not edges of the graph")
            if neg & full:
                raise ContractError(f"{part} negatives collide with real edges")
            if len(neg) != self.negatives(part).shape[0]:
                raise ContractError(f"{part} negatives contain duplicates")
            if (pos | neg) & seen:
                raise ContractError(f"{part} overlaps another partition")
            seen |= pos | neg
        total_pos = sum(self.positives(p).shape[0] for p in ("train", "val", "test"))
        if total_pos != len(full):
            raise ContractError("positives do not partition the edge set")


def build_link_split(
    graph: TextGraph,
    ratios: Tuple[float, float, float] = (0.7, 0.2, 0.1),
    seed: int = 0,
) -> LinkSplit:
    """Partition edges by the given ratios and sample matched negatives."""
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError(f"ratios must be three non-negative numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {ratios}")
    edges = sorted(graph.edge_set())
    n_edges = len(edges)
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
    n_train = int(round(ratios[0] * n_edges))
    n_val = int(round(ratios[1] * n_edges))
    n_train = min(n_train, n_edges)
    n_val = min(n_val, n_edges - n_train)
    bounds = (n_train, n_train + n_val)

    edge_arr = np.asarray(edges, dtype=np.int64)
    pos_parts = [
        edge_arr[np.sort(perm[: bounds[0]])],
        edge_arr[np.sort(perm[bounds[0] : bounds[1]])],
        edge_arr[np.sort(perm[bounds[1] :])],
    ]

    full = set(edges)
    chosen = set()
    negatives = []
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
    neg_arr = np.asarray(negatives, dtype=np.int64)
    neg_parts = [
        neg_arr[: bounds[0]],
        neg_arr[bounds[0] : bounds[1]],
        neg_arr[bounds[1] :],
    ]
    neg_parts = [part[np.lexsort((part[:, 1], part[:, 0]))] for part in neg_parts]

    return LinkSplit(
        num_nodes=n,
        train_pos=pos_parts[0],
        val_pos=pos_parts[1],
        test_pos=pos_parts[2],
        train_neg=neg_parts[0],
        val_neg=neg_parts[1],
        test_neg=neg_parts[2],
        seed=seed,
    )
