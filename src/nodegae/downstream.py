"""Stage-2 models trained on frozen node embeddings.

Three backbones (plain MLP, graph convolution, mean-aggregating message
passing) share one parameter store and training loop. A graph backbone builds
its sparse operator (graphstore's normalized or mean adjacency) once, or takes
one from ``graph_operator``. A forward plans each layer's node sets first
(``GnnModel.plan``: the rows it reads, its operator slice, sage's self-term
positions) and runs the layers over them, so it computes only the rows its
caller reads; a gcn or sage layer is one ``diffcore.graph_layer`` op and a
dropout one ``diffcore.dropout`` op. Node classification trains full batch
with cross-entropy; link prediction trains on minibatches of positive and
sampled negative pairs with a dot-product-plus-logistic scorer, or a small MLP
head that the model builds with its layers. Both trainers share one set-up,
one loop that keeps the best validation epoch's weights, and one scorer,
``score_splits``, which the CLI also uses for the test metric.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import (BinaryIO, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, ContractError, DimensionError
from .evalmetrics import accuracy, roc_auc
from .graphstore import LinkSplit, TextGraph, _unique, mean_adjacency, normalized_adjacency
from .textcorpus import build_vocab, replace_files, tokenize

__all__ = [
    "EmbeddingMatrix",
    "embeddings_file",
    "save_embeddings",
    "load_embeddings",
    "random_embeddings",
    "shallow_embeddings",
    "GnnModel",
    "DownstreamConfig",
    "train_node_classifier",
    "predict_links",
    "score_splits",
    "graph_operator",
    "train_link_predictor",
    "link_bce",
]

PROVENANCES = ("shallow-baseline", "nodegae", "random")
# Vocabulary budget of the shallow bag-of-words baseline, and the counts in
# each row block of its count matrix (16 MiB of float64).
SHALLOW_VOCAB = 2048
SHALLOW_BLOCK_CELLS = 1 << 21
# Rows per write of embeddings_file's writer; bounds the text it holds at once.
EMBEDDINGS_WRITE_ROWS = 1024


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Per-node features plus a tag recording where they came from, checked when
    built (2-d, finite, float64) and frozen."""

    matrix: np.ndarray
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.float64))
        if self.matrix.ndim != 2:
            raise ContractError(f"embeddings must be 2-d, got {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ContractError("embeddings contain NaN or Inf entries")
        if self.provenance not in PROVENANCES:
            raise ContractError(
                f"provenance must be one of {PROVENANCES}, got '{self.provenance}'")

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def embeddings_file(embeddings: EmbeddingMatrix, path
                    ) -> Tuple[Path, Callable[[BinaryIO], None]]:
    """The (path, writer) of an embeddings file, as textcorpus.replace_files takes them.

    Text format: a "rows dim provenance" header, then one row per line, each
    entry written as the repr of its float, every line ending in a newline.
    The writer formats and writes EMBEDDINGS_WRITE_ROWS rows at a time, so it
    never holds the whole text.
    """
    matrix = embeddings.matrix
    header = f"{embeddings.num_rows} {embeddings.dim} {embeddings.provenance}\n"

    def write(fh: BinaryIO) -> None:
        fh.write(header.encode("utf-8"))
        for start in range(0, matrix.shape[0], EMBEDDINGS_WRITE_ROWS):
            rows = matrix[start:start + EMBEDDINGS_WRITE_ROWS].tolist()
            fh.write("".join(" ".join(map(repr, row)) + "\n" for row in rows).encode("utf-8"))

    return Path(path), write


def save_embeddings(embeddings: EmbeddingMatrix, path) -> None:
    """Replace path with the embeddings_file text; a failed save leaves the old file."""
    replace_files([embeddings_file(embeddings, path)])


def load_embeddings(path) -> EmbeddingMatrix:
    """The embeddings of an embeddings_file text, each entry float() of its text; a
    malformed file raises ContractError naming its line.

    Each line is split only when it is parsed, and the text is read untranslated
    (splitlines splits CRLF itself), so the load holds the lines and the matrix only.
    """
    with open(path, encoding="utf-8", newline="") as f:
        text = f.read().splitlines()
    if not text:
        raise ContractError(f"{path}: empty embedding file")
    header = text[0].split()
    if len(header) != 3 or not all(h.isdecimal() for h in header[:2]):
        raise ContractError(f"{path}:1: header must be 'rows dim provenance', got '{text[0]}'")
    rows, dim, provenance = int(header[0]), int(header[1]), header[2]
    body = [i for i in range(1, len(text)) if text[i]]
    if len(body) != rows:
        raise ContractError(f"{path}: header promises {rows} rows, found {len(body)}")
    matrix = np.empty((rows, dim))
    for r, i in enumerate(body):
        entries = text[i].split()
        try:
            if len(entries) != dim:
                raise ValueError(f"header promises dim {dim}, row has {len(entries)} entries")
            matrix[r] = list(map(float, entries))
        except ValueError as exc:
            raise ContractError(f"{path}:{i + 1}: {exc}") from None
    return EmbeddingMatrix(matrix, provenance)


def random_embeddings(num_nodes: int, dim: int, seed: int = 0) -> EmbeddingMatrix:
    """Gaussian features; the uninformative control baseline."""
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rng.standard_normal((num_nodes, dim)), provenance="random")


def _shallow_row_blocks(n: int, vocab_size: int) -> List[Tuple[int, int]]:
    """(start, stop) of shallow_embeddings' row blocks: each of the fewest rows that
    hold SHALLOW_BLOCK_CELLS counts, and the last one also takes the rows short of
    a whole block. A graph of fewer rows is one block."""
    rows = -(-SHALLOW_BLOCK_CELLS // vocab_size)
    bounds = list(range(0, max(n - rows, 0) + 1, rows)) + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def shallow_embeddings(graph: TextGraph, dim: int, seed: int = 0) -> EmbeddingMatrix:
    """Word-count features squeezed to dim by a fixed random projection.

    Each node's document becomes a bag-of-words vector over the corpus
    vocabulary (at most SHALLOW_VOCAB tokens), L2-normalized, then projected
    with a seeded Gaussian map. The count vectors are built and projected a
    block of _shallow_row_blocks at a time, so at most one block is alive.
    A block is the whole graph or holds at least SHALLOW_BLOCK_CELLS counts,
    so from dim 2 on its GEMM does more than the 100^3 multiply-adds up to
    which OpenBLAS 0.3 runs a small-matrix kernel that sums in another order
    (numpy takes gemv for one row), and every output row is bit for bit the
    one a single product over all rows gives. numpy projects onto one column
    with gemv, whose rows sum in an order that depends on where they sit in
    the call: a width-1 map equals the product of each block, and the single
    product only to rounding.
    """
    vocab = build_vocab(graph.texts, max_size=SHALLOW_VOCAB)
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((vocab.size, dim)) / np.sqrt(vocab.size)
    n = graph.num_nodes
    out = np.empty((n, dim))
    for start, stop in _shallow_row_blocks(n, vocab.size):
        ids = [[vocab.id_for(tok) for tok in tokenize(text)] for text in graph.texts[start:stop]]
        owner = np.repeat(np.arange(stop - start), [len(doc) for doc in ids])
        cells = owner * vocab.size + np.array([i for doc in ids for i in doc], dtype=np.int64)
        counts = np.bincount(cells, weights=np.ones(cells.size),
                             minlength=(stop - start) * vocab.size).reshape(-1, vocab.size)
        norms = np.sqrt((counts ** 2).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        counts /= norms
        out[start:stop] = counts @ projection
    return EmbeddingMatrix(out, provenance="shallow-baseline")


# ---------------------------------------------------------------------------
# Backbones
# ---------------------------------------------------------------------------

BACKBONES = ("mlp", "gcn", "sage")


class LayerPlan(NamedTuple):
    """One forward layer's node sets: the ids of the rows it reads (None for all
    N), its operator in ids local to those rows (None for mlp), and the positions
    of sage's self term among them (None for all)."""

    inputs: Optional[np.ndarray]
    operator: object
    own: Optional[np.ndarray]


class GnnModel:
    """Stacked backbone layers with inverted dropout between them.

    Graph backbones hold their sparse propagation operator: the symmetric
    normalized adjacency for gcn, the neighbor-mean matrix for sage. An mlp
    link scorer holds its pair head as the scorer.* parameters.
    """

    def __init__(self, backbone: str, dims: List[int], dropout: float,
                 params: Dict[str, dc.DiffTensor], operator, link_scorer: str):
        self.backbone = backbone
        self.dims = dims
        self.dropout = dropout
        self.params = params
        self.operator = operator
        self.link_scorer = link_scorer

    @classmethod
    def build(cls, cfg: "DownstreamConfig", in_dim: int, out_dim: int, operator=None,
              rng: Optional[np.random.Generator] = None) -> "GnnModel":
        """A freshly initialized model of cfg; a graph backbone propagates
        with `operator`, which graph_operator builds.

        The layers draw from default_rng(cfg.seed), an mlp scorer's head from
        `rng` (the trainer's generator); its parameters come last.
        """
        if cfg.backbone != "mlp" and operator is None:
            raise ConfigError(f"the {cfg.backbone} backbone needs a graph operator")
        if cfg.link_scorer == "mlp" and rng is None:
            raise ContractError("an mlp link scorer draws its weights from an rng")
        dims = [in_dim] + [cfg.hidden_dim] * (cfg.num_layers - 1) + [out_dim]
        init = np.random.default_rng(cfg.seed)
        params: Dict[str, dc.DiffTensor] = {}
        for i in range(cfg.num_layers):
            shape = (dims[i], dims[i + 1])
            for name in ("self", "neigh") if cfg.backbone == "sage" else ("w",):
                params[f"l{i}.{name}"] = dc.parameter(init.normal(0.0, dims[i] ** -0.5, shape))
            if cfg.backbone == "mlp":
                params[f"l{i}.b"] = dc.parameter(np.zeros(dims[i + 1]))
        if cfg.link_scorer == "mlp":
            d2, hidden = 2 * out_dim, cfg.hidden_dim
            params["scorer.w1"] = dc.parameter(rng.normal(0.0, d2 ** -0.5, (d2, hidden)))
            params["scorer.b1"] = dc.parameter(np.zeros(hidden))
            params["scorer.w2"] = dc.parameter(rng.normal(0.0, hidden ** -0.5, (hidden, 1)))
            params["scorer.b2"] = dc.parameter(np.zeros(1))
        return cls(cfg.backbone, dims, cfg.dropout, params, operator, cfg.link_scorer)

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1

    def parameters(self) -> List[dc.DiffTensor]:
        return list(self.params.values())

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def restore(self, snap: Dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            p.data = snap[name].copy()

    def plan(self, num_nodes: int, rows=None) -> List[LayerPlan]:
        """Each layer's node sets in a forward over num_nodes feature rows that
        outputs `rows` (all nodes when None), which must be a 1-d array of
        integer ids in [0, num_nodes), else ContractError. mlp layers are
        row-local, so each reads `rows`. A gcn or sage layer reads all N nodes;
        the last writes only `rows`, through `operator[rows]`, and sage's self
        term takes them."""
        if rows is not None:
            rows = dc._row_ids("GnnModel.forward", rows, num_nodes)
            if rows.ndim != 1:
                raise ContractError(f"GnnModel.forward: rows must be 1-d, got shape {rows.shape}")
        if self.backbone == "mlp":
            return [LayerPlan(rows, None, None)] * self.num_layers
        whole = LayerPlan(None, self.operator, None)
        last = whole if rows is None else LayerPlan(
            None, self.operator[rows], rows if self.backbone == "sage" else None)
        return [whole] * (self.num_layers - 1) + [last]

    def forward(self, features: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None, rows=None) -> dc.DiffTensor:
        """Outputs (len(rows), out_dim) of the nodes `rows`, in that order, or
        (N, out_dim) of all nodes when rows is None; dropout only in train mode.

        The layers run over `plan(N, rows)`; the first takes its input rows
        of the features. Every layer but the last ends in relu. A gcn or sage
        layer is one `dc.graph_layer` op, and each dropout is one `dc.dropout`
        op (none is recorded on the constant features). Graph backbones need
        one feature row per graph node. Dropout masks are drawn at the full
        (N, width) shape and indexed by the layer's input rows, so the rng
        advances alike whatever `rows` is.
        """
        x = dc.constant(features)
        if x.shape[-1] != self.dims[0]:
            raise DimensionError(
                f"features have dim {x.shape[-1]}, model expects {self.dims[0]}")
        num_nodes, last = x.shape[0], self.num_layers - 1
        plan = self.plan(num_nodes, rows)
        if plan[0].inputs is not None:
            x = dc.constant(x.data[plan[0].inputs])
        p = self.params
        for i, layer in enumerate(plan):
            if train and self.dropout > 0.0:
                if rng is None:
                    raise ContractError("dropout in train mode needs an rng")
                keep = 1.0 - self.dropout
                mask = rng.random((num_nodes, self.dims[i])) < keep
                x = dc.dropout(x, mask if layer.inputs is None else mask[layer.inputs], keep)
            if layer.operator is None:
                x = dc.matmul(x, p[f"l{i}.w"], p[f"l{i}.b"])
                x = dc.relu(x) if i < last else x
            elif self.backbone == "gcn":
                x = dc.graph_layer(layer.operator, x, p[f"l{i}.w"], relu=i < last)
            else:
                x = dc.graph_layer(layer.operator, x, p[f"l{i}.neigh"], p[f"l{i}.self"],
                                   layer.own, relu=i < last)
        return x


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

LINK_SCORERS = ("dot", "mlp")


@dataclass(frozen=True)
class DownstreamConfig:
    """Stage-2 hyperparameters, checked when built; learning-rate defaults differ per task."""

    backbone: str = "mlp"
    hidden_dim: int = 64
    num_layers: int = 2
    dropout: float = 0.5
    lr: float = 1e-2
    epochs: int = 200
    patience: int = 50
    seed: int = 0
    batch_edges: int = 128
    log_every_iter: bool = False
    add_self_loops: bool = True
    link_scorer: str = "dot"

    @classmethod
    def for_node_classification(cls, **overrides) -> "DownstreamConfig":
        overrides.setdefault("lr", 1e-2)
        return cls(**overrides)

    @classmethod
    def for_link_prediction(cls, **overrides) -> "DownstreamConfig":
        overrides.setdefault("lr", 1e-4)
        return cls(**overrides)

    def __post_init__(self) -> None:
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}, got '{self.backbone}'")
        for name in ("hidden_dim", "num_layers", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_edges < 2:
            raise ConfigError(f"batch_edges must be >= 2, got {self.batch_edges}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.link_scorer not in LINK_SCORERS:
            raise ConfigError(
                f"link_scorer must be one of {LINK_SCORERS}, got '{self.link_scorer}'")


def _pair_logits(model: GnnModel, z: dc.DiffTensor, pairs: np.ndarray) -> dc.DiffTensor:
    """Pair logits as a (m, 1) tensor: dot products, or the mlp scorer's
    two-layer head on concatenated pairs, symmetrized over (u, v) order."""
    m, d = pairs.shape[0], z.shape[1]
    u = dc.embedding_lookup(z, pairs[:, 0])
    v = dc.embedding_lookup(z, pairs[:, 1])
    if model.link_scorer == "dot":
        dots = dc.matmul(dc.reshape(u, (m, 1, d)), dc.reshape(v, (m, d, 1)))
        return dc.reshape(dots, (m, 1))
    p = model.params

    def head(a, b):
        h = dc.relu(dc.matmul(dc.concat([a, b], axis=1), p["scorer.w1"], p["scorer.b1"]))
        return dc.matmul(h, p["scorer.w2"], p["scorer.b2"])

    return dc.mul(dc.add(head(u, v), head(v, u)), dc.constant(0.5))


def link_bce(model: GnnModel, z: dc.DiffTensor, pairs: np.ndarray,
             labels: np.ndarray) -> dc.DiffTensor:
    """Binary cross-entropy of the model's logistic pair scores against 0/1 labels."""
    s = _pair_logits(model, z, pairs)
    two_class = dc.concat([dc.constant(np.zeros(s.shape)), s], axis=1)
    return dc.cross_entropy_logits(two_class, np.asarray(labels, dtype=np.int64),
                                   reduction="mean")


def _endpoints(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct nodes of pairs, sorted, and the pairs as positions among them."""
    rows = _unique(pairs.ravel())
    return rows, np.searchsorted(rows, pairs)


def _link_scores(model: GnnModel, z: dc.DiffTensor, pairs: np.ndarray) -> np.ndarray:
    """logistic(pair logit) over node outputs z from an inference forward."""
    return 1.0 / (1.0 + np.exp(-_pair_logits(model, z, pairs).data[:, 0]))


def predict_links(model: GnnModel, embeddings: EmbeddingMatrix, pairs) -> np.ndarray:
    """Scores logistic(pair logit) in (0, 1), symmetric in (u, v). The forward
    checks the pair ids as it checks rows, raising ContractError."""
    rows, local = _endpoints(np.asarray(pairs).reshape(-1, 2))
    with dc.no_grad():
        return _link_scores(model, model.forward(embeddings.matrix, rows=rows), local)


def score_splits(model: GnnModel, embeddings: EmbeddingMatrix, graph: TextGraph,
                 split: Optional[LinkSplit] = None,
                 parts: Sequence[str] = ("val", "test")) -> Dict[str, float]:
    """Each part's score from one inference forward, keyed by part.

    The features are the EmbeddingMatrix's rows. Without a link split: the
    accuracy of the argmax class on graph's node split of that name, nan when
    it is empty. With one: ROC-AUC of _link_scores' logistic pair scores over
    the part's positives followed by its negatives. The forward computes only
    the nodes that some part reads.
    """
    if split is None:
        wanted = {part: graph.splits[part] for part in parts}
    else:
        wanted = {part: np.concatenate([split.positives(part), split.negatives(part)])
                  for part in parts}
    rows = _unique(np.concatenate([ids.ravel() for ids in wanted.values()]))
    scores = {}
    with dc.no_grad():
        z = model.forward(embeddings.matrix, train=False, rows=rows)
        for part, ids in wanted.items():
            local = np.searchsorted(rows, ids)
            if split is None:
                scores[part] = (accuracy(np.argmax(z.data[local], axis=1), graph.labels[ids])
                                if ids.size else float("nan"))
            else:
                num_pos = len(split.positives(part))
                scores[part] = roc_auc(_link_scores(model, z, local),
                                       np.repeat([1, 0], [num_pos, len(ids) - num_pos]))
    return scores


def graph_operator(cfg: DownstreamConfig, graph: TextGraph,
                   split: Optional[LinkSplit] = None):
    """The sparse operator of the model a trainer fits: the normalized
    adjacency for gcn, the neighbor mean for sage, None for mlp.

    The operator spans graph for node classification and only the train
    positives of split for link prediction. A caller that fits several
    models of one backbone on one graph builds it once and hands it to each
    trainer.
    """
    if cfg.backbone == "mlp":
        return None
    if split is not None:
        graph = split.train_message_graph(graph)
    if cfg.backbone == "gcn":
        return normalized_adjacency(graph, add_self_loops=cfg.add_self_loops)
    return mean_adjacency(graph)


def _fit_setup(embeddings: EmbeddingMatrix, graph: TextGraph, cfg: DownstreamConfig,
               split: Optional[LinkSplit] = None, operator=None
               ) -> Tuple[np.ndarray, GnnModel, dc.AdamState, np.random.Generator]:
    """The embeddings' matrix checked against graph, the training rng, the model, its optimizer.

    Without a link split the model classifies graph's (checked) node splits;
    with one it sees only the train positives, and an mlp scorer draws first.
    A graph backbone uses `operator`, or graph_operator's when it is None.
    """
    feats = embeddings.matrix
    if feats.shape[0] != graph.num_nodes:
        raise ConfigError(
            f"embeddings have {feats.shape[0]} rows for a {graph.num_nodes}-node graph")
    if split is None:
        if cfg.link_scorer != "dot":
            raise ConfigError("node classification scores no links; "
                              f"link_scorer must be 'dot', got '{cfg.link_scorer}'")
        if graph.splits["train"].size == 0:
            raise ConfigError("node classification needs a non-empty train split")
        for name in ("train", "val", "test"):
            if np.any(graph.labels[graph.splits[name]] < 0):
                raise ConfigError(f"{name} split contains unlabeled nodes")
        out_dim = int(graph.labels.max()) + 1
    else:
        out_dim = cfg.hidden_dim
    if operator is None:
        operator = graph_operator(cfg, graph, split)
    rng = np.random.default_rng(cfg.seed)
    model = GnnModel.build(cfg, feats.shape[1], out_dim, operator, rng)
    adam = dc.AdamState.for_params(model.parameters(), base_lr=cfg.lr, clip_norm=None)
    return feats, model, adam, rng


def _keep_best(model: GnnModel, cfg: DownstreamConfig, classes: int,
               epochs: Iterator[Tuple[float, float]]) -> None:
    """Run the epochs that yield (train loss, tracked score) until cfg.patience in a row
    miss the best score, then restore the weights of the best epoch. dc.check_loss checks
    each train loss over the `classes` the model ranks, naming the epoch and cfg.seed."""
    best, best_snap, stale, first = -np.inf, model.snapshot(), 0, None
    for epoch, (loss, score) in enumerate(epochs):
        first = loss if first is None else first
        dc.check_loss(f"epoch {epoch} of the fit of seed {cfg.seed}", loss, first, classes)
        if score > best:
            best, best_snap, stale = score, model.snapshot(), 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    model.restore(best_snap)


def train_node_classifier(embeddings: EmbeddingMatrix, graph: TextGraph, cfg: DownstreamConfig,
                          *, operator=None) -> Tuple[GnnModel, List[dict]]:
    """Full-batch cross-entropy on the train split, best-val weights kept.

    The features are the EmbeddingMatrix's rows, one per graph node. Log
    rows carry (epoch, train_loss, val_acc, test_acc). Training stops early
    when the validation accuracy has not improved for cfg.patience epochs;
    with an empty validation split the train loss is tracked instead. A
    caller that fits several models passes graph_operator's `operator`.
    """
    feats, model, adam, rng = _fit_setup(embeddings, graph, cfg, operator=operator)
    train_idx = graph.splits["train"]
    has_val = graph.splits["val"].size > 0
    log: List[dict] = []

    def epochs() -> Iterator[Tuple[float, float]]:
        for epoch in range(cfg.epochs):
            logits = model.forward(feats, train=True, rng=rng, rows=train_idx)
            loss = dc.cross_entropy_logits(logits, graph.labels[train_idx], reduction="mean")
            dc.backward(loss)
            dc.adam_step(model.parameters(), adam)
            acc = score_splits(model, embeddings, graph)
            train_loss = float(loss.item())
            log.append({"epoch": epoch, "train_loss": train_loss,
                        "val_acc": acc["val"], "test_acc": acc["test"]})
            yield train_loss, (acc["val"] if has_val else -train_loss)

    _keep_best(model, cfg, int(graph.labels.max()) + 1, epochs())
    return model, log


def train_link_predictor(embeddings: EmbeddingMatrix, graph: TextGraph, split: LinkSplit,
                         cfg: DownstreamConfig, *, operator=None
                         ) -> Tuple[GnnModel, List[dict]]:
    """Minibatch logistic link training over the train partition.

    The features are the EmbeddingMatrix's rows, one per graph node.
    Message-passing backbones see only the training-positive adjacency.
    Log rows are dicts (scope, index, split, metric, value); with
    cfg.log_every_iter every optimizer step adds a validation ROC-AUC row.
    The returned model carries the best-validation weights. A caller that
    fits several models passes graph_operator's `operator`.
    """
    feats, model, adam, rng = _fit_setup(embeddings, graph, cfg, split, operator)
    pairs = np.concatenate([split.train_pos, split.train_neg], axis=0)
    labels = np.repeat([1, 0], [len(split.train_pos), len(split.train_neg)])
    log: List[dict] = []

    def epochs() -> Iterator[Tuple[float, float]]:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            losses = []
            for start in range(0, len(order), cfg.batch_edges):
                batch = order[start : start + cfg.batch_edges]
                if batch.size < 2:
                    continue
                rows, local = _endpoints(pairs[batch])
                z = model.forward(feats, train=True, rng=rng, rows=rows)
                loss = link_bce(model, z, local, labels[batch])
                dc.backward(loss)
                dc.adam_step(model.parameters(), adam)
                losses.append(float(loss.item()))
                if cfg.log_every_iter:
                    auc = score_splits(model, embeddings, graph, split, ("val",))
                    log.append({"scope": "iter", "index": adam.step_count, "split": "val",
                                "metric": "roc_auc", "value": auc["val"]})
            auc = score_splits(model, embeddings, graph, split)
            train_loss = sum(losses) / max(1, len(losses))
            log.append({"scope": "epoch", "index": epoch, "split": "train",
                        "metric": "bce", "value": train_loss})
            for part in ("val", "test"):
                log.append({"scope": "epoch", "index": epoch, "split": part,
                            "metric": "roc_auc", "value": auc[part]})
            yield train_loss, auc["val"]

    _keep_best(model, cfg, 2, epochs())
    return model, log
