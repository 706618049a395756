"""Tokenization, vocabulary building, synthetic graph generation, ingestion.

Text is tokenized at the word level (lowercased, punctuation-separated) and
mapped through a fixed-size vocabulary with four reserved ids. Desk-scale
experiments run on synthetic homophilous graphs whose documents are drawn
from class-specific keyword pools; real datasets load from a three-file
format (nodes, edges, splits) described next to the load/save functions.
"""

import os
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, ContractError, IngestionError
from .graphstore import NODE_SPLITS, TextGraph

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "BOS_ID",
    "EOS_ID",
    "Vocabulary",
    "tokenize",
    "build_vocab",
    "encode",
    "decode",
    "pad_sequences",
    "SyntheticGraphSpec",
    "generate_synthetic",
    "save_textgraph",
    "load_textgraph",
]

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

_TOKEN_RE = re.compile(r"\w+")
# Uniform draws held at once while sampling a synthetic graph's edges: whole
# rows of the n x n draw, at least one, in a float64 buffer of about 8 MiB.
EDGE_DRAW_BLOCK = 1 << 20


def tokenize(text: str) -> List[str]:
    """Lowercased word tokens; whitespace and punctuation are separators."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Dense token<->id mapping with ids 0..3 reserved for structure."""

    token_to_id: Dict[str, int]
    id_to_token: List[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_for(self, idx: int) -> str:
        return self.id_to_token[idx]

    @classmethod
    def from_tokens(cls, id_to_token: List[str]):
        """Rebuild a vocabulary from its id-ordered token list, which names each token once."""
        if (not isinstance(id_to_token, list) or id_to_token[:4] != list(RESERVED_TOKENS)
                or not all(isinstance(tok, str) for tok in id_to_token)):
            raise ContractError(
                "vocabulary must be a list of strings starting with the four reserved tokens")
        twice = sorted(tok for tok, n in Counter(id_to_token).items() if n > 1)
        if twice:
            raise ContractError(f"vocabulary lists {twice} more than once")
        return cls({tok: i for i, tok in enumerate(id_to_token) if i >= 4}, list(id_to_token))


def build_vocab(texts: Sequence[str], max_size: int = 2048) -> Vocabulary:
    """Keep the most frequent tokens, ties broken lexicographically."""
    if max_size < 5:
        raise ConfigError(f"max_size must leave room beyond reserved ids, got {max_size}")
    if len(texts) == 0:
        raise ConfigError("vocabulary needs at least one document")
    counts = Counter()
    for text in texts:
        counts.update(tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_tokens(list(RESERVED_TOKENS) + [tok for tok, _ in ranked[:max_size - 4]])


def encode(text: str, vocab: Vocabulary, max_len: int = 64) -> np.ndarray:
    """Token ids for text, truncated to max_len - 1 and terminated with EOS."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.id_for(tok) for tok in tokenize(text)][: max_len - 1]
    ids.append(EOS_ID)
    return np.asarray(ids, dtype=np.int64)


def decode(ids, vocab: Vocabulary) -> List[str]:
    """Tokens for ids, dropping PAD/BOS/EOS; unknown ids stay visible."""
    structural = (PAD_ID, BOS_ID, EOS_ID)
    return [vocab.token_for(int(i)) for i in ids if int(i) not in structural]


def pad_sequences(seqs: Sequence[np.ndarray]) -> np.ndarray:
    """Stack variable-length id sequences into a PAD-filled (N, longest) matrix."""
    if len(seqs) == 0:
        raise ContractError("pad_sequences needs at least one sequence")
    out = np.full((len(seqs), max(len(s) for s in seqs)), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


@dataclass(frozen=True)
class SyntheticGraphSpec:
    """Recipe for a homophilous textual graph with keyword-themed documents.

    Each node joins one class; its document mixes tokens from the class
    keyword pool and a shared pool at class_token_fraction. Edges appear
    independently with the intra- or inter-class probability. A spec is
    checked when built (ConfigError) and frozen.
    """

    num_nodes: int = 512
    num_classes: int = 6
    keywords_per_class: int = 20
    doc_length: Tuple[int, int] = (8, 16)
    intra_class_edge_prob: float = 0.05
    inter_class_edge_prob: float = 0.005
    class_token_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_nodes", "num_classes", "keywords_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        lo, hi = self.doc_length
        if not (1 <= lo <= hi):
            raise ConfigError(f"doc_length range must satisfy 1 <= lo <= hi, got {self.doc_length}")
        for name in ("intra_class_edge_prob", "inter_class_edge_prob", "class_token_fraction"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.intra_class_edge_prob < self.inter_class_edge_prob:
            raise ConfigError(
                "intra_class_edge_prob must be >= inter_class_edge_prob "
                f"({self.intra_class_edge_prob} < {self.inter_class_edge_prob})"
            )


def _draw_edges(rng: np.random.Generator, labels: np.ndarray, intra: float,
                inter: float) -> np.ndarray:
    """(m, 2) pairs u < v whose uniform draw falls below their class-pair probability.

    The draws are one row-major (n, n) stream taken EDGE_DRAW_BLOCK entries at
    a time, so rng ends where a single rng.random((n, n)) would leave it and
    the edges come out in the same row-major order, in O(block) memory.
    """
    n = labels.size
    rows = max(1, EDGE_DRAW_BLOCK // n)
    buf = np.empty((min(rows, n), n))
    cut = max(intra, inter)
    pairs = []
    for start in range(0, n, rows):
        block = buf[: min(rows, n - start)]
        rng.random(out=block)
        hits = np.flatnonzero(block < cut)  # row-major; far faster than a 2-D nonzero
        u, v = np.divmod(hits, n)
        u += start
        upper = v > u
        hits, u, v = hits[upper], u[upper], v[upper]
        keep = block.reshape(-1)[hits] < np.where(labels[u] == labels[v], intra, inter)
        pairs.append(np.stack([u[keep], v[keep]], axis=1))
    return np.concatenate(pairs)


def generate_synthetic(spec: SyntheticGraphSpec) -> TextGraph:
    """Sample a labeled textual graph plus a 54/18/28 node split."""
    rng = np.random.default_rng(spec.seed)
    n, n_classes = spec.num_nodes, spec.num_classes

    labels = rng.integers(0, n_classes, size=n)
    class_pools = [
        [f"k{c}w{i}" for i in range(spec.keywords_per_class)] for c in range(n_classes)
    ]
    shared_pool = [f"shared{i}" for i in range(spec.keywords_per_class)]

    lo, hi = spec.doc_length
    texts = []
    for v in range(n):
        length = int(rng.integers(lo, hi + 1))
        from_class = rng.random(length) < spec.class_token_fraction
        picks = rng.integers(0, spec.keywords_per_class, size=length)
        pool = class_pools[labels[v]]
        words = [
            pool[picks[j]] if from_class[j] else shared_pool[picks[j]]
            for j in range(length)
        ]
        texts.append(" ".join(words))

    edges = _draw_edges(rng, labels, spec.intra_class_edge_prob, spec.inter_class_edge_prob)

    perm = rng.permutation(n)
    n_train = int(round(0.54 * n))
    n_val = int(round(0.18 * n))
    splits = {
        "train": perm[:n_train],
        "val": perm[n_train : n_train + n_val],
        "test": perm[n_train + n_val :],
    }
    return TextGraph.from_edges(n, edges, texts=texts, labels=labels, splits=splits)


# ---------------------------------------------------------------------------
# Three-file dataset format.
#
# nodes file:  node_id <TAB> label <TAB> text   (label -1 when unlabeled;
#              tabs, line feeds, carriage returns, and backslashes in text
#              are escaped as \t, \n, \r, and \\ so each record stays on
#              one line; a record ends at \n, \r\n or \r and nowhere else)
# edges file:  src <TAB> dst, one pair per line
# splits file: three lines "train:", "val:", "test:", each followed by
#              comma-separated node ids
# ---------------------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {code[1]: ch for ch, code in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_ESCAPED = re.compile(r"\\([\\tnr])")


def _escape_text(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def _unescape_text(text: str) -> str:
    return _ESCAPED.sub(lambda m: _UNESCAPES[m.group(1)], text)


def replace_files(contents: Sequence[Tuple[Path, Union[str, Callable[[BinaryIO], object]]]]
                  ) -> None:
    """Write each content to a temp file beside its path, then rename all over their paths.

    A content is a text, written as UTF-8, or a function that writes the
    file's bytes to the open binary file it is given. No path changes until
    every content is written, so a failed write leaves the old files as they
    were; its temp files are removed.
    """
    temps: List[Path] = []
    try:
        for i, (path, content) in enumerate(contents):
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.{i}.tmp"))
            with open(temps[-1], "wb") as fh:
                if isinstance(content, str):
                    fh.write(content.encode("utf-8"))
                else:
                    content(fh)
        for (path, _), temp in zip(contents, temps):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def save_textgraph(graph: TextGraph, nodes_path, edges_path, splits_path) -> None:
    """Serialize a TextGraph into the three-file dataset format.

    The files are replaced only once all three are written, so an
    interrupted save leaves the previous dataset loadable.
    """
    nodes_lines = [
        f"{v}\t{int(graph.labels[v])}\t{_escape_text(graph.texts[v])}"
        for v in range(graph.num_nodes)
    ]
    edge_lines = [f"{u}\t{v}" for u, v in graph.edges().tolist()]
    split_lines = []
    for name in NODE_SPLITS:
        joined = ",".join(str(int(i)) for i in graph.splits[name])
        split_lines.append(f"{name}: {joined}" if joined else f"{name}:")
    replace_files([
        (Path(nodes_path), "\n".join(nodes_lines) + "\n"),
        (Path(edges_path), "\n".join(edge_lines) + ("\n" if edge_lines else "")),
        (Path(splits_path), "\n".join(split_lines) + "\n"),
    ])


def load_textgraph(nodes_path, edges_path, splits_path) -> TextGraph:
    """Parse and validate the three-file dataset format.

    Node ids must be dense 0..n-1; edges deduplicate as undirected pairs;
    splits must be disjoint, and a split without a line is empty, as in every
    TextGraph. Violations raise IngestionError, with the file and line number
    whenever the problem is local to a line.
    """
    nodes_path, edges_path, splits_path = Path(nodes_path), Path(edges_path), Path(splits_path)

    records = {}
    # read_text turns \r\n and \r into \n. str.splitlines would also break a
    # record at characters such as \x0c or \u2028 that the text keeps verbatim.
    for lineno, line in enumerate(nodes_path.read_text(encoding="utf-8").split("\n"), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise IngestionError(
                f"{nodes_path} line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        try:
            node_id = int(fields[0])
            label = int(fields[1])
        except ValueError:
            raise IngestionError(f"{nodes_path} line {lineno}: non-integer id or label")
        if node_id in records:
            raise IngestionError(f"{nodes_path} line {lineno}: duplicate node id {node_id}")
        records[node_id] = (label, _unescape_text(fields[2]))
    n = len(records)
    if n == 0:
        raise IngestionError(f"{nodes_path}: no node records found")
    if sorted(records) != list(range(n)):
        missing = sorted(set(range(n)) - set(records))[:5]
        raise IngestionError(
            f"{nodes_path}: node ids must be dense 0..{n - 1}; first gaps at {missing}"
        )
    labels = np.asarray([records[v][0] for v in range(n)], dtype=np.int64)
    texts = [records[v][1] for v in range(n)]

    edges = []
    for lineno, line in enumerate(edges_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise IngestionError(f"{edges_path} line {lineno}: expected 'src<TAB>dst'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise IngestionError(f"{edges_path} line {lineno}: non-integer endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise IngestionError(
                f"{edges_path} line {lineno}: edge ({u}, {v}) references a missing node"
            )
        edges += (u, v)

    splits: Dict[str, List[int]] = {}
    claimed: Dict[int, str] = {}
    for lineno, line in enumerate(splits_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        name, _, rest = line.partition(":")
        name = name.strip()
        if name not in NODE_SPLITS:
            raise IngestionError(f"{splits_path} line {lineno}: unknown split '{name}'")
        if name in splits:
            raise IngestionError(f"{splits_path} line {lineno}: duplicate split '{name}'")
        ids = []
        for chunk in rest.strip().split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                node_id = int(chunk)
            except ValueError:
                raise IngestionError(f"{splits_path} line {lineno}: non-integer node id '{chunk}'")
            if not (0 <= node_id < n):
                raise IngestionError(f"{splits_path} line {lineno}: node id {node_id} out of range")
            if node_id in claimed:
                raise IngestionError(
                    f"{splits_path} line {lineno}: node {node_id} already in split "
                    f"'{claimed[node_id]}'"
                )
            claimed[node_id] = name
            ids.append(node_id)
        splits[name] = ids

    return TextGraph.from_edges(n, np.reshape(edges, (-1, 2)), texts=texts, labels=labels,
                                splits=splits)
