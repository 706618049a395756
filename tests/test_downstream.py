"""Tests for frozen-embedding models: graph layers, scorers, training loops."""

import io
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodegae import diffcore as dc
from nodegae import downstream as ds
from nodegae import graphstore as gs
from nodegae.errors import ConfigError, ContractError, DimensionError, NodeGaeError
from nodegae.evalmetrics import accuracy, roc_auc
from nodegae.textcorpus import SyntheticGraphSpec, build_vocab, generate_synthetic, tokenize

from reference_tape import chain_dropout, chain_graph_layer


def graph_from(num_nodes, edges, labels=None, splits=None):
    return gs.TextGraph.from_edges(num_nodes, edges,
                                   texts=[f"doc {v}" for v in range(num_nodes)],
                                   labels=labels, splits=splits)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def gcn_oracle(h, a_hat, w, activate):
    out = a_hat @ h @ w
    return np.maximum(out, 0.0) if activate else out


def sage_oracle(h, graph, w_self, w_neigh, activate):
    out = np.empty((graph.num_nodes, w_self.shape[1]))
    for v in range(graph.num_nodes):
        nbrs = graph.neighbors(v)
        neigh = h[nbrs].mean(axis=0) if nbrs.size else np.zeros(h.shape[1])
        out[v] = h[v] @ w_self + neigh @ w_neigh
    return np.maximum(out, 0.0) if activate else out


def logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# embedding containers
# ---------------------------------------------------------------------------

def test_embedding_matrix_validation():
    with pytest.raises(ContractError):
        ds.EmbeddingMatrix(np.zeros(4), provenance="random")
    with pytest.raises(ContractError):
        ds.EmbeddingMatrix(np.array([[np.nan, 0.0]]), provenance="random")
    with pytest.raises(ContractError):
        ds.EmbeddingMatrix(np.zeros((2, 2)), provenance="torch")
    emb = ds.EmbeddingMatrix(np.zeros((3, 2), dtype=np.float32), provenance="nodegae")
    assert emb.matrix.dtype == np.float64
    assert emb.num_rows == 3 and emb.dim == 2
    emb = ds.random_embeddings(30, 4)
    with pytest.raises(FrozenInstanceError):  # an assignment would skip the checks above
        emb.matrix = np.full((30, 4), np.nan)


def test_embeddings_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    emb = ds.EmbeddingMatrix(rng.standard_normal((7, 5)), provenance="shallow-baseline")
    path = tmp_path / "emb.txt"
    ds.save_embeddings(emb, path)
    back = ds.load_embeddings(path)
    assert back.provenance == emb.provenance
    assert np.array_equal(back.matrix, emb.matrix)


def test_failed_embedding_save_leaves_the_old_file_and_no_temp_files(tmp_path, disk_full):
    rng = np.random.default_rng(1)
    old = ds.EmbeddingMatrix(rng.standard_normal((20, 4)), provenance="random")
    path = tmp_path / "emb.txt"
    ds.save_embeddings(old, path)
    before = path.read_bytes()
    disk_full(".emb.txt.", len(before) // 2)
    with pytest.raises(OSError, match="No space left"):
        ds.save_embeddings(ds.EmbeddingMatrix(rng.standard_normal((20, 4)), "random"), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]
    np.testing.assert_array_equal(ds.load_embeddings(path).matrix, old.matrix)


def test_load_embeddings_rejects_row_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2 random\n1.0 2.0\n3.0 4.0\n", encoding="utf-8")
    with pytest.raises(ContractError):
        ds.load_embeddings(path)


# One malformed file per way a row or the header can fail to parse, with the
# line the error must name and a fragment of its message.
MALFORMED_EMBEDDINGS = [
    pytest.param("2 2 random\n1.0 2.0\nnanx 4.0\n", ":3:", "nanx", id="non-numeric-entry"),
    pytest.param("x 2 random\n1.0 2.0\n3.0 4.0\n", ":1:", "rows dim provenance",
                 id="non-integer-header"),
    pytest.param("2 2 random\n1.0 2.0\n3.0\n", ":3:", "dim 2", id="ragged-row"),
]


@pytest.mark.parametrize("text, line, fragment", MALFORMED_EMBEDDINGS)
def test_load_embeddings_names_the_malformed_line(tmp_path, text, line, fragment):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ContractError) as info:
        ds.load_embeddings(path)
    assert f"emb.txt{line}" in str(info.value) and fragment in str(info.value)


def reference_embeddings_text(matrix, provenance):
    """The embeddings file text written one float at a time, the format's definition."""
    lines = [f"{matrix.shape[0]} {matrix.shape[1]} {provenance}"]
    for row in matrix:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def reference_load(path):
    """(matrix bytes, provenance) of an embeddings file parsed one float() per entry,
    or the (type, message) of the error it raises."""
    try:
        text = Path(path).read_text(encoding="utf-8").splitlines()
        if not text:
            raise ContractError(f"{path}: empty embedding file")
        header = text[0].split()
        if len(header) != 3 or not all(h.isdecimal() for h in header[:2]):
            raise ContractError(
                f"{path}:1: header must be 'rows dim provenance', got '{text[0]}'")
        rows, dim = int(header[0]), int(header[1])
        body = [(i, line.split()) for i, line in enumerate(text[1:], start=2) if line]
        if len(body) != rows:
            raise ContractError(f"{path}: header promises {rows} rows, found {len(body)}")
        matrix = np.empty((rows, dim))
        for r, (lineno, entries) in enumerate(body):
            try:
                if len(entries) != dim:
                    raise ValueError(
                        f"header promises dim {dim}, row has {len(entries)} entries")
                matrix[r] = [float(x) for x in entries]
            except ValueError as exc:
                raise ContractError(f"{path}:{lineno}: {exc}") from None
        emb = ds.EmbeddingMatrix(matrix, header[2])
    except Exception as exc:
        return type(exc), str(exc)
    return emb.matrix.tobytes(), emb.provenance


def loaded(path):
    """load_embeddings(path) in reference_load's terms."""
    try:
        emb = ds.load_embeddings(path)
    except Exception as exc:
        return type(exc), str(exc)
    return emb.matrix.tobytes(), emb.provenance


# Signed zeros, the smallest and largest subnormals and normals, integral values
# (some past 2**53 and 1e16, where repr switches to an exponent) and short decimals.
HARD_FLOATS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
                        2.2250738585072014e-308, -1.7976931348623157e308,
                        1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 2.0 ** 53 + 2,
                        1e16, -1e22, 123456789.0, 0.1, -1e-05, 0.0001, 1e-07, 1e300])


def hard_rows(seed, rows, dim):
    """Random rows over every exponent, salted with HARD_FLOATS."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-320, 300, (rows, dim))
    salt = rng.random((rows, dim)) < 0.3
    matrix[salt] = rng.choice(HARD_FLOATS, int(salt.sum()))
    return np.where(np.isfinite(matrix), matrix, 1.5)


@pytest.mark.parametrize("seed, rows, dim",
                         [(0, 1, 1), (1, 40, 7), (2, 300, 64), (3, 5, 200), (4, 20, 1)])
def test_embeddings_file_and_load_equal_the_per_float_format(tmp_path, monkeypatch, seed, rows,
                                                             dim):
    matrix = hard_rows(seed, rows, dim)
    emb = ds.EmbeddingMatrix(matrix, provenance="nodegae")
    path, write = ds.embeddings_file(emb, tmp_path / "emb.txt")
    text = reference_embeddings_text(matrix, "nodegae").encode("utf-8")
    assert written(write) == text
    monkeypatch.setattr(ds, "EMBEDDINGS_WRITE_ROWS", 7)  # chunks with a short last one
    assert written(write) == text
    ds.save_embeddings(emb, path)
    assert path.read_bytes() == text
    assert loaded(path) == reference_load(path) == (matrix.tobytes(), "nodegae")


def written(write):
    """The bytes an embeddings_file writer writes."""
    buffer = io.BytesIO()
    write(buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("rows, dim", [(0, 3), (3, 0), (1024, 2), (1025, 2), (2049, 1)])
def test_embeddings_file_writes_whole_and_partial_chunks_as_the_per_float_format(rows, dim):
    matrix = hard_rows(rows, rows, dim)
    _, write = ds.embeddings_file(ds.EmbeddingMatrix(matrix, "random"), "unused.txt")
    assert written(write) == reference_embeddings_text(matrix, "random").encode("utf-8")


class _CountingSink:
    """A binary file that keeps only the number of bytes written to it."""

    size = 0

    def write(self, data):
        self.size += len(data)
        return len(data)


def test_embeddings_file_never_holds_the_whole_text():
    matrix = np.random.default_rng(5).standard_normal((20000, 64))
    _, write = ds.embeddings_file(ds.EmbeddingMatrix(matrix, "random"), "unused.txt")
    sink = _CountingSink()
    _, peak = traced_peak(lambda: write(sink))
    assert sink.size > 20e6  # about 19 characters per entry
    assert peak < sink.size / 4


def traced_peak(call):
    """(call's result, the most bytes tracemalloc saw allocated during the call)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def test_load_embeddings_never_holds_every_line_split(tmp_path):
    """A CRLF file loads to the LF file's matrix bit for bit, peaking under 4x its
    size: each line is split only when it is parsed. Its line ends are not
    translated either, so it peaks within 1.2x of the LF file's load."""
    matrix = np.random.default_rng(6).standard_normal((20000, 64))
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    ds.save_embeddings(ds.EmbeddingMatrix(matrix, "random"), lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    emb, peak = traced_peak(lambda: ds.load_embeddings(crlf))
    lf_emb, lf_peak = traced_peak(lambda: ds.load_embeddings(lf))
    assert emb.matrix.tobytes() == lf_emb.matrix.tobytes() == matrix.tobytes()
    assert peak < 4 * crlf.stat().st_size
    assert peak < 1.2 * lf_peak


# Files load_embeddings must read as reference_load does: odd whitespace and line
# ends, entries float() reads but the writer never writes, and each way a header,
# a row count or a row can be wrong.
ODD_EMBEDDING_FILES = {
    "crlf": "2 2 random\r\n1.0 2.0\r\n3.0 4.0\r\n",
    "blank-lines-trailing-spaces": "2 2 random\n\n1.0 2.0  \n\n3.0  4.0\n\n",
    "tabs-leading-spaces": "2 2 random\n1.0\t2.0\n 3.0 4.0\n",
    "no-final-newline": "2 2 random\n1.0 2.0\n3.0 4.0",
    "signs-and-exponents": "2 2 random\n+1E5 -.5\n3. 4\n",
    "underscores": "2 2 random\n1_0 2.0\n3.0 4.0\n",
    "line-of-spaces": "2 2 random\n1.0 2.0\n   \n3.0 4.0\n",
    "vertical-tab": "2 2 random\n1.0 2.0\x0b3.0 4.0\n",
    "header-line-break": "2 2\x0crandom\n1.0 2.0\n3.0 4.0\n",
    "unicode-header-digit": "\u0662 2 random\n1.0 2.0\n3.0 4.0\n",
    "extra-row": "1 2 random\n1.0 2.0\n3.0 4.0\n",
    "missing-row": "3 2 random\n1.0 2.0\n3.0 4.0\n",
    "ragged": "2 2 random\n1.0 2.0\n3.0 4.0 5.0\n",
    "bad-token": "2 2 random\n1.0 2.0\n3.0 4e\n",
    "dashes": "2 2 random\n1.0 2.0\n3.0 1-2\n",
    "nan": "1 2 random\n1.0 nan\n",
    "overflow": "1 2 random\n1.0 1e999\n",
    "unknown-provenance": "1 2 torch\n1.0 2.0\n",
    "empty": "",
    "header-only": "2 2 random\n",
    "zero-rows": "0 3 random\n",
    "zero-dim": "2 0 random\n \n  \n",
    "four-header-fields": "1 2 rand om\n1.0 2.0\n",
}


@pytest.mark.parametrize("text", ODD_EMBEDDING_FILES.values(), ids=ODD_EMBEDDING_FILES.keys())
def test_load_embeddings_reads_any_file_as_the_per_line_parse(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_bytes(text.encode("utf-8"))
    assert loaded(path) == reference_load(path)


@settings(max_examples=300)
@given(rows=st.lists(st.lists(st.text("0123456789+-.eE", min_size=1, max_size=6),
                              min_size=2, max_size=2), min_size=1, max_size=3))
def test_load_embeddings_reads_any_plain_token_as_float_does(tmp_path_factory, rows):
    """Entries from the bytes the writer writes, valid floats or not: each file
    loads to the same matrix, or fails with the same error, as reference_load."""
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_text(f"{len(rows)} 2 random\n" + "".join(" ".join(r) + "\n" for r in rows),
                    encoding="utf-8")
    assert loaded(path) == reference_load(path)


def test_random_embeddings_deterministic():
    a = ds.random_embeddings(6, 4, seed=3)
    b = ds.random_embeddings(6, 4, seed=3)
    assert a.provenance == "random"
    assert a.matrix.shape == (6, 4)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, ds.random_embeddings(6, 4, seed=4).matrix)


def test_shallow_embeddings_reflect_text():
    graph = gs.TextGraph.from_edges(
        4, [(0, 1)], texts=["apple banana", "apple banana", "cherry", ""],
    )
    emb = ds.shallow_embeddings(graph, dim=6, seed=0)
    assert emb.provenance == "shallow-baseline"
    assert emb.matrix.shape == (4, 6)
    assert np.all(np.isfinite(emb.matrix))
    assert np.array_equal(emb.matrix[0], emb.matrix[1])
    assert not np.array_equal(emb.matrix[0], emb.matrix[2])
    assert np.array_equal(emb.matrix[3], np.zeros(6))
    again = ds.shallow_embeddings(graph, dim=6, seed=0)
    assert np.array_equal(emb.matrix, again.matrix)


def dense_shallow_embeddings(graph, dim, seed=0, blocks=None):
    """shallow_embeddings as one dense (N, V) count matrix, filled one token at a time,
    and one GEMM over all N rows, or one per (start, stop) row block of `blocks`: the
    oracle of the row-block bincount."""
    vocab = build_vocab(graph.texts, max_size=ds.SHALLOW_VOCAB)
    counts = np.zeros((graph.num_nodes, vocab.size), dtype=np.float64)
    for v, text in enumerate(graph.texts):
        for tok in tokenize(text):
            counts[v, vocab.id_for(tok)] += 1.0
    norms = np.sqrt((counts ** 2).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    counts /= norms
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((vocab.size, dim)) / np.sqrt(vocab.size)
    if blocks is None:
        return counts @ projection
    return np.concatenate([counts[start:stop] @ projection for start, stop in blocks])


@pytest.mark.parametrize("dim", [1, 2, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 513, 1024, 1025, 2049, 3000, 4096])
def test_shallow_embeddings_equal_the_dense_count_oracle_bit_for_bit(n, dim):
    # 3000 words: larger corpora fill SHALLOW_VOCAB, so some tokens map to UNK.
    # Some documents are empty, and some repeat a word. A block holds 1024
    # rows of the 2048-wide vocabulary, so from 2048 nodes on a graph runs
    # several blocks, the last one 1024 to 2047 rows long. A width-1 map is a
    # gemv, whose rows depend on the block they sit in: it equals the oracle
    # projected per block, and the single product to rounding.
    rng = np.random.default_rng(n)
    texts = [" ".join(f"w{i}" for i in rng.integers(0, 3000, size=rng.integers(0, 12)))
             for _ in range(n)]
    graph = gs.TextGraph.from_edges(n, np.zeros((0, 2), dtype=np.int64), texts=texts)
    got = ds.shallow_embeddings(graph, dim=dim, seed=3).matrix
    whole = dense_shallow_embeddings(graph, dim=dim, seed=3)
    if dim > 1:
        assert got.tobytes() == whole.tobytes()
        return
    vocab_size = build_vocab(graph.texts, max_size=ds.SHALLOW_VOCAB).size
    blocks = ds._shallow_row_blocks(n, vocab_size)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    per_block = dense_shallow_embeddings(graph, dim=1, seed=3, blocks=blocks)
    assert got.tobytes() == per_block.tobytes()
    np.testing.assert_allclose(got, whole, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n,vocab_size,rows", [(0, 7, [(0, 0)]), (5, 2048, [(0, 5)]),
                                               (2047, 2048, [(0, 2047)]),
                                               (2048, 2048, [(0, 1024), (1024, 2048)]),
                                               (3071, 2048, [(0, 1024), (1024, 3071)])])
def test_shallow_row_blocks_hold_a_whole_block_of_counts(n, vocab_size, rows):
    assert ds._shallow_row_blocks(n, vocab_size) == rows


# ---------------------------------------------------------------------------
# graph layers, through GnnModel.forward
# ---------------------------------------------------------------------------

def operator_of(backbone, graph, add_self_loops=True):
    cfg = ds.DownstreamConfig(backbone=backbone, add_self_loops=add_self_loops)
    return ds.graph_operator(cfg, graph)


def graph_model(backbone, graph, layers, add_self_loops=True):
    """A dropout-free model whose layer weights are set to the given arrays.

    layers holds one weight matrix per gcn layer, or one (w_self, w_neigh)
    pair per sage layer.
    """
    first = layers[0] if backbone == "gcn" else layers[0][0]
    last = layers[-1] if backbone == "gcn" else layers[-1][0]
    cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=first.shape[1],
                              num_layers=len(layers), dropout=0.0)
    model = ds.GnnModel.build(cfg, first.shape[0], last.shape[1],
                              operator_of(backbone, graph, add_self_loops))
    for i, weights in enumerate(layers):
        if backbone == "gcn":
            model.params[f"l{i}.w"].data = weights
        else:
            model.params[f"l{i}.self"].data, model.params[f"l{i}.neigh"].data = weights
    return model


def test_gcn_layer_identity_adjacency_is_dense_layer():
    # Without edges, self-loops make the normalized adjacency the identity.
    rng = np.random.default_rng(0)
    h = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 4))
    out = graph_model("gcn", graph_from(5, []), [w]).forward(h).data
    assert np.array_equal(out, h @ w)


def test_gcn_layer_two_node_edge_swaps_rows():
    graph = graph_from(2, [(0, 1)])
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = graph_model("gcn", graph, [np.eye(2)], add_self_loops=False)
    assert np.array_equal(model.forward(h).data, h[::-1])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("activate", [True, False])
def test_gcn_layer_matches_dense_oracle(seed, activate):
    """One layer against the oracle; with activate, a relu layer feeding a second."""
    rng = np.random.default_rng(seed)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
    graph = graph_from(5, edges)
    a_hat = gs.normalized_adjacency(graph, add_self_loops=True).toarray()
    h = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))
    if activate:
        w2 = rng.standard_normal((3, 2))
        got = graph_model("gcn", graph, [w, w2]).forward(h).data
        want = gcn_oracle(gcn_oracle(h, a_hat, w, True), a_hat, w2, False)
    else:
        got = graph_model("gcn", graph, [w]).forward(h).data
        want = gcn_oracle(h, a_hat, w, False)
    assert np.max(np.abs(got - want)) < 1e-12


def test_gcn_layer_dimension_mismatch():
    model = graph_model("gcn", graph_from(3, [(0, 1)]), [np.zeros((4, 2))])
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 5)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((4, 4)))  # one row more than the graph has nodes


def test_sage_layer_isolated_node_uses_self_only():
    graph = graph_from(3, [(0, 1)])  # node 2 isolated
    rng = np.random.default_rng(1)
    h = rng.standard_normal((3, 4))
    w_self = rng.standard_normal((4, 2))
    w_neigh = rng.standard_normal((4, 2))
    out = graph_model("sage", graph, [(w_self, w_neigh)]).forward(h).data
    assert np.max(np.abs(out[2] - h[2] @ w_self)) < 1e-12


def test_sage_layer_regular_graph_identical_features():
    graph = graph_from(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 2-regular cycle
    h = np.tile(np.array([1.0, -2.0, 0.5]), (4, 1))
    rng = np.random.default_rng(2)
    w_self = rng.standard_normal((3, 3))
    w_neigh = rng.standard_normal((3, 3))
    out = graph_model("sage", graph, [(w_self, w_neigh)] * 2).forward(h).data
    for v in range(1, 4):
        assert np.array_equal(out[v], out[0])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("activate", [True, False])
def test_sage_layer_matches_per_node_oracle(seed, activate):
    """One layer against the oracle; with activate, a relu layer feeding a second."""
    rng = np.random.default_rng(10 + seed)
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (2, 3)]
    graph = graph_from(6, edges)
    h = rng.standard_normal((6, 5))
    w_self = rng.standard_normal((5, 3))
    w_neigh = rng.standard_normal((5, 3))
    if activate:
        w2_self = rng.standard_normal((3, 2))
        w2_neigh = rng.standard_normal((3, 2))
        model = graph_model("sage", graph, [(w_self, w_neigh), (w2_self, w2_neigh)])
        hidden = sage_oracle(h, graph, w_self, w_neigh, True)
        want = sage_oracle(hidden, graph, w2_self, w2_neigh, False)
    else:
        model = graph_model("sage", graph, [(w_self, w_neigh)])
        want = sage_oracle(h, graph, w_self, w_neigh, False)
    assert np.max(np.abs(model.forward(h).data - want)) < 1e-12


def test_sage_layer_dimension_mismatch():
    model = graph_model("sage", graph_from(3, [(0, 1)]),
                        [(np.zeros((4, 2)), np.zeros((4, 2)))])
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 5)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((4, 4)))  # one row more than the graph has nodes


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def test_build_rejects_bad_configuration():
    for fields in (dict(backbone="transformer"), dict(dropout=1.0), dict(num_layers=0),
                   dict(hidden_dim=0)):
        with pytest.raises(ConfigError):
            ds.GnnModel.build(ds.DownstreamConfig(**fields), 4, 2)


def test_build_of_an_mlp_scorer_needs_an_rng():
    with pytest.raises(ContractError):
        ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=8, link_scorer="mlp"), 4, 8)


def test_build_appends_the_scorer_head_drawn_from_rng():
    cfg = ds.DownstreamConfig(hidden_dim=8, link_scorer="mlp")
    dot = ds.GnnModel.build(replace(cfg, link_scorer="dot"), 4, 6)
    rng = np.random.default_rng(3)
    model = ds.GnnModel.build(cfg, 4, 6, rng=rng)
    assert model.link_scorer == "mlp" and dot.link_scorer == "dot"
    assert list(model.params) == list(dot.params) + [
        "scorer.w1", "scorer.b1", "scorer.w2", "scorer.b2"]
    for name, p in dot.params.items():
        assert np.array_equal(model.params[name].data, p.data)
    # The head is the first draw of rng, and the layers take none from it.
    want = np.random.default_rng(3)
    w1, w2 = want.normal(0.0, 12 ** -0.5, (12, 8)), want.normal(0.0, 8 ** -0.5, (8, 1))
    assert np.array_equal(model.params["scorer.w1"].data, w1)
    assert np.array_equal(model.params["scorer.w2"].data, w2)
    assert not model.params["scorer.b1"].data.any()
    assert model.params["scorer.b2"].data.shape == (1,)
    assert rng.bit_generator.state == want.bit_generator.state


def test_forward_rejects_wrong_feature_dim():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=8, dropout=0.0), 4, 2)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 5)))


def test_graph_backbones_need_operator():
    for backbone in ("gcn", "sage"):
        with pytest.raises(ConfigError):
            ds.GnnModel.build(ds.DownstreamConfig(backbone=backbone, hidden_dim=8), 4, 2)


def test_dropout_requires_rng_in_train_mode():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=8, dropout=0.5), 4, 2)
    with pytest.raises(ContractError):
        model.forward(np.zeros((3, 4)), train=True)


def test_dropout_perturbs_train_but_not_eval():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=8, dropout=0.5, seed=0), 4, 2)
    x = np.ones((6, 4))
    eval_a = model.forward(x).data
    eval_b = model.forward(x).data
    assert np.array_equal(eval_a, eval_b)
    train_a = model.forward(x, train=True, rng=np.random.default_rng(0)).data
    train_b = model.forward(x, train=True, rng=np.random.default_rng(1)).data
    assert not np.array_equal(train_a, train_b)


def test_argmax_predictions_invariant_to_positive_rescaling():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=8, dropout=0.0, seed=5), 4, 3)
    x = np.random.default_rng(0).standard_normal((10, 4))
    logits = model.forward(x).data
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(17.0 * logits, axis=1))


# ---------------------------------------------------------------------------
# link scoring
# ---------------------------------------------------------------------------

def test_zero_embeddings_score_half():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=4, dropout=0.0), 3, 3)
    for p in model.params.values():
        p.data[:] = 0.0
    scores = ds.predict_links(model, ds.EmbeddingMatrix(np.ones((4, 3)), "random"),
                              [(0, 1), (2, 3)])
    assert np.array_equal(scores, np.full(2, 0.5))


def test_link_scores_symmetric_and_bounded():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=8, dropout=0.0, seed=1), 5, 4)
    feats = ds.EmbeddingMatrix(np.random.default_rng(2).standard_normal((12, 5)), "random")
    pairs = [(0, 3), (5, 1), (7, 11), (4, 4)]
    fwd = ds.predict_links(model, feats, pairs)
    rev = ds.predict_links(model, feats, [(v, u) for u, v in pairs])
    assert np.array_equal(fwd, rev)
    assert np.all((fwd > 0.0) & (fwd < 1.0))


def test_link_scores_match_hand_logistic():
    # Identity model: output z equals input features.
    cfg = ds.DownstreamConfig(hidden_dim=3, num_layers=1, dropout=0.0)
    model = ds.GnnModel.build(cfg, 3, 3)
    model.params["l0.w"].data = np.eye(3)
    model.params["l0.b"].data = np.zeros(3)
    feats = np.array([[1.0, 2.0, -1.0],
                      [0.5, -1.0, 2.0],
                      [3.0, 0.0, 1.0]])
    scores = ds.predict_links(model, ds.EmbeddingMatrix(feats, "random"),
                              [(0, 1), (0, 2), (1, 2)])
    dots = np.array([feats[0] @ feats[1], feats[0] @ feats[2], feats[1] @ feats[2]])
    assert np.max(np.abs(scores - logistic(dots))) < 1e-12


def test_predict_links_rejects_out_of_range_ids():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=4, dropout=0.0), 3, 2)
    with pytest.raises(ContractError, match="GnnModel.forward"):
        ds.predict_links(model, ds.EmbeddingMatrix(np.zeros((4, 3)), "random"), [(0, 4)])


def test_predict_links_checks_pair_ids_with_the_forwards_rule():
    # A float pair was once cast to int64 and scored as the pair (0, 1).
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=4, dropout=0.0), 3, 2)
    feats = ds.EmbeddingMatrix(np.random.default_rng(0).standard_normal((4, 3)), "random")
    for pairs in ([(0.5, 1.7)], [(-1, 2)], [(True, False)]):
        with pytest.raises(ContractError, match="GnnModel.forward"):
            ds.predict_links(model, feats, pairs)
    assert ds.predict_links(model, feats, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_link_bce_of_zero_logits_is_log_two():
    model = ds.GnnModel.build(ds.DownstreamConfig(hidden_dim=4), 3, 3)
    z = dc.constant(np.zeros((6, 3)))
    pairs = np.array([(0, 1), (2, 3), (4, 5)])
    loss = ds.link_bce(model, z, pairs, np.array([1, 0, 1]))
    assert abs(loss.item() - np.log(2.0)) < 1e-15


@pytest.mark.parametrize("scorer, reshapes", [("dot", 3), ("mlp", 0)])
def test_link_bce_reshapes_only_for_the_dot_products(recorded_ops, scorer, reshapes):
    # Pair logits come out (m, 1), the column link_bce's two-class logits take.
    cfg = ds.DownstreamConfig(hidden_dim=5, dropout=0.0, seed=1, link_scorer=scorer)
    model = ds.GnnModel.build(cfg, 3, 3, rng=np.random.default_rng(2))
    z = dc.parameter(np.random.default_rng(3).standard_normal((6, 3)))
    ds.link_bce(model, z, np.array([(0, 1), (2, 3), (4, 5)]), np.array([1, 0, 1]))
    assert [t._node.op for t in recorded_ops if t._node].count("reshape") == reshapes


# ---------------------------------------------------------------------------
# node classification
# ---------------------------------------------------------------------------

def labeled_graph(num_nodes=30, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(num_nodes) % num_classes
    edges = []
    for v in range(num_nodes):
        for u in range(v + 1, num_nodes):
            p = 0.3 if labels[v] == labels[u] else 0.05
            if rng.random() < p:
                edges.append((v, u))
    order = rng.permutation(num_nodes)
    splits = {"train": np.sort(order[:18]), "val": np.sort(order[18:24]),
              "test": np.sort(order[24:])}
    return graph_from(num_nodes, edges, labels=labels, splits=splits)


def one_hot_embeddings(graph, num_classes):
    m = np.zeros((graph.num_nodes, num_classes))
    m[np.arange(graph.num_nodes), graph.labels] = 1.0
    return ds.EmbeddingMatrix(m, provenance="random")


def test_classifier_fits_separable_embeddings():
    graph = labeled_graph()
    emb = one_hot_embeddings(graph, 3)
    cfg = ds.DownstreamConfig.for_node_classification(
        hidden_dim=16, dropout=0.0, epochs=50, patience=50, seed=0)
    model, log = ds.train_node_classifier(emb, graph, cfg)
    assert len(log) == 50
    preds = np.argmax(model.forward(emb.matrix).data, axis=1)
    train_idx = graph.splits["train"]
    assert np.all(preds[train_idx] == graph.labels[train_idx])


def test_classifier_log_rows_match_epochs_run():
    graph = labeled_graph(seed=1)
    emb = one_hot_embeddings(graph, 3)
    cfg = ds.DownstreamConfig(dropout=0.0, epochs=9, patience=9, seed=0)
    _, log = ds.train_node_classifier(emb, graph, cfg)
    assert [row["epoch"] for row in log] == list(range(9))
    assert set(log[0]) == {"epoch", "train_loss", "val_acc", "test_acc"}


def test_classifier_best_val_weights_returned():
    graph = labeled_graph(seed=2)
    emb = ds.random_embeddings(graph.num_nodes, 8, seed=2)
    cfg = ds.DownstreamConfig(hidden_dim=8, dropout=0.3, epochs=30,
                              patience=30, seed=2)
    model, log = ds.train_node_classifier(emb, graph, cfg)
    preds = np.argmax(model.forward(emb.matrix).data, axis=1)
    val_idx = graph.splits["val"]
    final_val = np.mean(preds[val_idx] == graph.labels[val_idx])
    best_logged = max(row["val_acc"] for row in log)
    assert final_val >= best_logged - 1e-12


def test_classifier_rejects_bad_inputs():
    graph = labeled_graph(seed=3)
    emb = one_hot_embeddings(graph, 3)
    with pytest.raises(ConfigError):
        ds.train_node_classifier(
            ds.random_embeddings(graph.num_nodes + 1, 4), graph,
            ds.DownstreamConfig())
    no_train = gs.TextGraph.from_edges(
        graph.num_nodes, graph.edges(), texts=graph.texts,
        labels=graph.labels, splits={"val": graph.splits["val"]})
    with pytest.raises(ConfigError):
        ds.train_node_classifier(emb, no_train, ds.DownstreamConfig())
    unlabeled = graph.labels.copy()
    unlabeled[graph.splits["train"][0]] = -1
    bad = gs.TextGraph.from_edges(
        graph.num_nodes, graph.edges(), texts=graph.texts,
        labels=unlabeled, splits=graph.splits)
    with pytest.raises(ConfigError):
        ds.train_node_classifier(emb, bad, ds.DownstreamConfig())
    # Features come as an EmbeddingMatrix, whose constructor checked them; a bare array
    # is refused, not trained on unchecked.
    with pytest.raises(AttributeError, match="matrix"):
        ds.train_node_classifier(emb.matrix, graph, ds.DownstreamConfig())


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_classifier_runs_with_graph_backbones(backbone):
    graph = labeled_graph(seed=4)
    emb = one_hot_embeddings(graph, 3)
    cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=8, dropout=0.0,
                              epochs=5, patience=5, seed=0)
    model, log = ds.train_node_classifier(emb, graph, cfg)
    assert len(log) == 5
    assert model.backbone == backbone


# ---------------------------------------------------------------------------
# link prediction
# ---------------------------------------------------------------------------

def community_graph(num_nodes=24, seed=0):
    rng = np.random.default_rng(seed)
    half = num_nodes // 2
    edges = []
    for v in range(num_nodes):
        for u in range(v + 1, num_nodes):
            same = (v < half) == (u < half)
            if rng.random() < (0.55 if same else 0.03):
                edges.append((v, u))
    return graph_from(num_nodes, edges)


def community_embeddings(graph, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    half = graph.num_nodes // 2
    base = rng.standard_normal((2, dim)) * 2.0
    noise = 0.1 * rng.standard_normal((graph.num_nodes, dim))
    m = np.array([base[0 if v < half else 1] for v in range(graph.num_nodes)]) + noise
    return ds.EmbeddingMatrix(m, provenance="random")


def test_link_predictor_learns_planted_communities():
    graph = community_graph(seed=0)
    split = gs.build_link_split(graph, seed=0)
    emb = community_embeddings(graph, seed=0)
    cfg = ds.DownstreamConfig.for_link_prediction(
        hidden_dim=8, dropout=0.0, epochs=8, patience=8, seed=0,
        batch_edges=32, lr=1e-2)
    model, log = ds.train_link_predictor(emb, graph, split, cfg)
    val_rows = [r for r in log if r["scope"] == "epoch" and r["split"] == "val"]
    assert val_rows[-1]["value"] > 0.8


def test_link_predictor_iteration_log_matches_steps():
    graph = community_graph(seed=1)
    split = gs.build_link_split(graph, seed=1)
    emb = community_embeddings(graph, seed=1)
    cfg = ds.DownstreamConfig.for_link_prediction(
        hidden_dim=4, dropout=0.0, epochs=3, patience=3, seed=0,
        batch_edges=16, log_every_iter=True)
    _, log = ds.train_link_predictor(emb, graph, split, cfg)
    iter_rows = [r for r in log if r["scope"] == "iter"]
    n_pairs = len(split.train_pos) + len(split.train_neg)
    full, rem = divmod(n_pairs, 16)
    steps_per_epoch = full + (1 if rem >= 2 else 0)
    assert len(iter_rows) == 3 * steps_per_epoch
    assert [r["index"] for r in iter_rows] == list(range(1, len(iter_rows) + 1))
    assert all(r["metric"] == "roc_auc" and r["split"] == "val" for r in iter_rows)


def test_link_predictor_best_val_weights_returned():
    graph = community_graph(seed=2)
    split = gs.build_link_split(graph, seed=2)
    emb = ds.random_embeddings(graph.num_nodes, 6, seed=2)
    cfg = ds.DownstreamConfig.for_link_prediction(
        hidden_dim=4, dropout=0.2, epochs=10, patience=10, seed=3,
        batch_edges=32, lr=1e-2)
    model, log = ds.train_link_predictor(emb, graph, split, cfg)
    pos, neg = split.positives("val"), split.negatives("val")
    scores = ds.predict_links(model, emb, np.concatenate([pos, neg]))
    labels = np.concatenate([np.ones(len(pos), int), np.zeros(len(neg), int)])
    from nodegae.evalmetrics import roc_auc
    final_val = roc_auc(scores, labels)
    best_logged = max(r["value"] for r in log
                      if r["scope"] == "epoch" and r["split"] == "val")
    assert final_val >= best_logged - 1e-12


def test_a_diverged_fit_stops_at_the_epoch_that_diverged(monkeypatch):
    # At lr 1e12 the train CE jumps from 1.78 to 1.8e25 at epoch 1 and stays
    # finite; without the check, patience 50 would end this fit after 54 epochs.
    graph = generate_synthetic(SyntheticGraphSpec(num_nodes=64, seed=0))
    emb = ds.shallow_embeddings(graph, 64, seed=0)
    cfg = ds.DownstreamConfig.for_node_classification(backbone="mlp", lr=1e12)
    assert (cfg.epochs, cfg.patience, cfg.seed) == (200, 50, 0)
    steps = []
    adam_step = dc.adam_step
    monkeypatch.setattr(dc, "adam_step", lambda *a: (steps.append(1), adam_step(*a)))
    with pytest.raises(NodeGaeError,
                       match=r"^training diverged at epoch 1 of the fit of seed 0: loss "):
        ds.train_node_classifier(emb, graph, cfg)
    assert len(steps) == 2


def test_link_predictor_mlp_scorer_trains_and_stays_symmetric():
    graph = community_graph(seed=3)
    split = gs.build_link_split(graph, seed=3)
    emb = community_embeddings(graph, seed=3)
    cfg = ds.DownstreamConfig.for_link_prediction(
        hidden_dim=8, dropout=0.0, epochs=3, patience=3, seed=0,
        batch_edges=32, lr=1e-2, link_scorer="mlp")
    model, log = ds.train_link_predictor(emb, graph, split, cfg)
    assert {"scorer.w1", "scorer.b1", "scorer.w2", "scorer.b2"} <= set(model.params)
    pairs = [(0, 5), (3, 20), (7, 13)]
    fwd = ds.predict_links(model, emb, pairs)
    rev = ds.predict_links(model, emb, [(v, u) for u, v in pairs])
    assert np.max(np.abs(fwd - rev)) < 1e-12
    assert np.all((fwd > 0.0) & (fwd < 1.0))


def test_predict_links_records_no_backward(recorded_ops):
    graph = community_graph(seed=3)
    cfg = ds.DownstreamConfig(backbone="gcn", hidden_dim=8, dropout=0.0, link_scorer="mlp")
    model = ds.GnnModel.build(cfg, 6, 8, operator_of("gcn", graph), np.random.default_rng(0))
    ds.predict_links(model, community_embeddings(graph, seed=3), [(0, 5), (3, 20)])
    assert recorded_ops
    assert all(t._node is None for t in recorded_ops)


def test_node_classifier_eval_forward_records_no_backward(recorded_ops, monkeypatch):
    graph = labeled_graph(seed=1)
    step = dc.adam_step
    monkeypatch.setattr(dc, "adam_step", lambda *a: (recorded_ops.append("step"), step(*a)))
    cfg = ds.DownstreamConfig.for_node_classification(hidden_dim=8, epochs=1, seed=0)
    ds.train_node_classifier(one_hot_embeddings(graph, 3), graph, cfg)
    after = recorded_ops.index("step")
    assert any(t._node is not None for t in recorded_ops[:after])
    assert recorded_ops[after + 1:]
    assert all(t._node is None for t in recorded_ops[after + 1:])


def test_node_classifier_refuses_an_mlp_link_scorer():
    graph = labeled_graph(seed=1)
    cfg = ds.DownstreamConfig.for_node_classification(hidden_dim=8, epochs=1,
                                                      link_scorer="mlp")
    with pytest.raises(ConfigError, match="link_scorer must be 'dot'"):
        ds.train_node_classifier(one_hot_embeddings(graph, 3), graph, cfg)


def test_link_predictor_rejects_row_mismatch():
    graph = community_graph(seed=4)
    split = gs.build_link_split(graph, seed=4)
    with pytest.raises(ConfigError):
        ds.train_link_predictor(ds.random_embeddings(graph.num_nodes - 1, 4),
                                graph, split, ds.DownstreamConfig())


@pytest.mark.parametrize("backbone, bad", [
    ("sage", {"hidden_dim": 0}), ("gcn", {"num_layers": 0}), ("sage", {"dropout": 1.0}),
    ("gcn", {"lr": 0.0}), ("sage", {"link_scorer": "cosine"})])
def test_an_invalid_config_is_refused_before_any_operator_is_built(monkeypatch, backbone, bad):
    built = []

    def spy(name, build):
        def spied(*args, **kwargs):
            built.append(name)
            return build(*args, **kwargs)
        return spied

    monkeypatch.setattr(ds, "mean_adjacency", spy("mean", ds.mean_adjacency))
    monkeypatch.setattr(ds, "normalized_adjacency", spy("normalized", ds.normalized_adjacency))
    monkeypatch.setattr(gs.LinkSplit, "train_message_graph",
                        spy("message graph", gs.LinkSplit.train_message_graph))
    graph = community_graph(seed=4)
    split = gs.build_link_split(graph, seed=4)
    # Building the config is its check: with no config there is nothing to build from.
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(backbone=backbone, **bad)
    assert built == []
    ds.graph_operator(ds.DownstreamConfig(backbone=backbone), graph, split)
    assert built == ["message graph", "mean" if backbone == "sage" else "normalized"]


def test_config_task_defaults_and_validation():
    assert ds.DownstreamConfig.for_node_classification().lr == 1e-2
    assert ds.DownstreamConfig.for_link_prediction().lr == 1e-4
    assert ds.DownstreamConfig.for_link_prediction(lr=0.5).lr == 0.5
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(link_scorer="bilinear")
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(batch_edges=1)
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(lr=0.0)
    with pytest.raises(FrozenInstanceError):
        ds.DownstreamConfig().lr = 0.0


# ---------------------------------------------------------------------------
# split scoring
# ---------------------------------------------------------------------------

def test_score_splits_matches_accuracy_on_each_node_split():
    graph = labeled_graph(seed=5)
    emb = ds.random_embeddings(graph.num_nodes, 4, seed=5)
    cfg = ds.DownstreamConfig(backbone="gcn", hidden_dim=8, dropout=0.5, seed=5)
    model = ds.GnnModel.build(cfg, 4, 3, operator_of("gcn", graph))
    preds = np.argmax(model.forward(emb.matrix).data, axis=1)
    got = ds.score_splits(model, emb, graph, parts=("train", "val", "test"))
    for part in ("train", "val", "test"):
        idx = graph.splits[part]
        assert got[part] == accuracy(preds[idx], graph.labels[idx])


@pytest.mark.parametrize("scorer", ds.LINK_SCORERS)
def test_score_splits_matches_roc_auc_of_predict_links(scorer):
    graph = community_graph(seed=6)
    split = gs.build_link_split(graph, seed=6)
    emb = community_embeddings(graph, seed=6)
    cfg = ds.DownstreamConfig.for_link_prediction(
        backbone="sage", hidden_dim=8, dropout=0.0, epochs=2, patience=2, seed=1,
        batch_edges=32, lr=1e-2, link_scorer=scorer)
    model, _ = ds.train_link_predictor(emb, graph, split, cfg)
    got = ds.score_splits(model, emb, graph, split, parts=("train", "val", "test"))
    for part in ("train", "val", "test"):
        pos, neg = split.positives(part), split.negatives(part)
        labels = np.concatenate([np.ones(len(pos), int), np.zeros(len(neg), int)])
        want = roc_auc(ds.predict_links(model, emb, np.concatenate([pos, neg])), labels)
        assert got[part] == want


@pytest.mark.parametrize("log_every_iter, eval_forwards", [(False, 2), (True, 8)])
def test_link_predictor_runs_one_eval_forward_per_score(monkeypatch, log_every_iter,
                                                        eval_forwards):
    # 330 train pairs make 3 steps per epoch at the default 128-pair batches;
    # each epoch scores val and test from one forward, each logged step one more.
    graph = generate_synthetic(SyntheticGraphSpec(num_nodes=200, seed=0))
    split = gs.build_link_split(graph, seed=0)
    assert len(split.train_pos) + len(split.train_neg) == 330
    modes = []
    forward = ds.GnnModel.forward
    monkeypatch.setattr(ds.GnnModel, "forward",
                        lambda self, features, train=False, rng=None, rows=None:
                        modes.append(train) or forward(self, features, train, rng, rows))
    cfg = ds.DownstreamConfig.for_link_prediction(
        backbone="gcn", epochs=2, patience=2, log_every_iter=log_every_iter)
    ds.train_link_predictor(ds.random_embeddings(200, 8), graph, split, cfg)
    assert modes.count(True) == 6
    assert modes.count(False) == eval_forwards


# ---------------------------------------------------------------------------
# row-sliced forwards
# ---------------------------------------------------------------------------

ROW_SETS = {
    "unsorted": np.array([17, 3, 29, 0, 11]),
    "repeated": np.array([5, 5, 22, 1, 22, 5]),
}


@pytest.mark.parametrize("backbone", ds.BACKBONES)
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
def test_forward_rows_equal_full_forward_rows_bit_for_bit(backbone, num_layers, rows):
    # BLAS computes each output row of these products alike whatever the
    # row count. It does not for a single row (a matrix-vector product) or
    # for outputs narrower than 4 columns, where only the last bit may move.
    graph = labeled_graph(seed=2)
    feats = np.random.default_rng(2).standard_normal((graph.num_nodes, 5))
    cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=8, num_layers=num_layers,
                              dropout=0.4, seed=2)
    model = ds.GnnModel.build(cfg, 5, 4, operator_of(backbone, graph))
    for train in (False, True):
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        got = model.forward(feats, train=train, rng=r1, rows=rows).data
        full = model.forward(feats, train=train, rng=r2).data
        assert got.shape == (len(rows), 4)
        assert np.array_equal(got, full[rows])
        # Masks are drawn at the full shape, so the rng ends where it would.
        assert r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize("backbone", ds.BACKBONES)
def test_forward_rows_gradients_match_full_forward_lookup(backbone):
    graph = labeled_graph(seed=3)
    feats = np.random.default_rng(3).standard_normal((graph.num_nodes, 4))
    rows = ROW_SETS["repeated"]
    weights = dc.constant(np.random.default_rng(4).standard_normal((len(rows), 3)))
    grads = []
    for sliced in (True, False):
        cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=6, dropout=0.3, seed=3)
        model = ds.GnnModel.build(cfg, 4, 3, operator_of(backbone, graph))
        rng = np.random.default_rng(8)
        out = (model.forward(feats, train=True, rng=rng, rows=rows) if sliced else
               dc.embedding_lookup(model.forward(feats, train=True, rng=rng), rows))
        dc.backward(dc.sum_axis(dc.sum_axis(dc.mul(out, weights), 1), 0))
        grads.append({name: p.grad for name, p in model.params.items()})
    for name, want in grads[1].items():
        np.testing.assert_allclose(grads[0][name], want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("num_pairs, num_nodes", [(0, 4), (1, 3), (7, 5), (128, 40), (128, 1024)])
def test_endpoints_equal_np_unique_with_inverse(seed, num_pairs, num_nodes):
    # Drawing from few nodes repeats ids within and across pairs.
    pairs = np.random.default_rng(seed).integers(num_nodes, size=(num_pairs, 2))
    rows, local = ds._endpoints(pairs)
    want_rows, want_local = np.unique(pairs, return_inverse=True)
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(local, want_local.reshape(pairs.shape))
    assert rows.dtype == want_rows.dtype and local.dtype == want_local.dtype
    np.testing.assert_array_equal(rows[local], pairs)


def test_link_fit_mlp_head_matmuls_see_only_batch_endpoints(recorded_ops, monkeypatch):
    graph = community_graph(seed=5)
    split = gs.build_link_split(graph, seed=5)
    steps = []
    bce = ds.link_bce

    def spy(model, z, pairs, labels):
        steps.append((len(recorded_ops), np.unique(pairs).size))
        return bce(model, z, pairs, labels)

    monkeypatch.setattr(ds, "link_bce", spy)
    cfg = ds.DownstreamConfig.for_link_prediction(
        backbone="mlp", hidden_dim=8, epochs=2, patience=2, batch_edges=16)
    ds.train_link_predictor(community_embeddings(graph, seed=5), graph, split, cfg)
    assert len(steps) > 2
    start = 0
    for end, endpoints in steps:
        # Each step's biased matmuls are the head's layers; the dot scorer's
        # pair products have no bias and eval forwards record no op.
        heights = [t.shape[0] for t in recorded_ops[start:end]
                   if t._node and t._node.op == "matmul" and len(t._node.parents) == 3]
        assert heights == [endpoints] * cfg.num_layers
        assert endpoints < graph.num_nodes
        start = end


# ---------------------------------------------------------------------------
# forward plans
# ---------------------------------------------------------------------------

def reference_forward(model, features, train=False, rng=None, rows=None):
    """GnnModel.forward as it was before plans: mlp slices the features to
    `rows` first and indexes its masks by them, gcn and sage run every layer
    but the last over all nodes and slice the operator for the last."""
    x = dc.constant(features)
    num_nodes, last = x.shape[0], model.num_layers - 1
    row_local = rows is not None and model.backbone == "mlp"
    if row_local:
        x = dc.embedding_lookup(x, rows)
    p = model.params
    for i in range(model.num_layers):
        if train and model.dropout > 0.0:
            keep = 1.0 - model.dropout
            mask = rng.random((num_nodes, model.dims[i])) < keep
            x = dc.dropout(x, mask[rows] if row_local else mask, keep)
        if model.backbone == "mlp":
            x = dc.matmul(x, p[f"l{i}.w"], p[f"l{i}.b"])
            x = dc.relu(x) if i < last else x
            continue
        at = rows if i == last else None
        op = model.operator if at is None else model.operator[at]
        if model.backbone == "gcn":
            x = dc.graph_layer(op, x, p[f"l{i}.w"], relu=i < last)
        else:
            x = dc.graph_layer(op, x, p[f"l{i}.neigh"], p[f"l{i}.self"], at, relu=i < last)
    return x


# labeled_graph() has 30 nodes.
PLAN_ROW_SETS = {
    "all": None,
    "empty": np.zeros(0, dtype=np.int64),
    "single": np.array([13]),
    "first": np.array([0]),
    "last": np.array([29]),
    **ROW_SETS,
}


@pytest.mark.parametrize("backbone", ds.BACKBONES)
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("rows", PLAN_ROW_SETS.values(), ids=PLAN_ROW_SETS.keys())
def test_forward_over_plan_equals_the_reference_forward_bit_for_bit(backbone, num_layers,
                                                                     train, rows):
    graph = labeled_graph(seed=6)
    feats = np.random.default_rng(6).standard_normal((graph.num_nodes, 5))
    results = []
    for forward in (ds.GnnModel.forward, reference_forward):
        cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=8, num_layers=num_layers,
                                  dropout=0.4, seed=6)
        model = ds.GnnModel.build(cfg, 5, 4, operator_of(backbone, graph))
        rng = np.random.default_rng(11)
        out = forward(model, feats, train, rng, rows)
        weights = np.random.default_rng(12).standard_normal(out.shape)
        dc.backward(dc.sum_axis(dc.reshape(dc.mul(out, dc.constant(weights)), (-1,)), 0))
        results.append((out.shape, out.data.tobytes(), rng.bit_generator.state,
                        {name: None if t.grad is None else t.grad.tobytes()
                         for name, t in model.params.items()}))
    assert results[0] == results[1]


@pytest.mark.parametrize("backbone", ds.BACKBONES)
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("rows", PLAN_ROW_SETS.values(), ids=PLAN_ROW_SETS.keys())
def test_plan_node_sets_of_each_layer(backbone, num_layers, rows):
    graph = labeled_graph(seed=6)
    n = graph.num_nodes
    cfg = ds.DownstreamConfig(backbone=backbone, num_layers=num_layers)
    model = ds.GnnModel.build(cfg, 5, 4, operator_of(backbone, graph))
    plan = model.plan(n, rows)
    assert len(plan) == num_layers
    out_rows = n if rows is None else len(rows)
    for i, layer in enumerate(plan):
        if backbone == "mlp":
            # Row-local layers read and write the output rows.
            assert layer.operator is None and layer.own is None
            if rows is None:
                assert layer.inputs is None
            else:
                np.testing.assert_array_equal(layer.inputs, rows)
            continue
        # Graph layers read all nodes; only the last writes fewer than all.
        assert layer.inputs is None
        written = out_rows if i == num_layers - 1 else n
        assert layer.operator.shape == (written, n)
        sliced = i == num_layers - 1 and rows is not None
        want = model.operator[rows] if sliced else model.operator
        assert (layer.operator != want).nnz == 0
        if backbone == "sage" and sliced:
            np.testing.assert_array_equal(layer.own, rows)
        else:
            assert layer.own is None


@pytest.mark.parametrize("backbone", ds.BACKBONES)
@pytest.mark.parametrize("rows", [[-1, -2], [3, 30], [1.5, 2.5], [[1, 2], [3, 4]]],
                         ids=["negative", "past-the-end", "non-integer", "2-d"])
def test_forward_rejects_rows_that_are_no_node_ids(backbone, rows):
    # gcn once returned nodes 29 and 28 for [-1, -2] and nodes 1 and 2 for
    # [1.5, 2.5]; an id past the end escaped from scipy as an IndexError. 2-d
    # rows gave mlp a (2, 2, out) array and gcn and sage scipy's IndexError.
    graph = labeled_graph(seed=6)
    cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=8)
    model = ds.GnnModel.build(cfg, 5, 4, operator_of(backbone, graph))
    feats = np.zeros((graph.num_nodes, 5))
    for train in (False, True):
        with pytest.raises(ContractError, match="GnnModel.forward"):
            model.forward(feats, train=train, rng=np.random.default_rng(0), rows=rows)


# ---------------------------------------------------------------------------
# one recorded op per graph layer and per dropout
# ---------------------------------------------------------------------------

def chain_forward(model, feats, rng, rows):
    """GnnModel.forward in train mode for gcn/sage, built from the op chains
    that graph_layer and dropout replace, in the order they were recorded."""
    p, last, x = model.params, model.num_layers - 1, dc.constant(feats)
    for i in range(model.num_layers):
        keep = 1.0 - model.dropout
        x = chain_dropout(x, rng.random((feats.shape[0], model.dims[i])) < keep, keep)
        sliced = i == last and rows is not None
        op = model.operator[rows] if sliced else model.operator
        if model.backbone == "gcn":
            x = chain_graph_layer(op, x, p[f"l{i}.w"], relu=i < last)
        else:
            x = chain_graph_layer(op, x, p[f"l{i}.neigh"], p[f"l{i}.self"],
                                  rows if sliced else None, relu=i < last)
    return x


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("rows", [None] + list(ROW_SETS.values()), ids=["all"] + list(ROW_SETS))
def test_graph_forward_equals_the_op_chains_bit_for_bit(backbone, num_layers, rows):
    graph = labeled_graph(seed=4)
    feats = np.random.default_rng(4).standard_normal((graph.num_nodes, 5))
    results = []
    for forward in (lambda m, r: m.forward(feats, train=True, rng=r, rows=rows),
                    lambda m, r: chain_forward(m, feats, r, rows)):
        cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=8, num_layers=num_layers,
                                  dropout=0.4, seed=4)
        model = ds.GnnModel.build(cfg, 5, 4, operator_of(backbone, graph))
        rng = np.random.default_rng(9)
        out = forward(model, rng)
        weights = np.random.default_rng(10).standard_normal(out.shape)
        dc.backward(dc.sum_axis(dc.reshape(dc.mul(out, dc.constant(weights)), (-1,)), 0))
        results.append((out.data.tobytes(), rng.bit_generator.state,
                        {name: t.grad.tobytes() for name, t in model.params.items()}))
    assert results[0] == results[1]


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_graph_train_forward_records_one_op_per_layer_and_dropout(recorded_ops, backbone):
    graph = labeled_graph(seed=5)
    cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=8, num_layers=2, dropout=0.5,
                              seed=5)
    model = ds.GnnModel.build(cfg, 5, 3, operator_of(backbone, graph))
    feats = np.random.default_rng(5).standard_normal((graph.num_nodes, 5))
    model.forward(feats, train=True, rng=np.random.default_rng(6), rows=ROW_SETS["repeated"])
    # The first dropout acts on the constant features, so it records nothing.
    assert [t._node.op for t in recorded_ops if t._node is not None] == [
        "graph_layer", "dropout", "graph_layer"]


# ---------------------------------------------------------------------------
# memory of a training step
# ---------------------------------------------------------------------------

def _step_peak(backbone, graph, feats):
    """Bytes a 2-layer nodecls train step (forward, loss, backward) allocates at its
    peak under tracemalloc, above what was allocated before it."""
    cfg = ds.DownstreamConfig(backbone=backbone, seed=0)
    model = ds.GnnModel.build(cfg, feats.shape[1], 6, ds.graph_operator(cfg, graph))
    train = graph.splits["train"]
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logits = model.forward(feats, train=True, rng=np.random.default_rng(1), rows=train)
        loss = dc.cross_entropy_logits(logits, graph.labels[train])
        del logits
        dc.backward(loss)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_sage_step_peaks_at_most_one_hidden_array_above_its_gcn_twin():
    # Sparse random graph at N=4096, mean degree ~6, 64-wide features and hidden rows.
    n, width = 4096, 64
    rng = np.random.default_rng(0)
    edges = rng.integers(0, n, size=(3 * n, 2))
    order = rng.permutation(n)
    splits = {"train": np.sort(order[:n // 2]), "val": np.sort(order[n // 2:])}
    graph = graph_from(n, [(u, v) for u, v in edges if u != v],
                       labels=np.arange(n) % 6, splits=splits)
    feats = rng.standard_normal((n, width))
    gcn, sage = (_step_peak(backbone, graph, feats) for backbone in ("gcn", "sage"))
    assert gcn > 3 * n * width * 8  # the step holds a few (N, hidden) arrays at its peak
    assert sage <= gcn + n * width * 8
