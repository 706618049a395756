"""Tests for tokenization, vocabulary, synthetic graphs, and file ingestion."""

from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodegae import textcorpus as tc
from nodegae.errors import ConfigError, ContractError, IngestionError
from reference_graphs import dense_draw_edges


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_lowercases_and_strips_punctuation():
    assert tc.tokenize("A b, C! d-e") == ["a", "b", "c", "d", "e"]


def test_tokenize_empty_string():
    assert tc.tokenize("") == []


# ---------------------------------------------------------------------------
# build_vocab
# ---------------------------------------------------------------------------

def test_build_vocab_tiny_corpus():
    vocab = tc.build_vocab(["a b", "a c"], max_size=7)
    assert vocab.size == 7
    assert vocab.id_to_token[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]
    # "a" appears twice; "b" and "c" tie and break lexicographically.
    assert vocab.id_to_token[4:] == ["a", "b", "c"]


def test_build_vocab_reserved_ids():
    vocab = tc.build_vocab(["x"], max_size=5)
    assert tc.PAD_ID == 0 and tc.UNK_ID == 1 and tc.BOS_ID == 2 and tc.EOS_ID == 3


def test_build_vocab_max_size_too_small():
    with pytest.raises(ConfigError):
        tc.build_vocab(["a"], max_size=4)


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        tc.build_vocab([], max_size=10)


def test_build_vocab_empty_string_contributes_nothing():
    vocab = tc.build_vocab(["", "a b", ""], max_size=10)
    assert vocab.size == 6


def test_build_vocab_truncates_to_budget():
    texts = ["one two three four five six"]
    vocab = tc.build_vocab(texts, max_size=6)
    assert vocab.size == 6
    # All counts tie at 1; lexicographic order decides the survivors.
    assert vocab.id_to_token[4:] == ["five", "four"]


def test_build_vocab_most_frequent_token_gets_first_free_id():
    rng = np.random.default_rng(0)
    pool = ["node", "edge", "text", "model"]
    docs = []
    for _ in range(1000):
        extra = [pool[i] for i in rng.integers(0, 4, size=3)]
        docs.append(" ".join(["graph"] + extra))
    # Independent frequency count.
    oracle = Counter()
    for d in docs:
        oracle.update(d.lower().split())
    assert oracle.most_common(1)[0][0] == "graph"
    vocab = tc.build_vocab(docs, max_size=64)
    assert vocab.token_to_id["graph"] == 4
    want_order = [t for t, _ in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))]
    assert vocab.id_to_token[4:] == want_order


def test_vocab_ids_dense_and_bijective():
    vocab = tc.build_vocab(["a b c", "b c d"], max_size=10)
    assert sorted(vocab.token_to_id.values()) == list(range(4, vocab.size))
    for tok, idx in vocab.token_to_id.items():
        assert vocab.id_to_token[idx] == tok


def test_vocabulary_derives_its_token_map_from_its_token_list():
    vocab = tc.Vocabulary([*tc.RESERVED_TOKENS, "graph", "node"])
    assert vocab.token_to_id == {"graph": 4, "node": 5}
    # A reserved token in a text is no structure id: it reads as unknown.
    assert [vocab.id_for(tok) for tok in ("node", "<eos>", "edge")] == [5, tc.UNK_ID, tc.UNK_ID]
    assert vocab == tc.Vocabulary([*tc.RESERVED_TOKENS, "graph", "node"])
    with pytest.raises(TypeError):  # the map is derived, never given
        tc.Vocabulary(id_to_token=vocab.id_to_token, token_to_id={"node": 4})


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

@pytest.fixture()
def small_vocab():
    return tc.build_vocab(["alpha beta gamma delta", "alpha beta"], max_size=16)


def test_encode_empty_text_is_just_eos(small_vocab):
    ids = tc.encode("", small_vocab, max_len=8)
    assert ids.tolist() == [tc.EOS_ID]


def test_encode_unknown_words_map_to_unk(small_vocab):
    ids = tc.encode("zzz qqq www xxx yyy", small_vocab, max_len=4)
    assert ids.tolist() == [tc.UNK_ID, tc.UNK_ID, tc.UNK_ID, tc.EOS_ID]


def test_encode_truncates_and_terminates(small_vocab):
    ids = tc.encode("alpha beta gamma delta", small_vocab, max_len=3)
    assert len(ids) == 3
    assert ids[-1] == tc.EOS_ID


def test_encode_all_ids_in_range(small_vocab):
    ids = tc.encode("alpha mystery beta", small_vocab, max_len=16)
    assert np.all(ids >= 0) and np.all(ids < small_vocab.size)


@pytest.mark.parametrize("seed", range(5))
def test_decode_encode_round_trip_in_vocab(seed, small_vocab):
    rng = np.random.default_rng(seed)
    words = small_vocab.id_to_token[4:]
    toks = [words[i] for i in rng.integers(0, len(words), size=10)]
    ids = tc.encode(" ".join(toks), small_vocab, max_len=32)
    assert tc.decode(ids, small_vocab) == toks


def test_encode_decode_idempotent(small_vocab):
    ids = tc.encode("alpha beta gamma", small_vocab, max_len=16)
    again = tc.encode(" ".join(tc.decode(ids, small_vocab)), small_vocab, max_len=16)
    assert np.array_equal(ids, again)


def test_decode_drops_structural_tokens(small_vocab):
    seq = np.array([tc.BOS_ID, 4, tc.PAD_ID, 5, tc.EOS_ID, tc.PAD_ID])
    toks = tc.decode(seq, small_vocab)
    assert toks == [small_vocab.id_to_token[4], small_vocab.id_to_token[5]]


def test_pad_sequences_shapes(small_vocab):
    seqs = [tc.encode("alpha", small_vocab, 8), tc.encode("alpha beta gamma", small_vocab, 8)]
    mat = tc.pad_sequences(seqs)
    assert mat.shape == (2, 4)
    assert mat[0].tolist() == [4, tc.EOS_ID, tc.PAD_ID, tc.PAD_ID]


# ---------------------------------------------------------------------------
# synthetic graphs
# ---------------------------------------------------------------------------

def make_spec(**kw):
    base = dict(
        num_nodes=60,
        num_classes=3,
        keywords_per_class=8,
        doc_length=(4, 8),
        intra_class_edge_prob=0.2,
        inter_class_edge_prob=0.02,
        seed=0,
    )
    base.update(kw)
    return tc.SyntheticGraphSpec(**base)


def test_synthetic_forced_edge():
    spec = make_spec(num_nodes=2, num_classes=1, intra_class_edge_prob=1.0,
                     inter_class_edge_prob=0.0)
    g = tc.generate_synthetic(spec)
    assert g.num_edges == 1


def test_synthetic_empty_graph():
    spec = make_spec(intra_class_edge_prob=0.0, inter_class_edge_prob=0.0)
    g = tc.generate_synthetic(spec)
    assert g.num_edges == 0


def test_synthetic_determinism():
    a = tc.generate_synthetic(make_spec(seed=5))
    b = tc.generate_synthetic(make_spec(seed=5))
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.texts == b.texts
    assert np.array_equal(a.labels, b.labels)
    for name in ("train", "val", "test"):
        assert np.array_equal(a.splits[name], b.splits[name])


def test_synthetic_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        tc.generate_synthetic(make_spec(keywords_per_class=0))
    with pytest.raises(ConfigError):
        tc.generate_synthetic(make_spec(intra_class_edge_prob=0.01,
                                        inter_class_edge_prob=0.5))
    with pytest.raises(ConfigError):
        tc.generate_synthetic(make_spec(intra_class_edge_prob=1.5))
    with pytest.raises(FrozenInstanceError):
        make_spec().keywords_per_class = 0


def test_synthetic_split_sizes_and_partition():
    g = tc.generate_synthetic(make_spec(num_nodes=100))
    tr, va, te = g.splits["train"], g.splits["val"], g.splits["test"]
    assert len(tr) == 54 and len(va) == 18 and len(te) == 28
    all_ids = np.concatenate([tr, va, te])
    assert sorted(all_ids.tolist()) == list(range(100))


def test_synthetic_labels_and_texts_aligned():
    g = tc.generate_synthetic(make_spec())
    assert len(g.texts) == g.num_nodes
    assert g.labels.shape == (g.num_nodes,)
    assert np.all(g.labels >= 0) and np.all(g.labels < 3)
    assert all(len(t.split()) >= 4 for t in g.texts)


@pytest.mark.parametrize("seed", range(5))
def test_synthetic_homophily(seed):
    g = tc.generate_synthetic(make_spec(num_nodes=200, seed=seed))
    same = g.labels[:, None] == g.labels[None, :]
    intra_pairs = (np.sum(same) - g.num_nodes) / 2
    inter_pairs = g.num_nodes * (g.num_nodes - 1) / 2 - intra_pairs
    intra_edges = sum(1 for u, v in g.edges() if g.labels[u] == g.labels[v])
    inter_edges = g.num_edges - intra_edges
    assert intra_edges / intra_pairs > inter_edges / inter_pairs


def generate_with_rng(monkeypatch, spec):
    """generate_synthetic(spec) and the generator it drew from, in its final state."""
    made = []
    default_rng = np.random.default_rng

    def capture(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(tc.np.random, "default_rng", capture)
        graph = tc.generate_synthetic(spec)
    assert len(made) == 1
    return graph, made[0]


def assert_same_generation(monkeypatch, spec):
    """The row-block edge draw gives the dense oracle's graph and rng end state."""
    graph, rng = generate_with_rng(monkeypatch, spec)
    with monkeypatch.context() as m:
        m.setattr(tc, "_draw_edges", dense_draw_edges)
        want, want_rng = generate_with_rng(monkeypatch, spec)
    assert np.array_equal(graph.indptr, want.indptr)
    assert np.array_equal(graph.indices, want.indices)
    assert graph.texts == want.texts
    assert np.array_equal(graph.labels, want.labels)
    assert graph.splits.keys() == want.splits.keys()
    for name in want.splits:
        assert np.array_equal(graph.splits[name], want.splits[name])
    assert rng.bit_generator.state == want_rng.bit_generator.state


# The node count whose n x n draw exactly fills one EDGE_DRAW_BLOCK buffer.
ONE_BLOCK = int(np.sqrt(tc.EDGE_DRAW_BLOCK))


@pytest.mark.parametrize("probs", [(0.05, 0.005), (1.0, 0.0), (0.0, 0.0), (0.02, 0.02)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, ONE_BLOCK - 1, ONE_BLOCK, ONE_BLOCK + 1, 300, 1000])
def test_block_edge_draw_matches_dense_oracle(monkeypatch, n, seed, probs):
    assert ONE_BLOCK ** 2 == tc.EDGE_DRAW_BLOCK
    assert_same_generation(monkeypatch, make_spec(
        num_nodes=n, seed=seed, intra_class_edge_prob=probs[0],
        inter_class_edge_prob=probs[1]))


@pytest.mark.parametrize("block", [1, 5, 16, 63])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 31])
def test_block_edge_draw_matches_dense_oracle_across_many_blocks(monkeypatch, n, block):
    monkeypatch.setattr(tc, "EDGE_DRAW_BLOCK", block)
    for probs in ((1.0, 1.0), (0.6, 0.2), (0.0, 0.0)):
        assert_same_generation(monkeypatch, make_spec(
            num_nodes=n, seed=n + block, intra_class_edge_prob=probs[0],
            inter_class_edge_prob=probs[1]))


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def write_dataset(tmp_path, nodes, edges, splits):
    np_, ep, sp_ = tmp_path / "nodes.tsv", tmp_path / "edges.tsv", tmp_path / "splits.txt"
    np_.write_text(nodes, encoding="utf-8")
    ep.write_text(edges, encoding="utf-8")
    sp_.write_text(splits, encoding="utf-8")
    return np_, ep, sp_


GOOD_SPLITS = "train: 0\nval: 1\ntest: 2\n"


def test_load_deduplicates_directed_pair(tmp_path):
    paths = write_dataset(
        tmp_path,
        "0\t0\talpha one\n1\t1\tbeta two\n2\t0\tgamma three\n",
        "0\t1\n1\t0\n",
        GOOD_SPLITS,
    )
    g = tc.load_textgraph(*paths)
    assert g.num_nodes == 3
    assert g.num_edges == 1
    assert g.texts[1] == "beta two"
    assert g.labels.tolist() == [0, 1, 0]


def test_load_node_id_gap_rejected(tmp_path):
    paths = write_dataset(tmp_path, "0\t0\ta\n2\t1\tb\n", "", "train: 0\nval:\ntest:\n")
    with pytest.raises(IngestionError):
        tc.load_textgraph(*paths)


def test_load_dangling_edge_reports_line(tmp_path):
    paths = write_dataset(
        tmp_path,
        "0\t0\ta\n1\t1\tb\n",
        "0\t1\n0\t9\n",
        "train: 0\nval: 1\ntest:\n",
    )
    with pytest.raises(IngestionError) as err:
        tc.load_textgraph(*paths)
    assert "line 2" in str(err.value)


def test_load_overlapping_splits_rejected(tmp_path):
    paths = write_dataset(
        tmp_path,
        "0\t0\ta\n1\t1\tb\n",
        "0\t1\n",
        "train: 0,1\nval: 1\ntest:\n",
    )
    with pytest.raises(IngestionError) as err:
        tc.load_textgraph(*paths)
    assert str(err.value) == f"{paths[2]}: split 'val' node 1 is also in split 'train'"


def test_load_malformed_node_line_reports_line(tmp_path):
    paths = write_dataset(tmp_path, "0\t0\ta\nnot-an-id\t1\tb\n", "", GOOD_SPLITS)
    with pytest.raises(IngestionError) as err:
        tc.load_textgraph(*paths)
    assert "line 2" in str(err.value)


def loading(nodes, edges="", splits=GOOD_SPLITS):
    """A call that loads the dataset of these three files, written to a directory it gets."""
    return lambda root: tc.load_textgraph(*write_dataset(root, nodes, edges, splits))


THREE_NODES = "0\t0\ta\n1\t1\tb\n2\t0\tc\n"

# Calls that textcorpus refuses, each with its error and whole message; {nodes},
# {edges} and {splits} stand for the paths of the dataset's files.
REFUSALS = {
    "nodes-two-fields": (loading("0\t0\ta\n1\t1\n"), IngestionError,
                         "{nodes} line 2: expected 3 tab-separated fields, got 2"),
    "duplicate-node": (loading("0\t0\ta\n1\t1\tb\n\n0\t1\tc\n"), IngestionError,
                       "{nodes} line 4: duplicate node id 0"),
    "no-records": (loading("\n\n"), IngestionError, "{nodes}: no node records found"),
    "edges-one-field": (loading(THREE_NODES, "0\t1\n2\n"), IngestionError,
                        "{edges} line 2: expected 'src<TAB>dst'"),
    "edges-non-integer": (loading(THREE_NODES, "0\t1\n\n1\tx\n"), IngestionError,
                          "{edges} line 3: non-integer endpoint"),
    "unknown-split": (loading(THREE_NODES, splits="train: 0\ntest: 1\ndev: 2\n"),
                      IngestionError,
                      "{splits}: unknown split 'dev', not one of ('train', 'val', 'test')"),
    "duplicate-split": (loading(THREE_NODES, splits="train: 0\nval: 1\ntrain: 2\n"),
                        IngestionError, "{splits} line 3: duplicate split 'train'"),
    "split-non-integer": (loading(THREE_NODES, splits="train: 0\nval: 1, one\n"),
                          IngestionError, "{splits} line 2: non-integer node id 'one'"),
    "split-out-of-range": (loading(THREE_NODES, splits="\ntrain: 0,3\n"), IngestionError,
                           "{splits}: split 'train' node 3 is out of range for a 3-node graph"),
    "split-id-twice": (loading(THREE_NODES, splits="train: 0\nval: 2, 1,2\n"), IngestionError,
                       "{splits}: split 'val' lists node 2 twice"),
    "vocab-token-twice": (lambda root: tc.Vocabulary([*tc.RESERVED_TOKENS, "a", "b", "a"]),
                          ContractError, "vocabulary lists ['a'] more than once"),
    "vocab-no-reserved": (lambda root: tc.Vocabulary(["a", "b", "c", "d"]), ContractError,
                          "vocabulary must be a list of strings starting with the four "
                          "reserved tokens"),
    "encode-max-len-0": (lambda root: tc.encode("a b", tc.build_vocab(["a b"]), max_len=0),
                         ConfigError, "max_len must be >= 1, got 0"),
    "pad-nothing": (lambda root: tc.pad_sequences([]), ContractError,
                    "pad_sequences needs at least one sequence"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_call_raises_its_whole_message(tmp_path, call, error, message):
    with pytest.raises(error) as err:
        call(tmp_path)
    assert str(err.value) == message.format(nodes=tmp_path / "nodes.tsv",
                                            edges=tmp_path / "edges.tsv",
                                            splits=tmp_path / "splits.txt")


def test_save_load_round_trip_with_tabs_in_text(tmp_path):
    g = tc.generate_synthetic(make_spec(num_nodes=20))
    g.texts[3] = "left\tright and a \\t literal"
    g.texts[4] = "line\nbreak"
    paths = (tmp_path / "n.tsv", tmp_path / "e.tsv", tmp_path / "s.txt")
    tc.save_textgraph(g, *paths)
    back = tc.load_textgraph(*paths)
    assert back.texts == g.texts
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    assert np.array_equal(back.labels, g.labels)
    for name in ("train", "val", "test"):
        assert np.array_equal(back.splits[name], g.splits[name])


def _round_trip_texts(tmp_path, texts):
    g = tc.generate_synthetic(make_spec(num_nodes=len(texts), seed=1))
    g.texts[:] = texts
    paths = (tmp_path / "n.tsv", tmp_path / "e.tsv", tmp_path / "s.txt")
    tc.save_textgraph(g, *paths)
    return tc.load_textgraph(*paths).texts


def test_save_load_round_trip_with_line_break_characters(tmp_path):
    # str.splitlines breaks at each of these; only \r needs an escape on disk.
    texts = ["carriage\rreturn", "crlf\r\n", "form\x0cfeed", "line\u2028sep",
             "para\u2029sep", "next\x85line", "vt\x0bgs\x1d", "\\r is not \r"]
    assert _round_trip_texts(tmp_path, texts) == texts


def test_load_accepts_crlf_line_endings(tmp_path):
    paths = write_dataset(tmp_path, "0\t0\tab\r\n1\t1\tcd\r\n", "0\t1\r\n",
                          "train: 0\r\nval: 1\r\ntest:\r\n")
    assert tc.load_textgraph(*paths).texts == ["ab", "cd"]


@given(st.lists(st.text(), min_size=1, max_size=4))
def test_save_load_round_trips_arbitrary_text(tmp_path_factory, texts):
    assert _round_trip_texts(tmp_path_factory.mktemp("rt"), texts) == texts


def test_save_load_save_is_stable(tmp_path):
    g = tc.generate_synthetic(make_spec(num_nodes=30, seed=2))
    first = (tmp_path / "n1", tmp_path / "e1", tmp_path / "s1")
    second = (tmp_path / "n2", tmp_path / "e2", tmp_path / "s2")
    tc.save_textgraph(g, *first)
    tc.save_textgraph(tc.load_textgraph(*first), *second)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_load_hundred_nodes_matches_line_counts(tmp_path):
    g = tc.generate_synthetic(make_spec(num_nodes=100, seed=4))
    paths = (tmp_path / "n.tsv", tmp_path / "e.tsv", tmp_path / "s.txt")
    tc.save_textgraph(g, *paths)
    back = tc.load_textgraph(*paths)
    assert back.num_nodes == 100
    node_lines = sum(1 for line in paths[0].read_text().splitlines() if line)
    edge_lines = sum(1 for line in paths[1].read_text().splitlines() if line)
    assert node_lines == 100
    assert back.num_edges == edge_lines


def test_failed_save_leaves_the_old_dataset_and_no_temp_files(tmp_path, disk_full):
    old = tc.generate_synthetic(make_spec(num_nodes=30, seed=1))
    paths = (tmp_path / "nodes.tsv", tmp_path / "edges.tsv", tmp_path / "splits.txt")
    tc.save_textgraph(old, *paths)
    before = [p.read_bytes() for p in paths]

    # The new edges file is larger than the old one, so it fails midway.
    disk_full(".edges.tsv.", len(before[1]) // 2)
    new = tc.generate_synthetic(make_spec(num_nodes=40, seed=2))
    with pytest.raises(OSError, match="No space left"):
        tc.save_textgraph(new, *paths)

    assert [p.read_bytes() for p in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.tsv", "nodes.tsv",
                                                          "splits.txt"]
    back = tc.load_textgraph(*paths)
    assert back.texts == old.texts
    assert np.array_equal(back.indptr, old.indptr)
    assert np.array_equal(back.indices, old.indices)
