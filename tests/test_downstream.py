"""Tests for frozen-embedding models: graph layers, scorers, training loops."""

import numpy as np
import pytest

from nodegae import diffcore as dc
from nodegae import downstream as ds
from nodegae import graphstore as gs
from nodegae.errors import ConfigError, ContractError, DimensionError
from nodegae.evalmetrics import accuracy, roc_auc
from nodegae.textcorpus import SyntheticGraphSpec, generate_synthetic


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


def test_embeddings_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    emb = ds.EmbeddingMatrix(rng.standard_normal((7, 5)), provenance="shallow-baseline")
    path = tmp_path / "emb.txt"
    ds.save_embeddings(emb, path)
    back = ds.load_embeddings(path)
    assert back.provenance == emb.provenance
    assert np.array_equal(back.matrix, emb.matrix)


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
    model = ds.GnnModel.build(backbone, first.shape[0], first.shape[1], last.shape[1],
                              num_layers=len(layers), dropout=0.0,
                              operator=operator_of(backbone, graph, add_self_loops))
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
    with pytest.raises(ConfigError):
        ds.GnnModel.build("transformer", 4, 8, 2)
    with pytest.raises(ConfigError):
        ds.GnnModel.build("mlp", 4, 8, 2, dropout=1.0)
    with pytest.raises(ConfigError):
        ds.GnnModel.build("mlp", 4, 8, 2, num_layers=0)


def test_forward_rejects_wrong_feature_dim():
    model = ds.GnnModel.build("mlp", 4, 8, 2, dropout=0.0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 5)))


def test_graph_backbones_need_operator():
    for backbone in ("gcn", "sage"):
        with pytest.raises(ConfigError):
            ds.GnnModel.build(backbone, 4, 8, 2, dropout=0.0)


def test_dropout_requires_rng_in_train_mode():
    model = ds.GnnModel.build("mlp", 4, 8, 2, dropout=0.5)
    with pytest.raises(ContractError):
        model.forward(np.zeros((3, 4)), train=True)


def test_dropout_perturbs_train_but_not_eval():
    model = ds.GnnModel.build("mlp", 4, 8, 2, dropout=0.5, seed=0)
    x = np.ones((6, 4))
    eval_a = model.forward(x).data
    eval_b = model.forward(x).data
    assert np.array_equal(eval_a, eval_b)
    train_a = model.forward(x, train=True, rng=np.random.default_rng(0)).data
    train_b = model.forward(x, train=True, rng=np.random.default_rng(1)).data
    assert not np.array_equal(train_a, train_b)


def test_argmax_predictions_invariant_to_positive_rescaling():
    model = ds.GnnModel.build("mlp", 4, 8, 3, dropout=0.0, seed=5)
    x = np.random.default_rng(0).standard_normal((10, 4))
    logits = model.forward(x).data
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(17.0 * logits, axis=1))


# ---------------------------------------------------------------------------
# link scoring
# ---------------------------------------------------------------------------

def test_zero_embeddings_score_half():
    model = ds.GnnModel.build("mlp", 3, 4, 3, dropout=0.0)
    for p in model.params.values():
        p.data[:] = 0.0
    scores = ds.predict_links(model, np.ones((4, 3)), [(0, 1), (2, 3)])
    assert np.array_equal(scores, np.full(2, 0.5))


def test_link_scores_symmetric_and_bounded():
    model = ds.GnnModel.build("mlp", 5, 8, 4, dropout=0.0, seed=1)
    feats = np.random.default_rng(2).standard_normal((12, 5))
    pairs = [(0, 3), (5, 1), (7, 11), (4, 4)]
    fwd = ds.predict_links(model, feats, pairs)
    rev = ds.predict_links(model, feats, [(v, u) for u, v in pairs])
    assert np.array_equal(fwd, rev)
    assert np.all((fwd > 0.0) & (fwd < 1.0))


def test_link_scores_match_hand_logistic():
    # Identity model: output z equals input features.
    model = ds.GnnModel.build("mlp", 3, 3, 3, num_layers=1, dropout=0.0)
    model.params["l0.w"].data = np.eye(3)
    model.params["l0.b"].data = np.zeros(3)
    feats = np.array([[1.0, 2.0, -1.0],
                      [0.5, -1.0, 2.0],
                      [3.0, 0.0, 1.0]])
    scores = ds.predict_links(model, feats, [(0, 1), (0, 2), (1, 2)])
    dots = np.array([feats[0] @ feats[1], feats[0] @ feats[2], feats[1] @ feats[2]])
    assert np.max(np.abs(scores - logistic(dots))) < 1e-12


def test_predict_links_rejects_out_of_range_ids():
    model = ds.GnnModel.build("mlp", 3, 4, 2, dropout=0.0)
    with pytest.raises(IndexError):
        ds.predict_links(model, np.zeros((4, 3)), [(0, 4)])


def test_link_bce_of_zero_logits_is_log_two():
    z = dc.constant(np.zeros((6, 3)))
    pairs = np.array([(0, 1), (2, 3), (4, 5)])
    loss = ds.link_bce(z, pairs, np.array([1, 0, 1]))
    assert abs(loss.item() - np.log(2.0)) < 1e-15


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
    model = ds.GnnModel.build("gcn", 6, 8, 8, dropout=0.0, operator=operator_of("gcn", graph))
    ds._add_mlp_scorer(model, 8, np.random.default_rng(0))
    ds.predict_links(model, community_embeddings(graph, seed=3), [(0, 5), (3, 20)])
    assert recorded_ops
    assert all(t._backward_fn is None for t in recorded_ops)


def test_node_classifier_eval_forward_records_no_backward(recorded_ops, monkeypatch):
    graph = labeled_graph(seed=1)
    step = dc.adam_step
    monkeypatch.setattr(dc, "adam_step", lambda *a: (recorded_ops.append("step"), step(*a)))
    cfg = ds.DownstreamConfig.for_node_classification(hidden_dim=8, epochs=1, seed=0)
    ds.train_node_classifier(one_hot_embeddings(graph, 3), graph, cfg)
    after = recorded_ops.index("step")
    assert any(t._backward_fn is not None for t in recorded_ops[:after])
    assert recorded_ops[after + 1:]
    assert all(t._backward_fn is None for t in recorded_ops[after + 1:])


def test_link_predictor_rejects_row_mismatch():
    graph = community_graph(seed=4)
    split = gs.build_link_split(graph, seed=4)
    with pytest.raises(ConfigError):
        ds.train_link_predictor(ds.random_embeddings(graph.num_nodes - 1, 4),
                                graph, split, ds.DownstreamConfig())


def test_config_task_defaults_and_validation():
    assert ds.DownstreamConfig.for_node_classification().lr == 1e-2
    assert ds.DownstreamConfig.for_link_prediction().lr == 1e-4
    assert ds.DownstreamConfig.for_link_prediction(lr=0.5).lr == 0.5
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(link_scorer="bilinear").validate()
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(batch_edges=1).validate()
    with pytest.raises(ConfigError):
        ds.DownstreamConfig(lr=0.0).validate()


# ---------------------------------------------------------------------------
# split scoring
# ---------------------------------------------------------------------------

def test_score_splits_matches_accuracy_on_each_node_split():
    graph = labeled_graph(seed=5)
    emb = ds.random_embeddings(graph.num_nodes, 4, seed=5)
    model = ds.GnnModel.build("gcn", 4, 8, 3, dropout=0.5, seed=5,
                              operator=operator_of("gcn", graph))
    preds = np.argmax(model.forward(emb.matrix).data, axis=1)
    got = ds.score_splits(model, emb, graph, parts=("train", "val", "test", "holdout"))
    for part in ("train", "val", "test"):
        idx = graph.splits[part]
        assert got[part] == accuracy(preds[idx], graph.labels[idx])
    assert np.isnan(got["holdout"])


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
    model = ds.GnnModel.build(backbone, 5, 8, 4, num_layers=num_layers, dropout=0.4,
                              seed=2, operator=operator_of(backbone, graph))
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
        model = ds.GnnModel.build(backbone, 4, 6, 3, dropout=0.3, seed=3,
                                  operator=operator_of(backbone, graph))
        rng = np.random.default_rng(8)
        out = (model.forward(feats, train=True, rng=rng, rows=rows) if sliced else
               dc.embedding_lookup(model.forward(feats, train=True, rng=rng), rows))
        dc.backward(dc.sum_axis(dc.sum_axis(dc.mul(out, weights), 1), 0))
        grads.append({name: p.grad for name, p in model.params.items()})
    for name, want in grads[1].items():
        np.testing.assert_allclose(grads[0][name], want, rtol=1e-12, atol=1e-14)


def test_link_fit_mlp_head_matmuls_see_only_batch_endpoints(recorded_ops, monkeypatch):
    graph = community_graph(seed=5)
    split = gs.build_link_split(graph, seed=5)
    steps = []
    bce = ds.link_bce

    def spy(z, pairs, labels, model=None):
        steps.append((len(recorded_ops), np.unique(pairs).size))
        return bce(z, pairs, labels, model)

    monkeypatch.setattr(ds, "link_bce", spy)
    cfg = ds.DownstreamConfig.for_link_prediction(
        backbone="mlp", hidden_dim=8, epochs=2, patience=2, batch_edges=16)
    ds.train_link_predictor(community_embeddings(graph, seed=5), graph, split, cfg)
    assert len(steps) > 2
    start = 0
    for end, endpoints in steps:
        # Each step's 2-D training matmuls are the head's layers; the dot
        # scorer's pair products are 3-D and eval forwards record no op.
        heights = [t.shape[0] for t in recorded_ops[start:end]
                   if t._op == "matmul" and t.ndim == 2]
        assert heights == [endpoints] * cfg.num_layers
        assert endpoints < graph.num_nodes
        start = end
