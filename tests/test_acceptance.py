"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with -s (or read captured output) to see the per-criterion PASS/FAIL
lines. Every check here compares the package against an independent oracle
(central finite differences, closed forms, brute-force pairwise counts,
breadth-first search, dense matrix algebra) or pins an end-to-end property
(overfit capability, ablation direction, convergence shape, determinism).
"""

import math
import time
from collections import Counter, deque
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from fdcheck import assert_grads_close, finite_diff_grads
from nodegae import autoencoder as ae
from nodegae import diffcore as dc
from nodegae import downstream as ds
from nodegae import evalmetrics as em
from nodegae import graphstore as gs
from nodegae import textcorpus as tc
from nodegae.cli import main as cli_main


@contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


# ---------------------------------------------------------------------------
# shared 512-node synthetic study (criteria 6 and 7)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def study():
    """512-node homophilous graph plus embeddings from both pretrain variants."""
    spec = tc.SyntheticGraphSpec(
        num_nodes=512, num_classes=6, keywords_per_class=20, doc_length=(8, 16),
        intra_class_edge_prob=0.05, inter_class_edge_prob=0.005, seed=11)
    graph = tc.generate_synthetic(spec)

    def pretrain(alphas):
        vocab = tc.build_vocab(graph.texts, max_size=512)
        mcfg = ae.ModelConfig(vocab_size=vocab.size, d_enc=32, d_dec=32,
                              enc_layers=1, dec_layers=1, heads=2, proj_len=2,
                              ff_mult=1, max_len=16)
        model = ae.AutoencoderModel.init(mcfg, vocab, seed=0)
        adam = dc.AdamState.for_params(model.parameters(), base_lr=1e-3,
                                       warmup_steps=20, clip_norm=1.0)
        rng = np.random.default_rng(0)
        icfg = ae.InfoNCEConfig(alphas=alphas)
        for _ in range(60):
            batch = rng.choice(graph.num_nodes, size=16, replace=False)
            ae.pretrain_step(model, graph, batch, adam, rng, icfg)
        return ae.extract_embeddings(model, graph)

    return {
        "graph": graph,
        "with": pretrain((1.0, 0.1)),
        "without": pretrain((0.0, 0.0)),
        "split": gs.build_link_split(graph, seed=0),
    }


def _test_auc(model, emb, split):
    pos, neg = split.positives("test"), split.negatives("test")
    pairs = np.concatenate([pos, neg], axis=0)
    scores = ds.predict_links(model, emb, pairs)
    labels = np.concatenate([np.ones(len(pos), dtype=int),
                             np.zeros(len(neg), dtype=int)])
    return em.roc_auc(scores, labels)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def _scalarize(t, weights):
    """Weighted sum of all entries, so every output position gets a distinct
    adjoint and the full Jacobian is exercised."""
    flat = dc.reshape(dc.mul(t, dc.constant(weights)), (1, t.data.size))
    return dc.matmul(flat, dc.constant(np.ones((t.data.size, 1))))


def _check_op_grads(build_output, params, rng, context):
    weights = rng.normal(size=build_output().shape)
    for p in params:
        p.grad = None
    loss = _scalarize(build_output(), weights)
    dc.backward(loss)
    analytic = [p.grad.copy() for p in params]
    numeric = finite_diff_grads(
        lambda _: float(_scalarize(build_output(), weights).item()),
        [p.data for p in params], eps=1e-5)
    for p, a, n in zip(params, analytic, numeric):
        assert_grads_close(a, n, rtol=1e-4, context=context)


def _op_gradient_cases(rng):
    a = dc.parameter(rng.normal(size=(3, 4)))
    b = dc.parameter(rng.normal(size=(4,)))
    m1 = dc.parameter(rng.normal(size=(3, 4)))
    m2 = dc.parameter(rng.normal(size=(4, 5)))
    mb = dc.parameter(rng.normal(size=(2, 3, 4)))
    x44 = dc.parameter(rng.normal(size=(4, 4)))
    x35 = dc.parameter(rng.normal(size=(3, 5)))
    x38 = dc.parameter(rng.normal(size=(3, 8)))
    x36 = dc.parameter(rng.normal(size=(3, 6)))
    x234 = dc.parameter(rng.normal(size=(2, 3, 4)))
    table = dc.parameter(rng.normal(size=(6, 4)))
    ids = np.array([0, 2, 2, 5, 1])
    c1 = dc.parameter(rng.normal(size=(2, 3)))
    c2 = dc.parameter(rng.normal(size=(3, 3)))
    c3 = dc.parameter(rng.normal(size=(1, 3)))
    spmm_a = sp.csr_matrix(np.array([[0.0, 1.0, 0.0, -2.0],
                                     [0.5, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [3.0, 0.0, -1.5, 1.0]]))  # not symmetric
    pad_bias = np.zeros((2, 1, 1, 3))
    pad_bias[1, 0, 0, 2] = ae.MASK_BIAS  # batch row 1 has a pad key in column 2
    causal_bias = np.triu(np.full((3, 3), ae.MASK_BIAS), k=1)
    return [
        ("add", lambda: dc.add(a, b), [a, b]),
        ("mul", lambda: dc.mul(a, b), [a, b]),
        ("matmul", lambda: dc.matmul(m1, m2), [m1, m2]),
        ("matmul_batched", lambda: dc.matmul(mb, m2), [mb, m2]),
        ("relu", lambda: dc.relu(x44), [x44]),
        ("gelu", lambda: dc.gelu(x44), [x44]),
        ("softmax_lastdim", lambda: dc.softmax_lastdim(x35), [x35]),
        ("layernorm_lastdim", lambda: dc.layernorm_lastdim(x38), [x38]),
        ("embedding_lookup", lambda: dc.embedding_lookup(table, ids), [table]),
        ("sum_axis", lambda: dc.sum_axis(x36, 1), [x36]),
        ("reshape", lambda: dc.reshape(m1, (2, 6)), [m1]),
        ("concat", lambda: dc.concat([c1, c2, c3], axis=0), [c1, c2, c3]),
        ("transpose", lambda: dc.transpose(x234, (2, 0, 1)), [x234]),
        ("transpose_swap_last2", lambda: dc.transpose(x234, (0, 2, 1)), [x234]),
        ("l2_normalize_lastdim", lambda: dc.l2_normalize_lastdim(m1), [m1]),
        ("spmm", lambda: dc.spmm(spmm_a, m2), [m2]),
        # Attention reuses the draws above, viewed as (B, T, d) with d = 4.
        ("attention_self_padded",
         lambda: dc.attention(x234, mb, dc.reshape(x38, (2, 3, 4)), 2, pad_bias),
         [x234, mb, x38]),
        ("attention_causal",
         lambda: dc.attention(mb, dc.reshape(table, (2, 3, 4)), x234, 1, causal_bias),
         [mb, table, x234]),
        ("attention_cross",
         lambda: dc.attention(dc.reshape(m1, (1, 3, 4)), dc.reshape(x38, (1, 6, 4)),
                              dc.reshape(table, (1, 6, 4)), 2),
         [m1, x38, table]),
    ]


COMBINED_FD_TENSORS = [
    "enc.pos_emb", "enc.l0.ln1.g", "enc.l0.attn.wq", "enc.l0.attn.wo",
    "enc.l0.ff.w1", "enc.l0.ff.b2", "enc.out_ln.b", "proj.w1", "proj.w2",
    "dec.l0.attn.wv", "dec.l0.cross.wk", "dec.l0.ln3.g", "dec.l0.ff.w2",
    "dec.out_ln.g",
]


def _pretrain_total(model, graph, batch, positives, cfg):
    return dc.add(*ae.pretrain_loss(model, graph, batch, positives, cfg))


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    with verdict("criterion 1 (gradient suite, eps 1e-5 rtol 1e-4, 10 seeds)"):
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            for name, build, params in _op_gradient_cases(rng):
                _check_op_grads(build, params, rng, f"{name}/seed{seed}")
            # cross_entropy_logits is already scalar-valued
            logits = dc.parameter(rng.normal(size=(6, 5)))
            targets = np.array([1, 0, 3, 0, 2, 4])
            loss = dc.cross_entropy_logits(logits, targets, ignore_index=0,
                                           reduction="mean")
            dc.backward(loss)
            analytic = [logits.grad.copy()]
            numeric = finite_diff_grads(
                lambda _: float(dc.cross_entropy_logits(
                    logits, targets, ignore_index=0, reduction="mean").item()),
                [logits.data], eps=1e-5)
            assert_grads_close(analytic[0], numeric[0], rtol=1e-4,
                               context=f"cross_entropy_logits/seed{seed}")

        # full training objective: reconstruction plus hop-weighted contrastive
        spec = tc.SyntheticGraphSpec(num_nodes=8, num_classes=2,
                                     keywords_per_class=6, doc_length=(3, 6),
                                     intra_class_edge_prob=0.4,
                                     inter_class_edge_prob=0.05, seed=6)
        graph = tc.generate_synthetic(spec)
        vocab = tc.build_vocab(graph.texts, max_size=64)
        mcfg = ae.ModelConfig(vocab_size=vocab.size, d_enc=4, d_dec=4,
                              enc_layers=1, dec_layers=1, heads=2, proj_len=2,
                              ff_mult=1, max_len=8)
        model = ae.AutoencoderModel.init(mcfg, vocab, seed=0)
        icfg = ae.InfoNCEConfig(tau=0.5, hops=(1, 2), alphas=(1.0, 0.1))
        batch = [0, 1, 2]
        for tensor in COMBINED_FD_TENSORS:
            assert model.params[tensor].data.size <= 64, tensor

        for seed in range(10):
            # Unit-order parameters keep the layer norms away from the
            # tiny-variance regime where third derivatives would swamp a
            # central difference; the seed base also clears the projection
            # relu of its kink for every seed here.
            prng = np.random.default_rng(3000 + seed)
            for p in model.params.values():
                p.data = prng.normal(0.0, 0.4, size=p.data.shape)
                p.grad = None
            rng = np.random.default_rng(3000 + seed)
            positives = ae.draw_positives(graph, batch, rng, icfg)
            loss = _pretrain_total(model, graph, batch, positives, icfg)
            dc.backward(loss)
            analytic = [model.params[n].grad.copy() for n in COMBINED_FD_TENSORS]
            arrays = [model.params[n].data for n in COMBINED_FD_TENSORS]
            numeric = finite_diff_grads(
                lambda _: float(_pretrain_total(
                    model, graph, batch, positives, icfg).item()),
                arrays, eps=1e-5)
            for name, a, n in zip(COMBINED_FD_TENSORS, analytic, numeric):
                assert_grads_close(a, n, rtol=1e-4, context=f"{name}/seed{seed}")

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: loss oracles
# ---------------------------------------------------------------------------

def test_criterion_2_loss_closed_forms():
    with verdict("criterion 2 (loss closed forms)"):
        # Anchor 0 = e1 with positive e1 (row 2); anchor 1 = e2 is its one
        # negative and has no positive, so the batch mean is half the term.
        latents = dc.constant([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        rows = {1: [2, -1]}

        cfg = ae.InfoNCEConfig(tau=1.0, hops=(1,), alphas=(1.0,))
        got = ae.infonce_loss(latents, rows, cfg).item()
        want = -math.log(math.e / (math.e + 1.0)) / 2.0
        assert abs(got - want) < 1e-10, f"tau=1: {got} vs {want}"

        cfg_half = ae.InfoNCEConfig(tau=0.5, hops=(1,), alphas=(1.0,))
        got = ae.infonce_loss(latents, rows, cfg_half).item()
        want = math.log1p(math.exp(-2.0)) / 2.0
        assert abs(got - want) < 1e-10, f"tau=0.5: {got} vs {want}"

        got = ae.infonce_loss(latents, {1: [2]}, cfg).item()
        assert got == 0.0, f"zero negatives: {got}"

        vocab = 21
        logits = dc.constant(np.zeros((1, 3, vocab)))
        loss = ae.lm_loss(logits, np.array([[5, 6, 4]])).item()
        assert abs(loss - math.log(vocab)) < 1e-9, f"uniform lm: {loss}"


# ---------------------------------------------------------------------------
# criterion 3: metric oracles
# ---------------------------------------------------------------------------

def _auc_brute_force(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def _bleu_oracle(cand, ref, max_order=4):
    logs = []
    for n in range(1, max_order + 1):
        cg = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
        rg = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        matched = sum(min(c, rg[g]) for g, c in cg.items())
        total = sum(cg.values())
        if matched == 0:
            if n == 1:
                return 0.0
            matched, total = matched + 1, total + 1
        logs.append(math.log(matched / total))
    brevity = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return brevity * math.exp(sum(logs) / max_order)


def test_criterion_3_metric_oracles():
    with verdict("criterion 3 (metric oracles)"):
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            scores = rng.normal(size=30)
            labels = rng.integers(0, 2, size=30)
            labels[0], labels[1] = 0, 1
            assert abs(em.roc_auc(scores, labels)
                       - _auc_brute_force(scores, labels)) < 1e-12
            tied = np.round(scores, 1)
            assert abs(em.roc_auc(tied, labels)
                       - _auc_brute_force(tied, labels)) < 1e-12

        assert em.accuracy([1, 2, 2, 3], [1, 2, 3, 3]) == 0.75

        assert abs(em.rouge_l("a b c d".split(), "a c d e".split()) - 0.75) < 1e-15
        assert abs(em.token_f1("a a b".split(), "a b b".split()) - 2.0 / 3.0) < 1e-15

        cand = "the cat sat on the mat near the old tree".split()
        ref = "the cat lay on the mat by the tall tree".split()
        assert abs(em.bleu(cand, ref) - _bleu_oracle(cand, ref)) < 1e-12
        assert em.bleu(cand, cand) == pytest.approx(1.0, abs=1e-12)
        assert em.bleu("x y".split(), "p q".split()) == 0.0
        alphabet = list("abcdef")
        for seed in range(5):
            rng = np.random.default_rng(900 + seed)
            c = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(5, 13))]
            r = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(5, 13))]
            assert abs(em.bleu(c, r) - _bleu_oracle(c, r)) < 1e-12, (c, r)


# ---------------------------------------------------------------------------
# criterion 4: graph oracles
# ---------------------------------------------------------------------------

def _bfs_distances(n, edge_set, start):
    adj = {v: [] for v in range(n)}
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _dense_norm_adj(n, edges, self_loops):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    if self_loops:
        a = a + np.eye(n)
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return a * inv[:, None] * inv[None, :]


def _random_edges(n, p, rng):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return edges


def test_criterion_4_graph_oracles():
    with verdict("criterion 4 (graph oracles)"):
        # hop sets against an independent breadth-first search
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            edges = _random_edges(50, 0.06, rng)
            graph = gs.TextGraph.from_edges(50, edges)
            for v in range(50):
                dist = _bfs_distances(50, edges, v)
                for k in (1, 2):
                    want = {u for u, d in dist.items() if d == k}
                    got = gs.hop_frontier(graph, [v], k)
                    assert got.tolist() == sorted(want), (seed, v, k)

        # degree-normalized adjacency against dense algebra
        cases = [
            (2, [(0, 1)]),
            (4, [(0, 1), (0, 2), (0, 3)]),
            (5, [(0, 1), (1, 2), (2, 3)]),
            (3, []),
            (5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
        ]
        for n, edges in cases:
            for self_loops in (False, True):
                graph = gs.TextGraph.from_edges(n, edges)
                got = gs.normalized_adjacency(
                    graph, add_self_loops=self_loops).toarray()
                want = _dense_norm_adj(n, edges, self_loops)
                assert np.max(np.abs(got - want)) < 1e-12, (n, edges, self_loops)
                assert np.max(np.abs(got - got.T)) == 0.0
                if self_loops:
                    radius = float(np.max(np.abs(np.linalg.eigvalsh(want))))
                    assert radius <= 1.0 + 1e-12

        # link split: exhaustive leakage audit on 20-node graphs
        for seed in range(3):
            rng = np.random.default_rng(40 + seed)
            edges = _random_edges(20, 0.25, rng)
            graph = gs.TextGraph.from_edges(20, edges)
            split = gs.build_link_split(graph, seed=seed)
            full = {tuple(sorted(e)) for e in edges}
            pos = {p: {tuple(r) for r in split.positives(p)}
                   for p in ("train", "val", "test")}
            neg = {p: {tuple(r) for r in split.negatives(p)}
                   for p in ("train", "val", "test")}
            assert pos["train"] | pos["val"] | pos["test"] == full
            assert not (pos["train"] & pos["val"])
            assert not (pos["train"] & pos["test"])
            assert not (pos["val"] & pos["test"])
            all_negs = neg["train"] | neg["val"] | neg["test"]
            assert not (all_negs & full), "negative coincides with an edge"
            assert len(all_negs) == sum(len(neg[p]) for p in neg), \
                "negatives repeat across partitions"
            for p in ("train", "val", "test"):
                assert len(split.negatives(p)) == len(split.positives(p))
                ratio = {"train": 0.7, "val": 0.2, "test": 0.1}[p]
                assert abs(len(pos[p]) - ratio * len(full)) <= 1.0
            message = split.train_message_graph(graph)
            msg_edges = set()
            for u in range(message.num_nodes):
                row = message.indices[message.indptr[u]:message.indptr[u + 1]]
                for w in row:
                    msg_edges.add(tuple(sorted((u, int(w)))))
            assert msg_edges == pos["train"], "message graph leaks held-out edges"


# ---------------------------------------------------------------------------
# criterion 5: reconstruction overfit
# ---------------------------------------------------------------------------

def test_criterion_5_reconstruction_overfit():
    started = time.perf_counter()
    with verdict("criterion 5 (8-document overfit, token F1 >= 0.9)"):
        docs = [
            "orbit probe relays faint signal",
            "glacier melt feeds the braided river",
            "drummer counts four then the band enters",
            "lighthouse keeper logs every passing ship",
            "sourdough starter doubles overnight in warmth",
            "chess opening trades a pawn for tempo",
            "fireflies blink in phase across the meadow",
            "typesetter kerns the headline by hand",
        ]
        graph = gs.TextGraph.from_edges(
            8, [(i, (i + 1) % 8) for i in range(8)], texts=docs)
        vocab = tc.build_vocab(docs, max_size=128)
        mcfg = ae.ModelConfig(vocab_size=vocab.size, d_enc=32, d_dec=32,
                              enc_layers=1, dec_layers=1, heads=2, proj_len=4,
                              ff_mult=2, max_len=12)
        model = ae.AutoencoderModel.init(mcfg, vocab, seed=0)
        adam = dc.AdamState.for_params(model.parameters(), base_lr=3e-3,
                                       warmup_steps=50, clip_norm=1.0)
        icfg = ae.InfoNCEConfig(alphas=(0.0, 0.0))
        rng = np.random.default_rng(0)
        batch = np.arange(8)

        best = 0.0
        for step in range(1, 2001):
            ae.pretrain_step(model, graph, batch, adam, rng, icfg)
            if step % 100 == 0:
                f1s = []
                for v in range(8):
                    tokens = model.tokens_for(docs[v])
                    gen = tc.decode(ae.reconstruct(model, tokens), vocab)
                    ref = tc.decode(tokens, vocab)
                    f1s.append(em.token_f1(gen, ref) if gen else 0.0)
                best = max(best, float(np.mean(f1s)))
                if best >= 0.9:
                    break
        assert best >= 0.9, f"token F1 reached only {best:.3f} in 2000 steps"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 6: ablation direction
# ---------------------------------------------------------------------------

def test_criterion_6_ablation_direction(study):
    with verdict("criterion 6 (contrastive loss helps MLP, 5 seeds)"):
        graph = study["graph"]

        def nodecls_mean(emb):
            accs = []
            for seed in range(5):
                cfg = ds.DownstreamConfig.for_node_classification(
                    backbone="mlp", epochs=60, patience=60, seed=seed)
                model, _ = ds.train_node_classifier(emb, graph, cfg)
                preds = np.argmax(model.forward(emb.matrix).data, axis=1)
                idx = graph.splits["test"]
                accs.append(em.accuracy(preds[idx], graph.labels[idx]))
            return float(np.mean(accs))

        acc_with = nodecls_mean(study["with"])
        acc_without = nodecls_mean(study["without"])
        assert acc_with > acc_without, \
            f"node classification: {acc_with:.4f} <= {acc_without:.4f}"

        def linkpred_mean(emb):
            aucs = []
            for seed in range(5):
                cfg = ds.DownstreamConfig.for_link_prediction(
                    backbone="mlp", epochs=4, patience=4, seed=seed,
                    batch_edges=128, lr=1e-2)
                model, _ = ds.train_link_predictor(emb, graph, study["split"], cfg)
                aucs.append(_test_auc(model, emb, study["split"]))
            return float(np.mean(aucs))

        auc_with = linkpred_mean(study["with"])
        auc_without = linkpred_mean(study["without"])
        assert auc_with > auc_without, \
            f"link prediction: {auc_with:.4f} <= {auc_without:.4f}"


# ---------------------------------------------------------------------------
# criterion 7: convergence shape
# ---------------------------------------------------------------------------

def test_criterion_7_convergence_shape(study):
    with verdict("criterion 7 (early convergence on pretrained embeddings)"):
        graph = study["graph"]
        emb_rand = ds.random_embeddings(graph.num_nodes, 32, seed=1)

        def val_curve(emb, seed):
            cfg = ds.DownstreamConfig.for_link_prediction(
                backbone="mlp", epochs=8, patience=8, seed=seed,
                batch_edges=128, lr=1e-2, log_every_iter=True)
            _, log = ds.train_link_predictor(emb, graph, study["split"], cfg)
            return np.asarray([r["value"] for r in log if r["scope"] == "iter"])

        for seed in range(5):
            ours = val_curve(study["with"], seed)
            rand = val_curve(emb_rand, seed)
            assert len(ours) > 25 and len(rand) > 25
            plateau = 0.95 * ours[-1]
            assert ours[:25].max() >= plateau, \
                f"seed {seed}: {ours[:25].max():.4f} < {plateau:.4f}"
            assert rand[:25].max() < plateau, \
                f"seed {seed}: random baseline at {rand[:25].max():.4f} " \
                f"already above {plateau:.4f}"


# ---------------------------------------------------------------------------
# criterion 8: pipeline determinism
# ---------------------------------------------------------------------------

def _run_pipeline(root):
    data = root / "data"
    run = root / "run"
    emb = root / "emb.txt"
    report = root / "report"
    assert cli_main(["generate", "--out", str(data), "--nodes", "48",
                     "--classes", "3", "--keywords-per-class", "8",
                     "--doc-min", "4", "--doc-max", "8", "--intra-prob", "0.3",
                     "--inter-prob", "0.03", "--seed", "7"]) == 0
    assert cli_main(["pretrain", "--dataset", str(data), "--out-dir", str(run),
                     "--steps", "15", "--batch-size", "8", "--d-enc", "16",
                     "--d-dec", "16", "--enc-layers", "1", "--dec-layers", "1",
                     "--heads", "2", "--proj-len", "2", "--ff-mult", "1",
                     "--max-len", "16", "--vocab-size", "256",
                     "--recon-every", "0", "--seed", "3"]) == 0
    assert cli_main(["embed", "--dataset", str(data),
                     "--checkpoint", str(run / "model.npz"),
                     "--out", str(emb)]) == 0
    assert cli_main(["train", "--dataset", str(data), "--embeddings", str(emb),
                     "--out-dir", str(report), "--task", "nodecls",
                     "--backbone", "mlp", "--repeats", "2", "--epochs", "8",
                     "--patience", "8", "--seed", "1"]) == 0
    return [emb.read_bytes()] + [
        (report / name).read_bytes()
        for name in ("report.csv", "epochs.csv", "summary.txt")]


def test_criterion_8_pipeline_determinism(tmp_path):
    with verdict("criterion 8 (byte-identical pipeline reruns)"):
        first = _run_pipeline(tmp_path / "one")
        second = _run_pipeline(tmp_path / "two")
        assert first == second, "pipeline artifacts differ between reruns"
