"""Tests for the text autoencoder: forward oracles, losses, pretraining."""

import math
import re
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from scipy.special import erf

from conftest import edit_checkpoint, kept_bytes, kept_inputs, saved_arrays
from fdcheck import assert_grads_close, finite_diff_grads
from reference_tape import (padded_decoder_logits, padded_encoder_hidden,
                            padded_pretrain_loss)

from nodegae import autoencoder as ae
from nodegae import diffcore as dc
from nodegae import textcorpus as tc
from nodegae.errors import ConfigError, ContractError, DimensionError


def tiny_vocab(num_words=8):
    words = [f"w{i}" for i in range(num_words)]
    return tc.build_vocab([" ".join(words)], max_size=num_words + 4)


def tiny_model(seed=0, **overrides):
    vocab = tiny_vocab()
    kw = dict(vocab_size=vocab.size, d_enc=8, d_dec=8, enc_layers=2,
              dec_layers=1, heads=2, proj_len=2, ff_mult=2, max_len=12)
    kw.update(overrides)
    cfg = ae.ModelConfig(**kw)
    return ae.AutoencoderModel.init(cfg, vocab, seed=seed)


# ---------------------------------------------------------------------------
# configuration and initialization
# ---------------------------------------------------------------------------

def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        ae.ModelConfig(vocab_size=12, d_enc=10, heads=4)


@pytest.mark.parametrize("value", [64.0, True, "64", np.int64(64)])
def test_config_rejects_a_size_that_is_no_int(value):
    with pytest.raises(ConfigError, match=re.escape(f"d_enc must be an int, got {value!r}")):
        ae.ModelConfig(vocab_size=12, d_enc=value)


def test_config_rejects_nonpositive_sizes():
    with pytest.raises(ConfigError):
        ae.ModelConfig(vocab_size=12, proj_len=0)
    # Frozen: a built config stays the checked one.
    with pytest.raises(FrozenInstanceError):
        ae.ModelConfig(vocab_size=12).proj_len = 0


def test_init_rejects_vocab_mismatch():
    vocab = tiny_vocab()
    cfg = ae.ModelConfig(vocab_size=vocab.size + 3, d_enc=8, d_dec=8, heads=2)
    with pytest.raises(ConfigError):
        ae.AutoencoderModel.init(cfg, vocab)


def test_init_is_deterministic():
    a, b = tiny_model(seed=3), tiny_model(seed=3)
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


# ---------------------------------------------------------------------------
# encoder forward
# ---------------------------------------------------------------------------

def numpy_encoder_oracle(model, ids):
    """Straight-line reimplementation of the encoder with plain numpy."""
    P = {k: v.data for k, v in model.params.items()}
    cfg = model.config
    ids = np.asarray(ids)
    t = len(ids)
    heads, dh = cfg.heads, cfg.d_enc // cfg.heads

    def ln(v, prefix):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-12) * P[prefix + ".g"] + P[prefix + ".b"]

    def softmax(s):
        e = np.exp(s - s.max(-1, keepdims=True))
        return e / e.sum(-1, keepdims=True)

    def gelu(v):
        return v * 0.5 * (1.0 + erf(v / np.sqrt(2.0)))

    x = P["enc.tok_emb"][ids] + P["enc.pos_emb"][:t]
    key_bias = np.where(ids == tc.PAD_ID, -1e30, 0.0)
    for i in range(cfg.enc_layers):
        p = f"enc.l{i}"
        a = ln(x, p + ".ln1")
        q = (a @ P[p + ".attn.wq"]).reshape(t, heads, dh).transpose(1, 0, 2)
        k = (a @ P[p + ".attn.wk"]).reshape(t, heads, dh).transpose(1, 0, 2)
        v = (a @ P[p + ".attn.wv"]).reshape(t, heads, dh).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) * (1.0 / np.sqrt(dh)) + key_bias[None, None, :]
        ctx = (softmax(scores) @ v).transpose(1, 0, 2).reshape(t, cfg.d_enc)
        x = x + ctx @ P[p + ".attn.wo"]
        f = ln(x, p + ".ln2")
        x = x + gelu(f @ P[p + ".ff.w1"] + P[p + ".ff.b1"]) @ P[p + ".ff.w2"] + P[p + ".ff.b2"]
    x = ln(x, "enc.out_ln")
    mask = ids != tc.PAD_ID
    return x[mask].sum(axis=0) / mask.sum()


@pytest.mark.parametrize("seed", range(4))
def test_encode_node_matches_numpy_oracle(seed):
    model = tiny_model(seed=seed)
    rng = np.random.default_rng(seed)
    length = int(rng.integers(2, 9))
    ids = np.append(rng.integers(4, model.vocab.size, size=length), tc.EOS_ID)
    got = ae.encode_node(model, ids).data
    want = numpy_encoder_oracle(model, ids)
    assert np.max(np.abs(got - want)) < 1e-9


def test_single_token_latent_is_that_position_state():
    model = tiny_model()
    ids = np.array([5])
    hidden = ae.encoder_hidden(model, ids[None, :]).data[0]
    h = ae.encode_node(model, ids).data
    assert np.array_equal(h, hidden)


def test_encode_batch_rejects_1d_ids():
    model = tiny_model()
    with pytest.raises(ContractError):
        ae.encode_batch(model, np.array([4, 5, tc.EOS_ID]))


def test_all_pad_sequence_rejected():
    model = tiny_model()
    with pytest.raises(ContractError):
        ae.encode_node(model, np.array([tc.PAD_ID, tc.PAD_ID]))


def test_latent_invariant_to_appended_padding():
    # The pooled sum is bit-exact under padding; the attention matmuls can
    # regroup their accumulation once the padded length crosses a kernel
    # block size, which moves single bits. Allow one part in 1e12.
    model = tiny_model()
    ids = np.array([4, 7, 5, tc.EOS_ID])
    base = ae.encode_node(model, ids).data
    for extra in (1, 3, 6, 8):
        padded = np.append(ids, [tc.PAD_ID] * extra)
        got = ae.encode_node(model, padded).data
        assert np.max(np.abs(got - base)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_packed_encoder_rows_equal_the_padded_oracle(seed):
    rng = np.random.default_rng(seed)
    model = tiny_model(seed=seed)
    lengths = rng.integers(1, 10, size=int(rng.integers(1, 6)))
    seqs = [np.append(rng.integers(4, model.vocab.size, size=n - 1), tc.EOS_ID)
            for n in lengths]
    ids = tc.pad_sequences(seqs)
    got = ae.encoder_hidden(model, ids).data
    want = padded_encoder_hidden(model, ids).data
    assert got.shape == (lengths.sum(), model.config.d_enc)
    assert got.tobytes() == want[ids != tc.PAD_ID].tobytes()


def test_batched_rows_match_single_encoding():
    model = tiny_model()
    seqs = [np.array([4, 5, tc.EOS_ID]), np.array([6, tc.EOS_ID]),
            np.array([7, 8, 9, 4, tc.EOS_ID])]
    batch = ae.encode_batch(model, tc.pad_sequences(seqs)).data
    for i, s in enumerate(seqs):
        single = ae.encode_node(model, s).data
        assert np.max(np.abs(batch[i] - single)) <= 1e-12


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_zero_w1_gives_zero_matrix():
    model = tiny_model()
    model.params["proj.w1"].data[:] = 0.0
    h = dc.constant(np.ones((1, model.config.d_enc)))
    assert np.all(ae.project(model, h).data == 0.0)


def test_project_single_slot_degenerates_to_vector_head():
    model = tiny_model(proj_len=1)
    h = dc.constant(np.arange(8, dtype=np.float64)[None, :])
    out = ae.project(model, h)
    assert out.shape == (1, 1, 8)


def test_project_matches_hand_multiplication():
    model = tiny_model(d_enc=4, d_dec=4, heads=2, proj_len=1)
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((4, 4))
    w2 = rng.standard_normal((4, 4))
    model.params["proj.w1"].data = w1.copy()
    model.params["proj.w2"].data = w2.copy()
    h = rng.standard_normal((1, 4))
    got = ae.project(model, dc.constant(h)).data
    want = (np.maximum(h @ w1, 0.0) @ w2).reshape(1, 1, 4)
    assert np.max(np.abs(got - want)) < 1e-12


def test_project_rejects_wrong_width():
    model = tiny_model()
    with pytest.raises(DimensionError):
        ae.project(model, dc.constant(np.ones((1, 5))))
    with pytest.raises(DimensionError):  # one latent vector, not a (1, d_enc) batch
        ae.project(model, dc.constant(np.ones(model.config.d_enc)))


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def test_decoder_logits_shape_and_causality():
    model = tiny_model()
    rng = np.random.default_rng(1)
    memory = dc.constant(rng.standard_normal((1, model.config.proj_len, 8)))
    ids = np.array([[tc.BOS_ID, 4, 5, 6]])
    logits = ae.decoder_logits(model, memory, ids, [4]).data
    assert logits.shape == (4, model.vocab.size)
    # Changing a future token must not move earlier positions.
    altered = ids.copy()
    altered[0, 3] = 9
    logits2 = ae.decoder_logits(model, memory, altered, [4]).data
    assert np.array_equal(logits[:3], logits2[:3])


@pytest.mark.parametrize("seed", range(3))
def test_packed_decoder_rows_equal_the_padded_oracle(seed):
    rng = np.random.default_rng(seed)
    model = tiny_model(seed=seed)
    lengths = rng.integers(1, 10, size=3)
    targets = tc.pad_sequences([np.append(rng.integers(4, model.vocab.size, size=n - 1),
                                          tc.EOS_ID) for n in lengths])
    dec_ids = ae.shift_for_teacher_forcing(targets)
    memory = dc.constant(rng.standard_normal((3, model.config.proj_len, 8)))
    want = padded_decoder_logits(model, memory, dec_ids).data
    got = ae.decoder_logits(model, memory, dec_ids, (dec_ids != tc.PAD_ID).sum(axis=1)).data
    assert got.tobytes() == want[dec_ids != tc.PAD_ID].tobytes()
    # Every position may get a row, a PAD input too; its key stays masked.
    every = ae.decoder_logits(model, memory, dec_ids, np.full(3, dec_ids.shape[1])).data
    assert every.tobytes() == want.reshape(-1, model.vocab.size).tobytes()
    with pytest.raises(ContractError):
        ae.decoder_logits(model, memory, dec_ids, [2, 1])


@pytest.mark.parametrize("seed", range(3))
def test_decoder_logits_rows_are_each_rows_first_lengths_inputs(seed):
    rng = np.random.default_rng(10 + seed)
    model = tiny_model(seed=seed, dec_layers=2)
    b, t = 6, 9
    # Rows of 1..t-1 real inputs, each followed by PAD inputs.
    dec_ids = np.full((b, t), tc.PAD_ID)
    for row, n in enumerate(rng.integers(1, t, size=b)):
        dec_ids[row, :n] = np.append(tc.BOS_ID, rng.integers(4, model.vocab.size, size=n - 1))
    memory = dc.constant(rng.standard_normal((b, model.config.proj_len, 8)))
    every = ae.decoder_logits(model, memory, dec_ids, np.full(b, t)).data.reshape(b, t, -1)
    lengths = rng.integers(0, t + 1, size=b)
    lengths[:2] = 0, t
    got = ae.decoder_logits(model, memory, dec_ids, lengths).data
    want = every[np.arange(t) < lengths[:, None]]
    assert got.shape == (lengths.sum(), model.vocab.size)
    assert got.tobytes() == want.tobytes()


def test_decoder_logits_rejects_lengths_that_are_no_row_prefixes():
    model = tiny_model()
    memory = dc.constant(np.zeros((2, model.config.proj_len, 8)))
    dec_ids = np.array([[tc.BOS_ID, 4, 5], [tc.BOS_ID, 6, tc.PAD_ID]])
    for lengths in ([3], [[3, 2]], 3, [3.0, 2.0], [True, True], [-1, 2], [3, 4]):
        with pytest.raises(ContractError, match="lengths"):
            ae.decoder_logits(model, memory, dec_ids, lengths)
    assert ae.decoder_logits(model, memory, dec_ids, [3, 0]).data.shape == (3, model.vocab.size)


def test_decoder_logits_rejects_2d_memory():
    model = tiny_model()
    memory = dc.constant(np.zeros((model.config.proj_len, 8)))
    with pytest.raises(DimensionError):
        ae.decoder_logits(model, memory, np.array([[tc.BOS_ID, 4]]), [2])


def test_shift_for_teacher_forcing():
    targets = np.array([[5, 6, tc.EOS_ID, tc.PAD_ID]])
    shifted = ae.shift_for_teacher_forcing(targets)
    assert shifted.tolist() == [[tc.BOS_ID, 5, 6, tc.EOS_ID]]


# ---------------------------------------------------------------------------
# reconstruction loss
# ---------------------------------------------------------------------------

def test_lm_loss_uniform_logits_is_log_vocab():
    vocab = 2048
    logits = dc.constant(np.zeros((1, 3, vocab)))
    targets = np.array([[5, 9, tc.EOS_ID]])
    loss = ae.lm_loss(logits, targets)
    assert abs(float(loss.item()) - np.log(vocab)) < 1e-9


def test_lm_loss_confident_correct_logits_vanish():
    vocab = 32
    targets = np.array([[4, 7]])
    logits = np.zeros((1, 2, vocab))
    logits[0, 0, 4] = 60.0
    logits[0, 1, 7] = 60.0
    loss = ae.lm_loss(dc.constant(logits), targets)
    assert float(loss.item()) < 1e-15


def test_lm_loss_ignores_pad_positions():
    rng = np.random.default_rng(0)
    vocab = 16
    core = rng.standard_normal((1, 3, vocab))
    targets = np.array([[4, 5, 6]])
    base = float(ae.lm_loss(dc.constant(core), targets).item())
    padded_logits = np.concatenate([core, rng.standard_normal((1, 2, vocab))], axis=1)
    padded_targets = np.array([[4, 5, 6, tc.PAD_ID, tc.PAD_ID]])
    padded = float(ae.lm_loss(dc.constant(padded_logits), padded_targets).item())
    assert abs(base - padded) < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_lm_loss_matches_direct_nll(seed):
    rng = np.random.default_rng(seed)
    vocab, t = 11, 6
    logits = rng.standard_normal((2, t, vocab))
    targets = rng.integers(4, vocab, size=(2, t))
    targets[0, -2:] = tc.PAD_ID
    # Direct softmax-then-gather oracle.
    total, count = 0.0, 0
    for b in range(2):
        for i in range(t):
            if targets[b, i] == tc.PAD_ID:
                continue
            row = logits[b, i]
            p = np.exp(row - row.max())
            p /= p.sum()
            total += -np.log(p[targets[b, i]])
            count += 1
    want = total / count
    got = float(ae.lm_loss(dc.constant(logits), targets).item())
    assert abs(got - want) < 1e-12


def test_lm_loss_all_pad_rejected():
    logits = dc.constant(np.zeros((1, 2, 8)))
    with pytest.raises(ContractError):
        ae.lm_loss(logits, np.array([[tc.PAD_ID, tc.PAD_ID]]))


def test_lm_loss_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        ae.lm_loss(dc.constant(np.zeros((1, 2, 8))), np.array([[4, 5, 6]]))


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def unit(i, d=4):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def pair_loss(anchor, positives, negative, cfg):
    """infonce_loss of a B=2 batch: anchor 0 has the given hop positives;
    anchor 1 is its one negative and has none, so it adds nothing to the sum."""
    latents = [anchor, negative]
    rows = {}
    for hop in ae.HOPS:
        if positives.get(hop) is None:
            rows[hop] = [-1, -1]
        else:
            rows[hop] = [len(latents), -1]
            latents.append(positives[hop])
    return float(ae.infonce_loss(dc.constant(np.array(latents)), rows, cfg).item())


def infonce_oracle(latents, positive_rows, cfg):
    """Plain-numpy loop over anchors and hops, in the per-anchor form."""
    x = np.asarray(latents, dtype=np.float64)
    if cfg.normalize:
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    b = len(positive_rows[ae.HOPS[0]])
    total = 0.0
    for i in range(b):
        negatives = [x[i] @ x[j] / cfg.tau for j in range(b) if j != i]
        for hop, alpha in zip(ae.HOPS, cfg.alphas):
            row = positive_rows[hop][i]
            if row < 0:
                continue
            logits = np.array([x[i] @ x[row] / cfg.tau] + negatives)
            m = logits.max()
            total += alpha * (m + np.log(np.exp(logits - m).sum()) - logits[0])
    return total / b


@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("normalize", [True, False])
def test_infonce_matches_per_anchor_oracle(b, normalize):
    rng = np.random.default_rng(10 * b + normalize)
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.1), normalize=normalize)
    latents = rng.standard_normal((b + 3, 6))
    rows = {hop: rng.integers(0, b + 3, size=b) for hop in ae.HOPS}
    rows[1][0] = -1  # an anchor without a hop-1 positive
    if b > 1:
        rows[2][1:] = -1  # a hop where one anchor has a positive
    got = float(ae.infonce_loss(dc.constant(latents), rows, cfg).item())
    want = infonce_oracle(latents, rows, cfg)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    if b == 1:
        assert got == 0.0


def test_infonce_zero_negatives_is_exactly_zero():
    cfg = ae.InfoNCEConfig(tau=0.7, alphas=(1.0, 0.0))
    loss = ae.infonce_loss(dc.constant([unit(0), unit(1)]), {1: [1], 2: [-1]}, cfg)
    assert float(loss.item()) == 0.0


def test_infonce_canonical_orthogonal_case():
    cfg = ae.InfoNCEConfig(tau=1.0, alphas=(1.0, 0.0))
    loss = pair_loss(unit(0), {1: unit(0)}, unit(1), cfg)
    want = np.log1p(np.exp(-1.0)) / 2.0  # -log(e / (e + 1)), halved
    assert abs(loss - want) < 1e-10


def test_infonce_temperature_doubles_dots():
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.0))
    loss = pair_loss(unit(0), {1: unit(0)}, unit(1), cfg)
    want = np.log1p(np.exp(-2.0)) / 2.0
    assert abs(loss - want) < 1e-10


def test_infonce_normalizes_magnitudes_away():
    cfg = ae.InfoNCEConfig(tau=1.0, alphas=(1.0, 0.0))
    loss = pair_loss(2.5 * unit(0), {1: 7.0 * unit(0)}, 0.3 * unit(1), cfg)
    want = np.log1p(np.exp(-1.0)) / 2.0
    assert abs(loss - want) < 1e-10


def test_infonce_raw_mode_uses_unscaled_dots():
    cfg = ae.InfoNCEConfig(tau=1.0, alphas=(1.0, 0.0), normalize=False)
    anchor = 2.0 * unit(0)
    loss = pair_loss(anchor, {1: 3.0 * unit(0)}, unit(1), cfg)
    # dots: pos 6, neg 0.
    want = -np.log(np.exp(6.0) / (np.exp(6.0) + 1.0)) / 2.0
    assert abs(loss - want) < 1e-10


def test_infonce_multi_hop_weighted_sum():
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.1))
    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((4, 5))
    anchor, p1, p2, neg = vecs

    def term(pos):
        a = anchor / np.linalg.norm(anchor)
        p = pos / np.linalg.norm(pos)
        n = neg / np.linalg.norm(neg)
        lp, ln_ = a @ p / 0.5, a @ n / 0.5
        m = max(lp, ln_)
        return -(lp - (m + np.log(np.exp(lp - m) + np.exp(ln_ - m))))

    want = (term(p1) + 0.1 * term(p2)) / 2.0
    got = pair_loss(anchor, {1: p1, 2: p2}, neg, cfg)
    assert abs(got - want) < 1e-10


def test_infonce_absent_hop_contributes_zero():
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.1))
    both = pair_loss(unit(0), {1: unit(0), 2: None}, unit(1), cfg)
    only = pair_loss(unit(0), {1: unit(0)}, unit(1),
                     ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.0)))
    assert abs(both - only) < 1e-15


def test_infonce_all_hops_absent_is_zero_constant():
    cfg = ae.InfoNCEConfig()
    loss = ae.infonce_loss(dc.constant([unit(0), unit(1)]), {1: [-1, -1], 2: [-1, -1]}, cfg)
    assert float(loss.item()) == 0.0
    assert not loss.requires_grad


def test_infonce_invariant_to_negative_order():
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.0))
    rng = np.random.default_rng(3)
    vecs = [rng.standard_normal(6) for _ in range(5)]
    anchor, pos = vecs[0], vecs[1]
    negs = vecs[2:]
    rows = {1: [4, -1, -1, -1], 2: [-1, -1, -1, -1]}
    a = float(ae.infonce_loss(dc.constant([anchor] + negs + [pos]), rows, cfg).item())
    b = float(ae.infonce_loss(dc.constant([anchor] + negs[::-1] + [pos]), rows, cfg).item())
    assert abs(a - b) < 1e-12


def test_infonce_zero_norm_embedding_rejected():
    cfg = ae.InfoNCEConfig(tau=1.0, alphas=(1.0, 0.0))
    with pytest.raises(ContractError):
        pair_loss(np.zeros(4), {1: unit(0)}, unit(1), cfg)


@pytest.mark.parametrize("seed", range(5))
def test_infonce_is_nonnegative(seed):
    rng = np.random.default_rng(100 + seed)
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.1))
    anchor = rng.standard_normal(8)
    positives = [rng.standard_normal(8), rng.standard_normal(8)]
    negs = [rng.standard_normal(8) for _ in range(3)]
    latents = dc.constant([anchor] + negs + positives)
    rows = {1: [4, 5, 0, -1], 2: [5, -1, 4, 1]}
    assert float(ae.infonce_loss(latents, rows, cfg).item()) >= 0.0


def test_infonce_config_validation():
    with pytest.raises(ConfigError):
        ae.InfoNCEConfig(tau=0.0)
    with pytest.raises(ConfigError):
        ae.InfoNCEConfig(alphas=(1.0,))
    with pytest.raises(ConfigError):
        ae.InfoNCEConfig(alphas=(-0.5, 0.1))
    with pytest.raises(FrozenInstanceError):
        ae.InfoNCEConfig().tau = 0.0


@pytest.mark.parametrize("field, value", [
    ("tau", math.nan), ("tau", math.inf), ("tau", -1.0), ("tau", True), ("tau", "0.5"),
    ("alphas", (math.nan, 0.1)), ("alphas", (1.0, math.inf)), ("alphas", (1.0, 0.1, 0.0)),
    ("alphas", (True, 0.1)), ("alphas", (1.0, "0.1")), ("alphas", 5), ("alphas", "ab"),
    ("normalize", 1), ("normalize", "yes"), ("normalize", None),
])
def test_infonce_config_refuses_a_value_naming_its_field(field, value):
    # load_model names the field by the first word of the message.
    with pytest.raises(ConfigError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        ae.InfoNCEConfig(**{field: value})


def test_infonce_config_stores_alphas_as_a_tuple():
    assert ae.InfoNCEConfig(alphas=[1, 0.5]).alphas == (1, 0.5)
    assert ae.InfoNCEConfig(alphas=[1, 0.5]) == ae.InfoNCEConfig(alphas=(1, 0.5))


# ---------------------------------------------------------------------------
# pretraining step
# ---------------------------------------------------------------------------

def toy_graph(num_nodes=16, seed=0):
    spec = tc.SyntheticGraphSpec(
        num_nodes=num_nodes, num_classes=2, keywords_per_class=6,
        doc_length=(3, 6), intra_class_edge_prob=0.4,
        inter_class_edge_prob=0.05, seed=seed)
    return tc.generate_synthetic(spec)


def model_for(graph, seed=0, **overrides):
    vocab = tc.build_vocab(graph.texts, max_size=64)
    kw = dict(vocab_size=vocab.size, d_enc=8, d_dec=8, enc_layers=1,
              dec_layers=1, heads=2, proj_len=2, ff_mult=2, max_len=12)
    kw.update(overrides)
    return ae.AutoencoderModel.init(ae.ModelConfig(**kw), vocab, seed=seed)


def test_pretrain_step_needs_two_anchors():
    graph = toy_graph()
    model = model_for(graph)
    adam = dc.AdamState.for_params(model.parameters(), base_lr=1e-3)
    with pytest.raises(ContractError):
        ae.pretrain_step(model, graph, [0], adam, np.random.default_rng(0),
                         ae.InfoNCEConfig())


def test_pretrain_step_alpha_zero_matches_pure_reconstruction():
    graph = toy_graph()
    batch = [0, 1, 2, 3]
    cfg = ae.InfoNCEConfig(alphas=(0.0, 0.0))

    model_a = model_for(graph, seed=9)
    adam_a = dc.AdamState.for_params(model_a.parameters(), base_lr=1e-3)
    lm_a, info_a = ae.pretrain_step(model_a, graph, batch, adam_a,
                                    np.random.default_rng(0), cfg)
    assert info_a == 0.0

    # Manual reconstruction-only step on an identically initialized model.
    model_b = model_for(graph, seed=9)
    adam_b = dc.AdamState.for_params(model_b.parameters(), base_lr=1e-3)
    ids = tc.pad_sequences([model_b.tokens_for(graph.texts[v]) for v in batch])
    latents = ae.encode_batch(model_b, ids)
    memory = ae.project(model_b, latents)
    dec_ids = ae.shift_for_teacher_forcing(ids)
    logits = ae.decoder_logits(model_b, memory, dec_ids, (dec_ids != tc.PAD_ID).sum(axis=1))
    loss = ae.lm_loss(logits, ids[dec_ids != tc.PAD_ID])
    dc.backward(loss)
    dc.adam_step(model_b.parameters(), adam_b)

    assert float(loss.item()) == lm_a
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data)


def test_pretrain_smoke_loss_decreases():
    graph = toy_graph(num_nodes=24, seed=1)
    model = model_for(graph, seed=1, d_enc=16, d_dec=16, heads=2)
    adam = dc.AdamState.for_params(model.parameters(), base_lr=3e-3,
                                   warmup_steps=10)
    rng = np.random.default_rng(0)
    cfg = ae.InfoNCEConfig()
    totals = []
    for _ in range(120):
        batch = rng.choice(graph.num_nodes, size=6, replace=False)
        lm, info = ae.pretrain_step(model, graph, batch, adam, rng, cfg)
        totals.append(lm + info)
    assert np.mean(totals[-10:]) < np.mean(totals[:10])


def test_pretrain_trajectories_deterministic():
    def run():
        graph = toy_graph(num_nodes=12, seed=2)
        model = model_for(graph, seed=2)
        adam = dc.AdamState.for_params(model.parameters(), base_lr=1e-3)
        rng = np.random.default_rng(5)
        out = []
        for _ in range(10):
            batch = rng.choice(graph.num_nodes, size=4, replace=False)
            out.append(ae.pretrain_step(model, graph, batch, adam, rng,
                                        ae.InfoNCEConfig()))
        return out

    assert run() == run()


# ---------------------------------------------------------------------------
# embedding extraction and generation
# ---------------------------------------------------------------------------

def test_extract_embeddings_shape_and_purity():
    graph = toy_graph(num_nodes=10)
    graph.texts[4] = graph.texts[2]
    model = model_for(graph)
    before = {k: v.data.copy() for k, v in model.params.items()}
    emb = ae.extract_embeddings(model, graph)
    assert emb.matrix.shape == (10, model.config.d_enc)
    assert emb.provenance == "nodegae"
    assert np.array_equal(emb.matrix[4], emb.matrix[2])
    for name in before:
        assert np.array_equal(model.params[name].data, before[name])


def test_extract_embeddings_rows_match_single_calls():
    graph = toy_graph(num_nodes=9, seed=3)
    model = model_for(graph, seed=3)
    emb = ae.extract_embeddings(model, graph)
    for v in range(graph.num_nodes):
        single = ae.encode_node(model, model.tokens_for(graph.texts[v])).data
        assert np.array_equal(emb.matrix[v], single)


def test_extract_embeddings_chunks_match_single_calls(monkeypatch):
    # A cap of twice the longest document's tokens takes two or more documents
    # per encode_batch call and splits the larger equal-length groups.
    graph = toy_graph(num_nodes=9, seed=3)
    model = model_for(graph, seed=3)
    whole = ae.extract_embeddings(model, graph).matrix
    cap = 2 * max(model.tokens_for(text).size for text in graph.texts)
    monkeypatch.setattr(ae, "EXTRACT_ROWS", cap)
    shapes = []
    encode_batch = ae.encode_batch

    def spy(model, ids):
        shapes.append(np.shape(ids))
        return encode_batch(model, ids)

    monkeypatch.setattr(ae, "encode_batch", spy)
    assert np.array_equal(ae.extract_embeddings(model, graph).matrix, whole)
    assert len(shapes) > len({t for _, t in shapes})  # some length took two calls
    assert all(b * t <= cap for b, t in shapes)


def test_extract_and_reconstruct_record_no_backward(recorded_ops):
    graph = toy_graph(num_nodes=6)
    model = model_for(graph)
    ae.extract_embeddings(model, graph)
    ae.reconstruct(model, model.tokens_for(graph.texts[0]), max_gen_len=3)
    assert recorded_ops
    assert all(t._node is None for t in recorded_ops)


def test_reconstruct_terminates_with_valid_ids():
    graph = toy_graph()
    model = model_for(graph)
    tokens = model.tokens_for(graph.texts[0])
    out = ae.reconstruct(model, tokens, max_gen_len=9)
    assert out.ndim == 1 and 1 <= len(out) <= 9
    assert np.all(out >= 0) and np.all(out < model.vocab.size)
    if tc.EOS_ID in out.tolist():
        assert out.tolist().index(tc.EOS_ID) == len(out) - 1


def test_reconstruct_deterministic():
    graph = toy_graph()
    model = model_for(graph)
    tokens = model.tokens_for(graph.texts[1])
    a = ae.reconstruct(model, tokens, max_gen_len=8)
    b = ae.reconstruct(model, tokens, max_gen_len=8)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_fresh(path, model, base_lr=1e-3, **kwargs):
    """save_model of model with a fresh optimizer at base_lr and the default InfoNCE settings."""
    ae.save_model(path, model, dc.AdamState.for_params(model.parameters(), base_lr=base_lr),
                  ae.InfoNCEConfig(), **kwargs)


def test_save_load_round_trip(tmp_path):
    graph = toy_graph()
    model = model_for(graph, seed=4)
    adam = dc.AdamState.for_params(model.parameters(), base_lr=2e-3,
                                   warmup_steps=7, clip_norm=0.5)
    rng = np.random.default_rng(0)
    for _ in range(3):
        ae.pretrain_step(model, graph, [0, 1, 2], adam, rng, ae.InfoNCEConfig())

    path = tmp_path / "model.npz"
    ae.save_model(path, model, adam, ae.InfoNCEConfig(), extra_meta={"note": "unit"})
    loaded, loaded_adam, loaded_icfg, meta = ae.load_model(path)
    assert loaded_icfg == ae.InfoNCEConfig()

    assert meta["note"] == "unit"
    assert loaded.config == model.config
    assert loaded.vocab.id_to_token == model.vocab.id_to_token
    for name in model.params:
        assert np.array_equal(loaded.params[name].data, model.params[name].data)
    assert loaded_adam.step_count == 3
    assert loaded_adam.base_lr == 2e-3
    assert loaded_adam.warmup_steps == 7
    assert loaded_adam.clip_norm == 0.5
    for a, b in zip(adam.first_moment, loaded_adam.first_moment):
        assert np.array_equal(a, b)

    # Resumed training continues the step numbering.
    ae.pretrain_step(loaded, graph, [0, 1, 2], loaded_adam, rng, ae.InfoNCEConfig())
    assert loaded_adam.step_count == 4


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    model = model_for(toy_graph())
    for p in model.params.values():
        p.data = rng.standard_normal(p.data.shape)
    model.params["dec.out_ln.b"].data *= 1e-12
    adam = dc.AdamState.for_params(model.parameters(), base_lr=1e-3, warmup_steps=3)
    for m, v in zip(adam.first_moment, adam.second_moment):
        m[...] = rng.standard_normal(m.shape)
        v[...] = rng.random(v.shape) * math.pi
    icfg = ae.InfoNCEConfig(tau=0.1 + 0.2, alphas=(1 / 3, 0.0), normalize=False)
    path = tmp_path / "model.npz"
    ae.save_model(path, model, adam, icfg, extra_meta={"step_count": 42, "d_enc": 8})
    with np.load(path) as bundle:
        keys = bundle.files
    opt = [f"t:opt.{k}.{name}" for name in model.params for k in "mv"]
    assert keys == [f"t:{name}" for name in model.params] + opt + ["__meta__"]
    loaded, loaded_adam, loaded_icfg, got_meta = ae.load_model(path)
    assert loaded_icfg == icfg and isinstance(loaded_icfg.alphas, tuple)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float64
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
    for a, b in zip(adam.first_moment + adam.second_moment,
                    loaded_adam.first_moment + loaded_adam.second_moment):
        np.testing.assert_array_equal(a, b)
    assert adam.settings() == {"step_count": 0, "beta1": 0.9, "beta2": 0.999,
                               "epsilon": 1e-8, "base_lr": 1e-3, "warmup_steps": 3,
                               "clip_norm": 1.0}
    assert loaded_adam.settings() == adam.settings()
    assert got_meta["step_count"] == 42
    assert got_meta["d_enc"] == 8
    assert got_meta["format_version"] == ae.CHECKPOINT_FORMAT_VERSION


def test_failed_checkpoint_save_leaves_the_old_file_and_no_temp_files(tmp_path, disk_full):
    rng = np.random.default_rng(5)
    model = model_for(toy_graph())
    model.params["lm_head"].data = rng.standard_normal(model.params["lm_head"].data.shape)
    path, log = tmp_path / "model.npz", tmp_path / "log.csv"
    save_fresh(path, model, extra_meta={"step_count": 1}, alongside=[(log, "step 1\n")])
    before = path.read_bytes()
    disk_full(".model.npz.", len(before) // 2)
    model.params["lm_head"].data = rng.standard_normal(model.params["lm_head"].data.shape)
    with pytest.raises(OSError, match="No space left"):
        save_fresh(path, model, extra_meta={"step_count": 2}, alongside=[(log, "step 2\n")])
    assert path.read_bytes() == before
    assert log.read_text() == "step 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "model.npz"]
    assert ae.load_model(path)[3]["step_count"] == 1


@pytest.mark.parametrize("edit, named", [
    (lambda meta: meta["optimizer"].pop("warmup_steps"), "warmup_steps"),
    (lambda meta: meta["optimizer"].update(momentum=0.9), "momentum"),
    (lambda meta: meta.update(optimizer=5), "clip_norm"),
], ids=["drop", "add", "no-mapping"])
def test_load_refuses_optimizer_block_with_other_keys(tmp_path, edit, named):
    graph = toy_graph()
    model = model_for(graph)
    path = tmp_path / "model.npz"
    save_fresh(path, model)
    edit_checkpoint(path, edit)
    with pytest.raises(ContractError, match=named) as caught:
        ae.load_model(path)
    assert str(caught.value).startswith(f"checkpoint {path}: 'optimizer' ")


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_load_refuses_config_block_with_other_keys(tmp_path, edit):
    # A dropped key once took ModelConfig's default, so this 3-layer, 8-head
    # checkpoint loaded as 2 layers and 4 heads; an added key raised TypeError.
    graph = toy_graph()
    model = model_for(graph, enc_layers=3, heads=8)
    path = tmp_path / "model.npz"
    save_fresh(path, model)
    keys = ["enc_layers", "heads"] if edit == "drop" else ["dropout"]

    def edit_config(meta):
        for key in keys:
            if edit == "drop":
                del meta["config"][key]
            else:
                meta["config"][key] = 0.1

    edit_checkpoint(path, edit_config)
    with pytest.raises(ContractError) as caught:
        ae.load_model(path)
    assert str(path) in str(caught.value)
    assert all(key in str(caught.value) for key in keys)


@pytest.mark.parametrize("value", ["2", 2.0, True])
def test_load_refuses_a_config_value_that_is_no_integer(tmp_path, value):
    # A string once escaped ModelConfig.validate as a TypeError; a float or a
    # bool passed it.
    graph = toy_graph()
    model = model_for(graph)
    path = tmp_path / "model.npz"
    save_fresh(path, model)
    edit_checkpoint(path, lambda meta: meta["config"].update(heads=value))
    with pytest.raises(ContractError) as caught:
        ae.load_model(path)
    assert str(caught.value) == f"checkpoint {path}: 'config.heads' must be an int, got {value!r}"


@pytest.mark.parametrize("name", ["enc.l9.ff.w1", "opt.m.enc.l9.ff.w1", "opt.x.lm_head"])
def test_load_refuses_a_tensor_that_names_no_parameter(tmp_path, name):
    graph = toy_graph()
    model = model_for(graph)
    path = tmp_path / "model.npz"
    save_fresh(path, model)
    edit_checkpoint(path, add={name: np.zeros((8, 16))})
    with pytest.raises(ContractError, match=re.escape(name)) as caught:
        ae.load_model(path)
    assert str(path) in str(caught.value)


def test_load_detects_missing_parameter(tmp_path):
    graph = toy_graph()
    model = model_for(graph)
    path = tmp_path / "model.npz"
    save_fresh(path, model)
    edit_checkpoint(path, drop=["lm_head"])
    with pytest.raises(ContractError, match="lm_head"):
        ae.load_model(path)


# One value per settings field that its dataclass refuses when built, and heads
# that do not divide the widths.
REFUSED_SETTINGS = [
    ("infonce", "tau", "x"), ("infonce", "alphas", [1.0]), ("infonce", "normalize", 1),
    ("config", "vocab_size", 4), ("config", "d_enc", 0), ("config", "d_dec", 0),
    ("config", "enc_layers", 0), ("config", "dec_layers", 0), ("config", "heads", 0),
    ("config", "proj_len", 0), ("config", "ff_mult", 0), ("config", "max_len", 1),
    ("config", "heads", 3),
    ("optimizer", "step_count", -1), ("optimizer", "beta1", 1.0), ("optimizer", "beta2", -0.1),
    ("optimizer", "epsilon", 0.0), ("optimizer", "base_lr", 0.0),
    ("optimizer", "warmup_steps", -1), ("optimizer", "clip_norm", 0.0),
]


def test_refused_settings_cover_every_field():
    covered = {(block, field) for block, field, _ in REFUSED_SETTINGS}
    assert covered == ({("config", f.name) for f in fields(ae.ModelConfig)}
                       | {("optimizer", name) for name in dc.AdamState([], []).settings()}
                       | {("infonce", f.name) for f in fields(ae.InfoNCEConfig)})


@pytest.mark.parametrize("block, field, value", REFUSED_SETTINGS)
def test_load_names_the_settings_field_its_dataclass_refuses(tmp_path, block, field, value):
    # load_model names the field by the first word of the dataclass's ConfigError,
    # so a message that does not start with its field fails here.
    model = tiny_model()
    path = tmp_path / "model.npz"
    save_fresh(path, model, base_lr=0.1)
    edit_checkpoint(path, lambda meta: meta[block].update({field: value}))
    with pytest.raises(ContractError) as caught:
        ae.load_model(path)
    assert str(caught.value).startswith(f"checkpoint {path}: '{block}.{field}' must ")


# ---------------------------------------------------------------------------
# gradients of the combined objective
# ---------------------------------------------------------------------------

def test_combined_loss_passes_finite_difference_check():
    graph = toy_graph(num_nodes=8, seed=6)
    model = model_for(graph, seed=11, d_enc=4, d_dec=4, heads=2, proj_len=2,
                      ff_mult=1, max_len=8)
    # The default init keeps embeddings near 0.02, which leaves the first
    # layer norm with a tiny variance and third derivatives large enough to
    # swamp a central difference at eps 1e-5. Rescale to unit-order values so
    # the check probes correctness rather than conditioning.
    prng = np.random.default_rng(42)
    for p in model.params.values():
        p.data = prng.normal(0.0, 0.4, size=p.data.shape)
    cfg = ae.InfoNCEConfig(tau=0.5, alphas=(1.0, 0.1))
    batch = [0, 1, 2]
    positives = ae.draw_positives(graph, batch, np.random.default_rng(0), cfg)

    # Keep the projection relu comfortably away from its kink.
    probe = ae.encode_batch(
        model, tc.pad_sequences([model.tokens_for(graph.texts[v]) for v in batch]))
    pre = probe.data @ model.params["proj.w1"].data
    assert np.min(np.abs(pre)) > 1e-3, "re-seed the test: relu input near kink"

    loss = dc.add(*ae.pretrain_loss(model, graph, batch, positives, cfg))
    dc.backward(loss)
    names = list(model.params)
    analytic = [model.params[n].grad.copy() for n in names]
    arrays = [model.params[n].data for n in names]

    def loss_value(_arrays):
        return float(dc.add(*ae.pretrain_loss(model, graph, batch, positives, cfg)).item())

    numeric = finite_diff_grads(loss_value, arrays, eps=1e-5)
    for name, a, n in zip(names, analytic, numeric):
        assert_grads_close(a, n, rtol=1e-4, context=name)


def test_pretrain_loss_records_one_attention_op_per_block(recorded_ops, monkeypatch):
    # 2 encoder self-attentions + 2 decoder layers x (self, cross) = 6, each
    # projecting its own q, k and v, and one feed_forward op in each of the 4
    # layers. Matmuls: each attention's output projection (6), the latent
    # projection (2), the LM head and InfoNCE's similarity GEMM = 10. Layer
    # norms: 2 x 2 in the encoder, 2 x 3 in the decoder, and one after each
    # stack = 12. Pooling places the packed rows in the grid with one to_grid
    # op. 70 recorded ops in all.
    biases = {}  # id of an attention output: the biases tuple its caller passed
    attention = dc.attention

    def spy(*args):
        out = attention(*args)
        biases[id(out)] = args[6]
        return out

    monkeypatch.setattr(dc, "attention", spy)
    graph = toy_graph()
    model = model_for(graph, enc_layers=2, dec_layers=2)
    cfg = ae.InfoNCEConfig()
    batch = [0, 1, 2, 3]
    positives = ae.draw_positives(graph, batch, np.random.default_rng(0), cfg)
    loss = dc.add(*ae.pretrain_loss(model, graph, batch, positives, cfg))
    nodes = [node for node in dc._topo_order(loss) if isinstance(node, dc.Node)]
    output_of = {id(t._node): t for t in recorded_ops if t._node is not None}
    ops = [node.op for node in nodes]
    assert ops.count("attention") == 6
    assert ops.count("feed_forward") == 4
    assert ops.count("layer_norm") == 12
    assert ops.count("matmul") == 10
    assert not [node for node in nodes if node.op == "matmul" and len(node.parents) == 3]
    assert len(nodes) == 70
    for gone in ("linear", "gelu", "softmax_lastdim", "layernorm_lastdim"):
        assert gone not in ops
    (grid,) = [output_of[id(node)] for node in nodes if node.op == "to_grid"]
    rows, t, _ = grid.shape
    # Attention keeps its softmax's row max and row sum, (B, heads, T, 1) each,
    # and no q, k, v or probabilities. Beside them it keeps only its inputs'
    # data, its caller's biases and the integer grid indices of its packed rows.
    # The feed-forward op keeps its input's data and one (n, ff) array.
    shapes, hidden = [], []
    for node in nodes:
        out = output_of.get(id(node))
        inputs = [output_of.get(id(p), p) for p in node.parents]
        if node.op == "attention":
            saved = saved_arrays(out, inputs + [dc.constant(a) for a in biases[id(out)]])
            stats = [a for a in saved if a.dtype == np.float64]
            assert all(a.dtype.kind == "i" and a.shape == (out.shape[0],)
                       for a in saved if a.dtype != np.float64)
            shapes += [a.shape for a in stats]
        elif node.op == "feed_forward":
            assert kept_inputs(out, inputs) == [0, 1, 2, 3]
            (cdf,) = saved_arrays(out, inputs)
            hidden.append(cdf.shape)
    heads, ff = model.config.heads, model.config.ff_mult * model.config.d_enc
    assert len(shapes) == 12
    assert shapes.count((rows, heads, t, 1)) == 4
    assert shapes.count((len(batch), heads, t, 1)) == 8
    assert len(hidden) == 4 and all(shape[1] == ff for shape in hidden)


def test_backward_of_a_term_sharing_a_walked_encoder_raises_and_changes_no_grad():
    graph = toy_graph()
    model = model_for(graph)
    cfg = ae.InfoNCEConfig()
    batch = [0, 1, 2, 3]
    positives = ae.draw_positives(graph, batch, np.random.default_rng(0), cfg)
    lm, info = ae.pretrain_loss(model, graph, batch, positives, cfg)
    assert info.requires_grad
    dc.backward(lm)
    before = {name: p.grad.tobytes() for name, p in model.params.items()}
    with pytest.raises(ContractError, match="an earlier backward walked"):
        dc.backward(info)
    assert {name: p.grad.tobytes() for name, p in model.params.items()} == before


def test_backward_frees_every_array_the_tape_kept(recorded_ops):
    graph = toy_graph()
    model = model_for(graph, enc_layers=2, dec_layers=2)
    cfg = ae.InfoNCEConfig()
    batch = [0, 1, 2, 3]
    positives = ae.draw_positives(graph, batch, np.random.default_rng(0), cfg)
    loss = dc.add(*ae.pretrain_loss(model, graph, batch, positives, cfg))
    # Parameters' data stays with the model; everything else a closure keeps is the tape's.
    kept = [weakref.ref(a) for t in recorded_ops if t._node is not None
            for a in saved_arrays(t, model.parameters())]
    recorded_ops.clear()
    assert len(kept) > 50 and all(ref() is not None for ref in kept)
    dc.backward(loss)
    assert [ref for ref in kept if ref() is not None] == []


def test_pretrain_loss_backward_peaks_no_higher_than_its_forward():
    # The default model on the default 512-node graph, one batch of 16.
    graph = tc.generate_synthetic(tc.SyntheticGraphSpec(seed=7))
    vocab = tc.build_vocab(graph.texts)
    model = ae.AutoencoderModel.init(ae.ModelConfig(vocab_size=vocab.size), vocab, seed=7)
    cfg = ae.InfoNCEConfig()
    rng = np.random.default_rng(0)
    batch = rng.choice(graph.num_nodes, size=16, replace=False)
    positives = ae.draw_positives(graph, batch, rng, cfg)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = dc.add(*ae.pretrain_loss(model, graph, batch, positives, cfg))
        tape, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dc.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert tape - start > 5e6  # megabytes that backward frees as it goes
    assert backward_peak <= forward_peak


# kept_bytes of the decoder_logits tape of the test below while the decoder
# passed attention the (B, 1, T, T) sum of its causal mask and key-pad row.
SUMMED_MASK_DECODER_TAPE_BYTES = 15_700_160


def test_decoder_tape_keeps_its_masks_as_addends_and_no_summed_grid(recorded_ops):
    # 16 documents of up to 121 decoder inputs, the paper's lengths; row i ends
    # in 7i PAD inputs.
    b, t = 16, 121
    rng = np.random.default_rng(3)
    vocab = tc.build_vocab(toy_graph().texts, max_size=64)
    model = ae.AutoencoderModel.init(ae.ModelConfig(vocab_size=vocab.size, max_len=128),
                                     vocab, seed=3)
    ids = rng.integers(tc.PAD_ID + 1, vocab.size, size=(b, t))
    ids[np.arange(t) >= (t - 7 * np.arange(b))[:, None]] = tc.PAD_ID
    memory = dc.parameter(rng.standard_normal((b, model.config.proj_len, model.config.d_dec)))
    logits = ae.decoder_logits(model, memory, ids, t - 7 * np.arange(b))
    # The tape drops the summed grid and keeps the (T, T) mask and the
    # (B, 1, 1, T) row it was summed from.
    assert kept_bytes(logits) <= SUMMED_MASK_DECODER_TAPE_BYTES - (b * t * t - t * t - b * t) * 8
    assert not [a.shape for out in recorded_ops if out._node is not None
                for a in saved_arrays(out) if a.size == b * t * t]


def test_pretrain_loss_equals_the_padded_oracle():
    graph = toy_graph(num_nodes=24, seed=1)
    model = model_for(graph, seed=1, d_enc=16, d_dec=16, enc_layers=2, dec_layers=2)
    cfg = ae.InfoNCEConfig()
    batch = [0, 3, 5, 8, 13, 21]
    positives = ae.draw_positives(graph, batch, np.random.default_rng(2), cfg)
    grads = []
    for loss_fn in (ae.pretrain_loss, padded_pretrain_loss):
        lm, info = loss_fn(model, graph, batch, positives, cfg)
        dc.backward(dc.add(lm, info))
        grads.append((lm.item(), info.item(), {n: p.grad for n, p in model.params.items()}))
        dc.zero_grads(model.parameters())
    (lm, info, got), (lm_want, info_want, want) = grads
    assert (lm, info) == (lm_want, info_want)
    for name in want:
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name
