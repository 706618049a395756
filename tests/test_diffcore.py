import gc
import itertools
import math
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf as cephes_erf

from nodegae import diffcore as dc
from nodegae.errors import ContractError, DimensionError, NodeGaeError

from conftest import saved_arrays
from fdcheck import assert_grads_close, finite_diff_grads, nudge_from_kinks
from reference_tape import (chain_dropout, chain_graph_layer, padded_attention,
                            reference_leaf_grads)

SEEDS = range(10)

# Not symmetric and with an empty row, so a backward pass that multiplied by
# the matrix instead of its transpose would fail the check.
SPARSE_OPERATOR = sp.csr_matrix(np.array([
    [0.0, 2.0, 0.0, -1.0],
    [0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [1.5, 0.0, 3.0, 0.0],
]))


MASK = -1e30
# Batch row 1 of the padded self-attention case has a pad in its last key column.
PADDED_KEY_BIAS = np.zeros((2, 1, 1, 3))
PADDED_KEY_BIAS[1, 0, 0, 2] = MASK
CAUSAL_BIAS = np.triu(np.full((4, 4), MASK), k=1)
# The same grid packed: batch row 0 holds 3 rows, batch row 1 the first 2.
PACKED_LAYOUT = (2, 3, np.array([0, 1, 2, 3, 4]))
DROPOUT_MASK = np.array([[True, False, True, True], [False, True, True, False],
                         [True, True, False, True]])


def scalarize(out, rng):
    """Project an op output to a scalar with a fixed random linear functional."""
    r = dc.constant(rng.standard_normal((out.size, 1)))
    flat = dc.reshape(out, (1, out.size))
    return dc.matmul(flat, r)


# ---------------------------------------------------------------------------
# Forward examples
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = dc.constant([[1.0, 2.0], [3.0, 4.0]])
    eye = dc.constant(np.eye(2))
    np.testing.assert_array_equal(dc.matmul(a, eye).data, a.data)


def test_softmax_uniform_on_equal_logits():
    out = dc.softmax_lastdim(dc.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_cross_entropy_uniform_logits_is_log_vocab():
    vocab = 2048
    logits = dc.constant(np.zeros((5, vocab)))
    loss = dc.cross_entropy_logits(logits, np.array([7, 0, 100, 2047, 13]))
    assert abs(loss.item() - math.log(vocab)) < 1e-9


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = dc.softmax_lastdim(dc.constant(rng.standard_normal((8, 11)) * 5))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(8), rtol=0, atol=1e-9)


def test_layernorm_centers_and_scales():
    rng = np.random.default_rng(1)
    out = dc.layernorm_lastdim(dc.constant(rng.standard_normal((6, 16)) * 3 + 2))
    mu = out.data.mean(axis=-1)
    var = out.data.var(axis=-1)
    assert np.abs(mu).max() < 1e-7
    assert np.abs(var - 1.0).max() < 1e-6


def test_shape_error_names_op_and_shapes():
    with pytest.raises(DimensionError) as err:
        dc.matmul(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 3))))
    msg = str(err.value)
    assert "matmul" in msg and "(2, 3)" in msg


def test_graph_layer_matches_dense_products_and_checks_shapes():
    rng = np.random.default_rng(4)
    x, w, ws = rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    dense, rows = SPARSE_OPERATOR.toarray(), np.array([3, 0, 3])
    x_, w_, ws_ = dc.constant(x), dc.constant(w), dc.constant(ws)
    cases = [
        (dc.graph_layer(SPARSE_OPERATOR, x_, w_), dense @ x @ w),
        (dc.graph_layer(SPARSE_OPERATOR, x_, w_, relu=True), np.maximum(dense @ x @ w, 0.0)),
        (dc.graph_layer(SPARSE_OPERATOR, x_, w_, ws_), dense @ x @ w + x @ ws),
        (dc.graph_layer(SPARSE_OPERATOR[rows], x_, w_, ws_, rows), (dense @ x @ w + x @ ws)[rows]),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.max(np.abs(got.data - want)) < 1e-12
    with pytest.raises(DimensionError):
        dc.graph_layer(SPARSE_OPERATOR, dc.constant(np.zeros((3, 3))), w_)  # 3 rows for 4 columns
    with pytest.raises(DimensionError):
        dc.graph_layer(SPARSE_OPERATOR, dc.constant(np.zeros(4)), w_)
    with pytest.raises(DimensionError):
        dc.graph_layer(SPARSE_OPERATOR, x_, dc.constant(np.zeros((2, 2))))
    with pytest.raises(DimensionError):
        dc.graph_layer(SPARSE_OPERATOR, x_, w_, dc.constant(np.zeros((3, 3))))
    with pytest.raises(DimensionError):
        dc.graph_layer(SPARSE_OPERATOR[rows], x_, w_, ws_)  # 3 operator rows, 4 self rows
    with pytest.raises(DimensionError):
        dc.graph_layer(SPARSE_OPERATOR, x_, w_, ws_, rows)
    with pytest.raises(ContractError):
        dc.graph_layer(SPARSE_OPERATOR[rows], x_, w_, rows=rows)  # gcn has no self term
    with pytest.raises(ContractError):
        dc.graph_layer(SPARSE_OPERATOR[[0]], x_, w_, ws_, [4])


def test_dropout_scales_kept_entries_and_checks_its_mask():
    x = np.arange(1.0, 7.0).reshape(2, 3)
    mask = np.array([[True, False, True], [False, False, True]])
    np.testing.assert_array_equal(dc.dropout(dc.constant(x), mask, 0.5).data,
                                  [[2.0, 0.0, 6.0], [0.0, 0.0, 12.0]])
    with pytest.raises(DimensionError):
        dc.dropout(dc.constant(x), mask.astype(np.float64), 0.5)
    with pytest.raises(DimensionError):
        dc.dropout(dc.constant(x), mask[:1], 0.5)
    for keep in (0.0, 1.5):
        with pytest.raises(ContractError):
            dc.dropout(dc.constant(x), mask, keep)


def test_sum_axis_matches_numpy_and_checks_axis():
    x = np.random.default_rng(5).standard_normal((2, 3, 4))
    for axis in (0, 1, 2, -1):
        out = dc.sum_axis(dc.constant(x), axis).data
        np.testing.assert_array_equal(out, x.sum(axis=axis))
    with pytest.raises(DimensionError):
        dc.sum_axis(dc.constant(x), 3)


def test_to_grid_places_rows_and_zero_fills_the_rest():
    x = np.random.default_rng(7).standard_normal((5, 4))
    out = dc.to_grid(dc.constant(x), PACKED_LAYOUT).data
    assert out.shape == (2, 3, 4)
    np.testing.assert_array_equal(out.reshape(6, 4)[:5], x)
    assert not np.any(out[1, 2])
    full = dc.to_grid(dc.constant(np.vstack([x, x[:1]])), (2, 3, np.arange(6))).data
    np.testing.assert_array_equal(full, np.vstack([x, x[:1]]).reshape(2, 3, 4))
    with pytest.raises(DimensionError):
        dc.to_grid(dc.constant(x), (2, 3, np.arange(4)))
    with pytest.raises(DimensionError):
        dc.to_grid(dc.constant(x.reshape(5, 2, 2)), PACKED_LAYOUT)


def attention_oracle(q, k, v, heads, bias=None):
    """Split heads, softmax(q kᵀ/sqrt(dh) + bias) v per head, merge heads."""
    b, tq, d = q.shape
    dh = d // heads

    def split(x):
        return x.reshape(b, x.shape[1], heads, dh).transpose(0, 2, 1, 3)

    scores = split(q) @ split(k).transpose(0, 1, 3, 2) / np.sqrt(dh)
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ split(v)
    return ctx.transpose(0, 2, 1, 3).reshape(b, tq, d)


@pytest.mark.parametrize("heads,tq,tk,bias", [
    (2, 3, 3, PADDED_KEY_BIAS), (1, 4, 4, CAUSAL_BIAS), (2, 3, 5, None), (4, 2, 6, None)])
def test_attention_matches_composed_oracle(heads, tq, tk, bias):
    rng = np.random.default_rng(6)
    q, k, v = (rng.standard_normal(s) for s in ((2, tq, 4), (2, tk, 4), (2, tk, 4)))
    out = dc.attention(dc.constant(q), dc.constant(k), dc.constant(v), heads, bias).data
    assert out.shape == (2, tq, 4)
    assert np.max(np.abs(out - attention_oracle(q, k, v, heads, bias))) <= 1e-12


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 5), tq=st.integers(1, 5),
       tk=st.integers(1, 5), heads=st.sampled_from([1, 2, 4]), head_dim=st.integers(1, 2),
       mask=st.sampled_from(["none", "padded", "causal"]))
def test_attention_random_shapes_match_oracle_and_finite_differences(seed, b, tq, tk, heads,
                                                                      head_dim, mask):
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    arrays = [rng.standard_normal(s) for s in ((b, tq, d), (b, tk, d), (b, tk, d))]
    bias = None
    if mask == "padded":  # every batch row keeps at least its first key
        bias = np.zeros((b, 1, 1, tk))
        for row, kept in enumerate(rng.integers(1, tk + 1, size=b)):
            bias[row, 0, 0, kept:] = MASK
    elif mask == "causal":
        bias = np.triu(np.full((tq, tk), MASK), k=1)
    proj_seed = int(rng.integers(1 << 31))

    def loss_value(arrs):
        out = dc.attention(*(dc.constant(a) for a in arrs), heads, bias)
        return scalarize(out, np.random.default_rng(proj_seed)).item()

    params = [dc.parameter(a.copy()) for a in arrays]
    out = dc.attention(*params, heads, bias)
    assert np.max(np.abs(out.data - attention_oracle(*arrays, heads, bias))) <= 1e-12
    dc.backward(dc.reshape(scalarize(out, np.random.default_rng(proj_seed)), ()))
    numeric = finite_diff_grads(loss_value, [a.copy() for a in arrays])
    for name, p, n in zip("qkv", params, numeric):
        assert_grads_close(p.grad, n, rtol=1e-4, context=f"attention d{name}")

    # Packed queries: each batch row keeps its first `length` positions, every
    # one of them in some draws. Self-attention packs keys and values on the
    # same layout and masks the rest; cross-attention reads the (B, tk, d)
    # keys and values above. Values and gradients equal the padded op's at
    # the real positions bit for bit, for an upstream gradient that is zero
    # at pad query rows; the padded op's pad key rows get zero gradients.
    lengths = rng.integers(1, tq + 1, size=b) if rng.random() < 0.7 else np.full(b, tq)
    real = np.arange(tq)[None, :] < lengths[:, None]
    flat = np.flatnonzero(real)
    upstream = rng.standard_normal((b, tq, d)) * real[:, :, None]
    key_bias = np.where(real, 0.0, MASK)[:, None, None, :]
    if mask == "causal":
        key_bias = key_bias + np.triu(np.full((tq, tq), MASK), k=1)
    grid = [arrays[0]] + [rng.standard_normal((b, tq, d)) for _ in "kv"]
    for kind, dense_in, kv_packed, case_bias in (("self", grid, True, key_bias),
                                                 ("cross", arrays, False, bias)):
        dense_params = [dc.parameter(a) for a in dense_in]
        dense = padded_attention(*dense_params, heads, case_bias)
        packed_params = [dc.parameter(a.reshape(-1, d)[flat]) for a in dense_in[:1]]
        packed_params += [dc.parameter(a.reshape(-1, d)[flat] if kv_packed else a)
                          for a in dense_in[1:]]
        packed = dc.attention(*packed_params, heads, case_bias, (b, tq, flat))
        assert packed.shape == (flat.size, d)
        assert np.array_equal(packed.data, dense.data.reshape(-1, d)[flat]), kind
        want = dense._backward_fn(upstream)
        got = packed._backward_fn(upstream.reshape(-1, d)[flat])
        assert np.array_equal(got[0], want[0].reshape(-1, d)[flat]), f"{kind} dq"
        for name, g, w in zip("kv", got[1:], want[1:]):
            if kv_packed:
                assert np.array_equal(g, w.reshape(-1, d)[flat]), f"{kind} d{name}"
                assert not np.any(np.delete(w.reshape(-1, d), flat, axis=0)), f"{kind} d{name}"
            else:
                assert np.array_equal(g, w), f"{kind} d{name}"


def test_attention_checks_shapes():
    x, y = dc.constant(np.zeros((2, 3, 4))), dc.constant(np.zeros((2, 5, 4)))
    with pytest.raises(DimensionError):
        dc.attention(x, y, x, 2)  # k and v lengths differ
    with pytest.raises(DimensionError):
        dc.attention(x, x, x, 3)  # heads do not divide the width
    with pytest.raises(DimensionError):
        dc.attention(x, y, y, 2, np.zeros((2, 1, 1, 3)))  # bias covers 3 keys, not 5
    with pytest.raises(DimensionError):
        dc.attention(dc.constant(np.zeros((3, 4))), x, x, 2)
    rows = dc.constant(np.zeros((5, 4)))
    layout = PACKED_LAYOUT
    assert dc.attention(rows, rows, rows, 2, None, layout).shape == (5, 4)
    assert dc.attention(rows, x, x, 2, None, layout).shape == (5, 4)
    with pytest.raises(DimensionError):
        dc.attention(x, x, x, 2, None, layout)  # a layout takes packed (n, d) queries
    with pytest.raises(DimensionError):
        dc.attention(rows, y, x, 2, None, layout)  # k and v lengths differ
    with pytest.raises(DimensionError):
        dc.attention(rows, dc.constant(np.zeros((4, 4))), rows, 2, None, layout)
    with pytest.raises(DimensionError):
        dc.attention(rows, rows, rows, 2, np.zeros((2, 1, 1, 5)), layout)  # 3 keys, not 5
    with pytest.raises(DimensionError):
        dc.attention(rows, rows, rows, 2, None, (2, 3, np.arange(6)))  # 5 rows, 6 positions
    for flat in ([0, 1, 3, 2, 4], [0, 1, 2, 3, 6], [-1, 0, 1, 2, 3], [0.0, 1, 2, 3, 4]):
        with pytest.raises(ContractError):
            dc.attention(rows, rows, rows, 2, None, (2, 3, np.array(flat)))
    with pytest.raises(ContractError):
        dc.attention(rows, rows, rows, 2, None, (2, 3))


# ---------------------------------------------------------------------------
# What each op's backward keeps, and the fused ops against the chains they replace
# ---------------------------------------------------------------------------

def test_attention_keeps_only_its_probabilities():
    rng = np.random.default_rng(12)
    q, k, v = (dc.parameter(rng.standard_normal(s)) for s in ((2, 3, 4), (2, 5, 4), (2, 5, 4)))
    out = dc.attention(q, k, v, 2)
    (p,) = saved_arrays(out)
    assert p.shape == (2, 2, 3, 5)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-15)


def test_layer_norm_keeps_its_normalised_rows_and_inverse_std():
    rng = np.random.default_rng(13)
    x = dc.parameter(rng.standard_normal((2, 3, 4)) * 3 + 2)
    out = dc.layer_norm(x, dc.parameter(rng.standard_normal(4)), dc.parameter(rng.standard_normal(4)))
    normed, inv = sorted(saved_arrays(out), key=lambda a: -a.size)
    assert normed.tobytes() == dc.layernorm_lastdim(x).data.tobytes()
    assert inv.shape == (2, 3, 1)
    np.testing.assert_allclose(inv, 1.0 / x.data.std(axis=-1, keepdims=True), rtol=1e-12)


def test_linear_keeps_nothing_beyond_its_operands():
    rng = np.random.default_rng(14)
    x, w, b = (dc.parameter(rng.standard_normal(s)) for s in ((2, 3, 4), (4, 5), (5,)))
    assert saved_arrays(dc.matmul(x, w, b)) == []


def _leaf_grads(build, arrays, trainable, weights):
    """Output bytes and each trainable leaf's gradient bytes of sum(build(*leaves) * weights)."""
    leaves = [dc.parameter(a.copy()) if t else dc.constant(a) for a, t in zip(arrays, trainable)]
    out = build(*leaves)
    if any(trainable):
        dc.backward(dc.sum_axis(dc.reshape(dc.mul(out, dc.constant(weights)), (-1,)), 0))
    return [out.data.tobytes()] + [None if leaf.grad is None else leaf.grad.tobytes()
                                   for leaf in leaves]


# "linear" is matmul with a bias: x @ w + b as one recorded op.
FUSED_OPS = {  # name: (fused op, the chain it replaces, input draws for leading axes)
    "linear": (dc.matmul, lambda x, w, b: dc.add(dc.matmul(x, w), b),
               lambda lead, rng: [rng.standard_normal(lead + (4,)), rng.standard_normal((4, 5)),
                                  rng.standard_normal(5)]),
    "layer_norm": (dc.layer_norm, lambda x, g, b: dc.add(dc.mul(dc.layernorm_lastdim(x), g), b),
                   lambda lead, rng: [rng.standard_normal(lead + (6,)) * 3 + 1,
                                      rng.standard_normal(6), rng.standard_normal(6)]),
}


@pytest.mark.parametrize("name", sorted(FUSED_OPS))
@pytest.mark.parametrize("lead", [(5,), (2, 3)])
@pytest.mark.parametrize("trainable", list(itertools.product((True, False), repeat=3)))
def test_fused_op_equals_its_chain_bit_for_bit(name, lead, trainable):
    fused, chain, draw = FUSED_OPS[name]
    rng = np.random.default_rng(15)
    arrays = draw(lead, rng)
    weights = rng.standard_normal(fused(*(dc.constant(a) for a in arrays)).shape)
    assert (_leaf_grads(fused, arrays, trainable, weights)
            == _leaf_grads(chain, arrays, trainable, weights))


def _graph_inputs():
    """A 37-node operator with an empty row, (37, 6) features and two (6, 5) weights,
    each with signed zeros, plus output weights that hold signed zeros too."""
    rng = np.random.default_rng(16)
    dense = rng.standard_normal((37, 37)) * (rng.random((37, 37)) < 0.15)
    dense[5] = 0.0
    arrays = [rng.standard_normal(shape) for shape in ((37, 6), (6, 5), (6, 5))]
    for arr in arrays:
        arr.reshape(-1)[::7] = 0.0
        arr.reshape(-1)[3::7] = -0.0
    rows = {"all": None, "increasing": np.flatnonzero(rng.random(37) < 0.4),
            "repeated": rng.integers(0, 37, 25)}
    weights = rng.standard_normal((37, 5))
    weights.reshape(-1)[::5] = -0.0
    return sp.csr_matrix(dense), arrays, rows, weights


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("rows", ["all", "increasing", "repeated"])
@pytest.mark.parametrize("trainable", [t + (s,) for t in itertools.product((True, False), repeat=2)
                                       for s in (None, True, False)])
def test_graph_layer_equals_its_chain_bit_for_bit(relu, rows, trainable):
    """trainable flags x and w, then sage's self weight (None for a gcn layer)."""
    a, arrays, row_sets, weights = _graph_inputs()
    ids = row_sets[rows]
    if ids is not None:
        a, weights = a[ids], weights[:ids.size]
    if trainable[2] is None:  # gcn: a row slice of the operator, no self term
        trainable, arrays = trainable[:2], arrays[:2]
        fused = lambda x, w: dc.graph_layer(a, x, w, relu=relu)
        chain = lambda x, w: chain_graph_layer(a, x, w, relu=relu)
    else:
        fused = lambda x, w, ws: dc.graph_layer(a, x, w, ws, ids, relu=relu)
        chain = lambda x, w, ws: chain_graph_layer(a, x, w, ws, ids, relu=relu)
    assert (_leaf_grads(fused, arrays, trainable, weights)
            == _leaf_grads(chain, arrays, trainable, weights))


@pytest.mark.parametrize("keep", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("trainable", [True, False])
def test_dropout_equals_its_chain_bit_for_bit(keep, trainable):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((9, 7))
    x.reshape(-1)[::4] = -0.0
    x.reshape(-1)[1::4] = 0.0
    mask = rng.random(x.shape) < keep
    weights = rng.standard_normal(x.shape)
    assert (_leaf_grads(lambda t: dc.dropout(t, mask, keep), [x], [trainable], weights)
            == _leaf_grads(lambda t: chain_dropout(t, mask, keep), [x], [trainable], weights))


def test_dropout_keeps_only_its_bool_mask():
    rng = np.random.default_rng(18)
    mask = rng.random((5, 3)) < 0.5
    (kept,) = saved_arrays(dc.dropout(dc.parameter(rng.standard_normal((5, 3))), mask, 0.5))
    assert kept.dtype == np.bool_ and kept.shape == (5, 3)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_graph_layer_keeps_a_x_and_only_sage_keeps_x(backbone):
    """A constant input is no parent: the gcn op lets it go, the sage op keeps its
    data for the self weight's gradient, and neither keeps the tensor itself."""
    rng = np.random.default_rng(19)
    data = rng.standard_normal((4, 3))
    x = dc.constant(data)
    alive = weakref.ref(x)
    w = dc.parameter(rng.standard_normal((3, 2)))
    w_self = dc.parameter(rng.standard_normal((3, 2))) if backbone == "sage" else None
    out = dc.graph_layer(SPARSE_OPERATOR, x, w, w_self, relu=True)
    del x
    gc.collect()
    assert alive() is None
    saved = sorted(saved_arrays(out), key=lambda arr: np.shares_memory(arr, data))
    assert saved[0].tobytes() == (SPARSE_OPERATOR @ data).tobytes()
    if backbone == "gcn":
        assert len(saved) == 1
    else:
        assert len(saved) == 2 and np.shares_memory(saved[1], data)
    dc.backward(dc.sum_axis(dc.reshape(out, (-1,)), 0))
    relu_grad = np.ones(out.shape) * (out.data > 0.0)
    assert w.grad.tobytes() == ((SPARSE_OPERATOR @ data).T @ relu_grad).tobytes()


def test_fused_ops_check_shapes():
    x, w = dc.constant(np.zeros((2, 3, 4))), dc.constant(np.zeros((4, 5)))
    with pytest.raises(DimensionError, match="bias"):
        dc.matmul(x, w, dc.constant(np.zeros(4)))  # bias width is not w's
    with pytest.raises(DimensionError, match="bias"):
        dc.matmul(x, w, dc.constant(np.zeros((1, 5))))
    with pytest.raises(DimensionError, match="bias"):
        dc.matmul(x, dc.constant(np.zeros((2, 4, 5))), dc.constant(np.zeros(5)))  # batched b
    with pytest.raises(DimensionError):
        dc.matmul(x, dc.constant(np.zeros((3, 5))), dc.constant(np.zeros(5)))
    with pytest.raises(DimensionError):
        dc.matmul(dc.constant(np.zeros(4)), w, dc.constant(np.zeros(5)))
    with pytest.raises(DimensionError):
        dc.layer_norm(x, dc.constant(np.ones(3)), dc.constant(np.zeros(4)))
    with pytest.raises(DimensionError):
        dc.layer_norm(x, dc.constant(np.ones(4)), dc.constant(np.zeros((5, 2, 3, 4))))


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6), width=st.integers(0, 4),
       shape=st.sampled_from([(0,), (1,), (5,), (12,), (3, 4), (2, 3, 2)]),
       increasing=st.booleans())
def test_embedding_lookup_backward_is_bit_identical_to_add_at(seed, rows, width, shape,
                                                               increasing):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, rows, size=shape)
    if increasing:  # unique ids, the direct-write path
        ids = np.arange(min(rows, ids.size))
    shape = ids.shape + (width,)
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    g[rng.random(g.shape) < 0.3] = -0.0
    g[rng.random(g.shape) < 0.1] = 0.0
    table = dc.parameter(rng.standard_normal((rows, width)))
    out = dc.embedding_lookup(table, ids)
    (got,) = out._backward_fn(g)
    want = np.zeros((rows, width))
    np.add.at(want, ids, g)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# erf: the numpy port of Cephes erf behind gelu, against SciPy's Cephes erf
# ---------------------------------------------------------------------------

def erf_draws() -> np.ndarray:
    """A dense grid on [-8, 8], random draws at scales 0.5-10, and the |x| >= 8 range."""
    rng = np.random.default_rng(0)
    return np.concatenate([np.linspace(-8.0, 8.0, 160_001), np.linspace(8.0, 40.0, 3_201)]
                          + [rng.normal(0.0, scale, 40_000) for scale in (0.5, 1.0, 2.0, 4.0, 10.0)])


def test_erf_equals_cephes_bit_for_bit_up_to_one_and_from_six():
    x = erf_draws()
    outside = (np.abs(x) <= 1.0) | (np.abs(x) >= 6.0)
    assert outside.sum() > 100_000
    np.testing.assert_array_equal(dc._erf(x[outside]), cephes_erf(x[outside]))


def test_erf_is_at_most_one_ulp_from_cephes_between_one_and_six():
    # np.exp and libm's exp may round e^(-x^2) differently in the last bit.
    x = erf_draws()
    x = x[(np.abs(x) > 1.0) & (np.abs(x) < 6.0)]
    got, want = dc._erf(x), cephes_erf(x)
    np.testing.assert_array_equal(np.sign(got), np.sign(x))
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1


def test_cephes_erf_is_exactly_one_from_the_clamp_on():
    # Clamping |x| to 6 changes no result only because Cephes erf saturates there.
    x = np.concatenate([np.linspace(6.0, 40.0, 34_001), [1e10, 1e300, np.inf]])
    np.testing.assert_array_equal(cephes_erf(x), 1.0)
    np.testing.assert_array_equal(cephes_erf(-x), -1.0)
    assert cephes_erf(np.nextafter(6.0, 0.0)) == 1.0


def test_erf_special_values_raise_no_floating_point_error():
    x = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, np.nan])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = dc._erf(x)
    np.testing.assert_array_equal(got, [0.0, -0.0, 1.0, -1.0, 1.0, -1.0, np.nan])
    np.testing.assert_array_equal(np.signbit(got[:2]), [False, True])


@pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (2, 3, 4)])
def test_erf_keeps_the_input_shape(shape):
    x = np.random.default_rng(1).normal(0.0, 2.0, shape)
    got = dc._erf(x)
    assert got.shape == shape
    np.testing.assert_allclose(got, cephes_erf(x), rtol=2e-16, atol=0)


# ---------------------------------------------------------------------------
# Backward basics
# ---------------------------------------------------------------------------

def test_quadratic_gradient():
    w = dc.parameter([1.0, 2.0, 3.0])
    sq = dc.mul(w, w)
    loss = dc.reshape(dc.sum_axis(sq, 0), (1, 1))  # sum(w*w)
    dc.backward(dc.reshape(loss, ()))
    np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0], rtol=0, atol=1e-12)


def test_relu_gate_gradient():
    w = dc.parameter([-1.0, 1.0])
    loss = dc.sum_axis(dc.relu(w), 0)
    dc.backward(loss)
    np.testing.assert_array_equal(w.grad, [0.0, 1.0])


def test_backward_requires_scalar():
    w = dc.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        dc.backward(dc.relu(w))


def test_backward_twice_doubles_grads():
    w = dc.parameter([-1.0, 0.5, 2.0])
    loss = dc.sum_axis(dc.mul(dc.relu(w), w), 0)
    dc.backward(loss)
    once = w.grad.copy()
    dc.backward(loss)
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def test_grad_accumulates_across_uses():
    w = dc.parameter([2.0])
    # w used twice: loss = w*w -> dloss/dw = 2w
    loss = dc.sum_axis(dc.mul(w, w), 0)
    dc.backward(loss)
    np.testing.assert_allclose(w.grad, [4.0], rtol=0, atol=1e-15)


def test_only_leaf_tensors_receive_grads():
    w = dc.parameter([1.0, -2.0])
    mid = dc.relu(w)
    loss = dc.sum_axis(mid, 0)
    dc.backward(loss)
    np.testing.assert_array_equal(w.grad, [1.0, 0.0])
    assert mid.grad is None
    assert loss.grad is None


def test_leaf_grad_is_not_shared_with_a_sibling():
    # add hands the same adjoint to both operands; each leaf must own its grad.
    a = dc.parameter([1.0, 2.0])
    b = dc.parameter([3.0, 4.0])
    dc.backward(dc.sum_axis(dc.add(a, b), 0))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad *= 5.0
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


# ---------------------------------------------------------------------------
# Random expression DAGs: shared operands, views and broadcasts
# ---------------------------------------------------------------------------

DAG_LEAVES = {"A": (2, 3), "B": (2, 3), "r": (3,), "c": (2, 1), "M": (2, 2), "W": (3, 3)}


def _dag_step(kind, x, y, leaves):
    """One (2, 3) -> (2, 3) node reading pool tensors x and y and the leaves."""
    if kind == "add":
        return dc.add(x, y)
    if kind == "add_self":
        return dc.add(x, x)
    if kind == "mul":
        return dc.mul(x, y)
    if kind == "mul_reshape":
        return dc.mul(x, dc.reshape(dc.reshape(y, (6,)), (2, 3)))
    if kind == "row":
        return dc.add(x, leaves["r"])
    if kind == "col":
        return dc.add(leaves["c"], x)
    if kind == "transpose":
        t = dc.matmul(dc.transpose(x, (1, 0)), leaves["M"])
        return dc.add(dc.transpose(t, (1, 0)), y)
    if kind == "sum":
        return dc.add(x, dc.reshape(dc.sum_axis(y, 0), (1, 3)))
    if kind == "linear":
        return dc.matmul(x, leaves["W"], leaves["r"])
    if kind == "layer_norm":
        return dc.layer_norm(x, leaves["r"], y)
    return dc.gelu(x)


DAG_KINDS = ("add", "add_self", "mul", "mul_reshape", "row", "col", "transpose", "sum", "gelu",
             "linear", "layer_norm")


def _build_dag(leaves, program, tail):
    pool = [leaves["A"], leaves["B"]]
    for kind, i, j in program:
        pool.append(_dag_step(kind, pool[i % len(pool)], pool[j % len(pool)], leaves))
    out = dc.add(pool[-1], pool[tail % len(pool)])
    weights = dc.constant(np.linspace(-1.0, 1.5, 6).reshape(6, 1))
    return dc.reshape(dc.matmul(dc.reshape(out, (1, 6)), weights), ())


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1),
       program=st.lists(st.tuples(st.sampled_from(DAG_KINDS), st.integers(0, 7),
                                  st.integers(0, 7)), min_size=1, max_size=5),
       tail=st.integers(0, 7))
def test_random_dag_leaf_grads_match_reference_and_finite_differences(seed, program, tail):
    rng = np.random.default_rng(seed)
    arrays = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in DAG_LEAVES.items()}
    leaves = {name: dc.parameter(a.copy()) for name, a in arrays.items()}
    loss = _build_dag(leaves, program, tail)
    reference = reference_leaf_grads(loss)
    dc.backward(loss)

    for node in dc._topo_order(loss):
        if node._backward_fn is not None:
            assert node.grad is None, node
    for name, leaf in leaves.items():
        if id(leaf) not in reference:
            assert leaf.grad is None, name
            continue
        want = np.asarray(reference[id(leaf)])
        got = np.asarray(leaf.grad)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    names = list(arrays)

    def loss_value(arrs):
        return _build_dag({n: dc.constant(a) for n, a in zip(names, arrs)}, program, tail).item()

    numeric = finite_diff_grads(loss_value, [arrays[n].copy() for n in names])
    for name, n in zip(names, numeric):
        got = leaves[name].grad
        assert_grads_close(np.zeros_like(n) if got is None else got, n, rtol=1e-4,
                           context=f"{name} {program} tail={tail}")


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_records_no_parents_and_restores_recording():
    w = dc.parameter([1.0, 2.0])
    with dc.no_grad():
        y = dc.mul(w, w)
        with dc.no_grad():
            pass
        z = dc.add(y, w)
    for t in (y, z):
        assert t._parents == () and t._backward_fn is None and not t.requires_grad
    np.testing.assert_array_equal(z.data, [2.0, 6.0])
    after = dc.mul(w, w)
    assert after.requires_grad and after._parents == (w, w)


def test_no_grad_restores_recording_after_an_exception():
    w = dc.parameter([3.0])
    with pytest.raises(RuntimeError):
        with dc.no_grad():
            raise RuntimeError("boom")
    y = dc.mul(w, w)
    assert y._parents == (w, w)
    dc.backward(dc.sum_axis(y, 0))
    np.testing.assert_array_equal(w.grad, [6.0])


def test_forward_is_deterministic():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 4))
    w = rng.standard_normal((4, 4))
    a = dc.matmul(dc.gelu(dc.constant(x)), dc.constant(w)).data
    b = dc.matmul(dc.gelu(dc.constant(x)), dc.constant(w)).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Finite-difference gradient suite (one entry per op kind)
# ---------------------------------------------------------------------------

def make_op_cases(rng):
    """(name, input arrays, builder) triples; builder maps DiffTensors -> op output."""
    sn = rng.standard_normal
    ids = np.array([0, 2, 2, 5, 1])
    targets = np.array([1, 0, 3, 0])
    targets_masked = np.array([1, 0, 3, 0, 0])
    cases = [
        ("matmul", [sn((3, 4)), sn((4, 5))], lambda a, b: dc.matmul(a, b)),
        ("matmul_batched", [sn((2, 3, 4)), sn((2, 4, 5))], lambda a, b: dc.matmul(a, b)),
        ("matmul_broadcast", [sn((2, 3, 4)), sn((4, 5))], lambda a, b: dc.matmul(a, b)),
        ("add", [sn((3, 4)), sn((3, 4))], lambda a, b: dc.add(a, b)),
        ("add_broadcast", [sn((3, 4)), sn(4)], lambda a, b: dc.add(a, b)),
        ("mul", [sn((3, 4)), sn((3, 4))], lambda a, b: dc.mul(a, b)),
        ("mul_broadcast", [sn((3, 1)), sn((1, 4))], lambda a, b: dc.mul(a, b)),
        ("relu", [nudge_from_kinks(sn((3, 4)))], lambda x: dc.relu(x)),
        ("gelu", [sn((3, 4))], lambda x: dc.gelu(x)),
        ("softmax_lastdim", [sn((3, 5))], lambda x: dc.softmax_lastdim(x)),
        ("layernorm_lastdim", [sn((3, 6)) * 2 + 1], lambda x: dc.layernorm_lastdim(x)),
        ("embedding_lookup", [sn((6, 4))], lambda t: dc.embedding_lookup(t, ids)),
        ("sum_axis", [sn((3, 5))], lambda x: dc.sum_axis(x, 0)),
        ("reshape", [sn((3, 4))], lambda x: dc.reshape(x, (2, 6))),
        ("concat", [sn((2, 3)), sn((2, 3))], lambda a, b: dc.concat([a, b], axis=1)),
        ("transpose_swap_last2", [sn((2, 3, 4))], lambda x: dc.transpose(x, (0, 2, 1))),
        ("transpose", [sn((2, 3, 4))], lambda x: dc.transpose(x, (2, 0, 1))),
        ("l2_normalize_lastdim", [sn((3, 4)) + 0.5], lambda x: dc.l2_normalize_lastdim(x)),
        ("cross_entropy_logits", [sn((4, 6))],
         lambda x: dc.reshape(dc.cross_entropy_logits(x, targets), (1,))),
        ("cross_entropy_masked", [sn((5, 6))],
         lambda x: dc.reshape(
             dc.cross_entropy_logits(x, targets_masked, ignore_index=0, reduction="sum"),
             (1,))),
        # This slot's draw stays where it was, so later streams do not move;
        # c34 is drawn below.
        ("graph_layer_const_weight", [sn((4, 3))],
         lambda x: dc.graph_layer(SPARSE_OPERATOR, x, c34)),
    ]
    # Drawn after the cases above, so their random streams do not move.
    w45, a234 = dc.constant(sn((4, 5))), dc.constant(sn((2, 3, 4)))
    c34, c4 = dc.constant(sn((3, 4))), dc.constant(sn(4))
    cases += [
        ("matmul_const_weight", [sn((2, 3, 4))], lambda a: dc.matmul(a, w45)),
        ("matmul_const_left", [sn((4, 5))], lambda b: dc.matmul(a234, b)),
        ("mul_const", [sn((3, 4))], lambda a: dc.mul(a, c34)),
        ("add_const", [sn((3, 4))], lambda b: dc.add(c4, b)),
        ("attention_self_padded", [sn((2, 3, 4)), sn((2, 3, 4)), sn((2, 3, 4))],
         lambda q, k, v: dc.attention(q, k, v, 2, PADDED_KEY_BIAS)),
        ("attention_causal", [sn((2, 4, 4)), sn((2, 4, 4)), sn((2, 4, 4))],
         lambda q, k, v: dc.attention(q, k, v, 1, CAUSAL_BIAS)),
        ("attention_cross", [sn((2, 3, 4)), sn((2, 5, 4)), sn((2, 5, 4))],
         lambda q, k, v: dc.attention(q, k, v, 2)),
    ]
    # Drawn after every case above, so their random streams do not move.
    cases += [
        ("linear", [sn((3, 4)), sn((4, 5)), sn(5)], lambda x, w, b: dc.matmul(x, w, b)),
        ("linear_3d_const_weight", [sn((2, 3, 4)), sn(5)], lambda x, b: dc.matmul(x, w45, b)),
        ("layer_norm", [sn((3, 6)) * 2 + 1, sn(6), sn(6)],
         lambda x, g, b: dc.layer_norm(x, g, b)),
        ("layer_norm_3d_const_affine", [sn((2, 3, 4)) * 2 + 1],
         lambda x: dc.layer_norm(x, c4, c34)),
        ("layer_norm_const_input", [sn(4), sn((3, 4))],
         lambda g, b: dc.layer_norm(c34, g, b)),
    ]
    # Drawn after every case above, so their random streams do not move.
    c43 = dc.constant(sn((4, 3)))
    cases += [
        ("graph_layer_gcn_relu", [sn((4, 3)), sn((3, 2))],
         lambda x, w: dc.graph_layer(SPARSE_OPERATOR, x, w, relu=True)),
        ("graph_layer_sage", [sn((4, 3)), sn((3, 2)), sn((3, 2))],
         lambda x, w, ws: dc.graph_layer(SPARSE_OPERATOR, x, w, ws)),
        ("graph_layer_sage_rows_increasing", [sn((4, 3)), sn((3, 2)), sn((3, 2))],
         lambda x, w, ws: dc.graph_layer(SPARSE_OPERATOR[[0, 2, 3]], x, w, ws, [0, 2, 3],
                                         relu=True)),
        ("graph_layer_sage_rows_repeated", [sn((4, 3)), sn((3, 2)), sn((3, 2))],
         lambda x, w, ws: dc.graph_layer(SPARSE_OPERATOR[[3, 1, 3, 0]], x, w, ws, [3, 1, 3, 0])),
        ("graph_layer_sage_const_input", [sn((3, 2)), sn((3, 2))],
         lambda w, ws: dc.graph_layer(SPARSE_OPERATOR, c43, w, ws, relu=True)),
        ("dropout", [sn((3, 4))], lambda x: dc.dropout(x, DROPOUT_MASK, 0.7)),
    ]
    # Drawn after every case above, so their random streams do not move.
    cases += [
        ("attention_packed_self", [sn((5, 4)), sn((5, 4)), sn((5, 4))],
         lambda q, k, v: dc.attention(q, k, v, 2, PADDED_KEY_BIAS, PACKED_LAYOUT)),
        ("attention_packed_cross", [sn((5, 4)), sn((2, 3, 4)), sn((2, 3, 4))],
         lambda q, k, v: dc.attention(q, k, v, 2, None, PACKED_LAYOUT)),
        ("to_grid", [sn((5, 4))], lambda x: dc.to_grid(x, PACKED_LAYOUT)),
        ("to_grid_full", [sn((6, 4))], lambda x: dc.to_grid(x, (2, 3, np.arange(6)))),
    ]
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_op_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    proj_rng = np.random.default_rng(900 + seed)
    for name, arrays, build in make_op_cases(rng):
        proj_seed = int(proj_rng.integers(1 << 31))

        def loss_value(arrs):
            tensors = [dc.constant(a) for a in arrs]
            out = build(*tensors)
            return scalarize(out, np.random.default_rng(proj_seed)).item()

        params = [dc.parameter(a.copy()) for a in arrays]
        out = build(*params)
        loss = scalarize(out, np.random.default_rng(proj_seed))
        dc.backward(dc.reshape(loss, ()))
        # Ops return no gradient for a constant operand, and it keeps none.
        # The tape holds such an operand as None.
        for parent, pg in zip(out._parents, out._backward_fn(np.ones_like(out.data))):
            if parent is None or not parent.requires_grad:
                assert pg is None and (parent is None or parent.grad is None), f"{name} seed={seed}"
        numeric = finite_diff_grads(loss_value, [a.copy() for a in arrays])
        for p, n in zip(params, numeric):
            assert_grads_close(p.grad, n, rtol=1e-4, context=f"{name} seed={seed}")


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    p = dc.parameter([1.0, -2.0, 3.0])
    state = dc.AdamState.for_params([p], base_lr=0.1, clip_norm=None)
    p.grad = np.zeros(3)
    dc.adam_step([p], state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])
    assert state.step_count == 1
    assert p.grad is None


def test_adam_warmup_effective_lr():
    p = dc.parameter([1.0])
    state = dc.AdamState.for_params([p], base_lr=1e-4, warmup_steps=10000, clip_norm=None)
    p.grad = np.array([1.0])
    dc.adam_step([p], state)
    assert state.step_count == 1
    assert state.effective_lr == pytest.approx(1e-4 * 1e-4, rel=0, abs=0)


def test_adam_single_step_matches_hand_computation():
    # One step, constant grad 1, lr 0.1: m_hat = 1, v_hat = 1,
    # so the update is exactly lr / (1 + eps).
    p = dc.parameter([1.0])
    state = dc.AdamState.for_params([p], base_lr=0.1, clip_norm=None)
    p.grad = np.array([1.0])
    dc.adam_step([p], state)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert p.data[0] == pytest.approx(expected, rel=0, abs=1e-16)


def test_adam_settings_are_the_scalar_fields_and_round_trip():
    p = dc.parameter([1.0, 2.0])
    state = dc.AdamState.for_params([p], base_lr=0.1, warmup_steps=3)
    assert state.settings() == {"step_count": 0, "beta1": 0.9, "beta2": 0.999,
                                "epsilon": 1e-8, "base_lr": 0.1, "warmup_steps": 3,
                                "clip_norm": 1.0}
    back = dc.AdamState.from_settings(state.first_moment, state.second_moment,
                                      state.settings())
    assert back == state
    with pytest.raises(ContractError, match="clip_norm"):
        dc.AdamState.from_settings([], [], {k: v for k, v in state.settings().items()
                                            if k != "clip_norm"})


def test_adam_missing_grad_raises():
    p = dc.parameter([1.0])
    state = dc.AdamState.for_params([p], base_lr=0.1)
    with pytest.raises(ContractError):
        dc.adam_step([p], state)


def test_adam_global_norm_clip_scales_gradients():
    p = dc.parameter(np.zeros(4))
    q = dc.parameter(np.zeros(9))
    state = dc.AdamState.for_params([p, q], base_lr=0.1, clip_norm=1.0)
    p.grad = np.full(4, 3.0)
    q.grad = np.full(9, 4.0)
    norm = math.sqrt(4 * 9.0 + 9 * 16.0)
    dc.adam_step([p, q], state)
    # After one step the first moment holds (1 - beta1) * clipped grad.
    np.testing.assert_allclose(state.first_moment[0], 0.1 * 3.0 / norm * np.ones(4),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("clip_norm", [1.0, None])
def test_adam_non_finite_gradient_raises_before_updating(clip_norm):
    p = dc.parameter([1.0, 2.0])
    state = dc.AdamState.for_params([p], base_lr=0.1, clip_norm=clip_norm)
    p.grad = np.array([1.0, 1.0])
    dc.adam_step([p], state)
    before = p.data.copy()
    p.grad = np.array([np.nan, 1.0])
    with pytest.raises(NodeGaeError, match="step 2"):
        dc.adam_step([p], state)
    assert state.step_count == 1
    np.testing.assert_array_equal(p.data, before)


def test_adam_non_finite_parameter_after_update_raises():
    # The first step moves each entry by lr against the sign of its gradient.
    p = dc.parameter([0.0, 1.7e308])
    state = dc.AdamState.for_params([p], base_lr=1e308, clip_norm=None)
    p.grad = np.array([1.0, -1.0])
    with np.errstate(over="ignore"), pytest.raises(NodeGaeError, match="step 1: parameter 0"):
        dc.adam_step([p], state)


def test_adam_warmup_ramp_is_linear():
    p = dc.parameter([0.0])
    state = dc.AdamState.for_params([p], base_lr=1.0, warmup_steps=4, clip_norm=None)
    seen = []
    for _ in range(6):
        p.grad = np.array([1.0])
        dc.adam_step([p], state)
        seen.append(state.effective_lr)
    assert seen == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# Module boundary
# ---------------------------------------------------------------------------

def test_diffcore_imports_no_data_module():
    # The autodiff core knows nothing of corpora, graphs or file formats.
    src = str(Path(dc.__file__).resolve().parents[1])
    code = ("import sys, nodegae.diffcore; print(sorted(m for m in sys.modules "
            "if m.startswith('nodegae.')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "['nodegae.diffcore', 'nodegae.errors']"
