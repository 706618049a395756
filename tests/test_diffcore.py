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
from nodegae.errors import ConfigError, ContractError, DimensionError, NodeGaeError

from conftest import grid_attention, kept_inputs, saved_arrays
from fdcheck import assert_grads_close, finite_diff_grads, nudge_from_kinks
from reference_tape import (chain_attention, chain_dropout, chain_feed_forward,
                            chain_graph_layer, qkv_attention, reference_leaf_grads)

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
CAUSAL_BIAS_3 = np.triu(np.full((3, 3), MASK), k=1)
# The same grid packed: batch row 0 holds 3 rows, batch row 1 the first 2.
PACKED_MASK = np.array([[True, True, True], [True, True, False]])
FULL_MASK = np.ones((2, 3), dtype=bool)
# Gapped: batch row 0 holds its first and last cells, batch row 1 none.
GAPPED_MASK = np.array([[True, False, True], [False, False, False]])
GAPPED_KEY_BIAS = np.where(GAPPED_MASK, 0.0, MASK)[:, None, None, :]
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
    out = dc.to_grid(dc.constant(x), PACKED_MASK).data
    assert out.shape == (2, 3, 4)
    np.testing.assert_array_equal(out.reshape(6, 4)[:5], x)
    assert not np.any(out[1, 2])
    full = dc.to_grid(dc.constant(np.vstack([x, x[:1]])), FULL_MASK).data
    np.testing.assert_array_equal(full, np.vstack([x, x[:1]]).reshape(2, 3, 4))
    with pytest.raises(DimensionError):
        dc.to_grid(dc.constant(x), FULL_MASK)  # 5 rows, 6 cells
    with pytest.raises(DimensionError):
        dc.to_grid(dc.constant(x.reshape(5, 2, 2)), PACKED_MASK)
    for mask in (PACKED_MASK.astype(np.int64), PACKED_MASK.astype(np.float64),
                 PACKED_MASK.reshape(-1), PACKED_MASK[None]):
        with pytest.raises(ContractError, match="mask"):
            dc.to_grid(dc.constant(x), mask)


@pytest.mark.parametrize("mask", [PACKED_MASK, FULL_MASK, GAPPED_MASK,
                                  np.array([[False, True, False, True], [True, True, False, False],
                                            [False, False, False, False]])],
                         ids=["prefix", "full", "gapped_empty_row", "gapped"])
def test_to_grid_equals_a_cell_by_cell_placement_bit_for_bit(mask):
    """Row i of the packed rows goes to the i-th True cell in row-major order, every other
    cell is zero, and the rows' adjoint is the upstream gradient read at those cells."""
    rng = np.random.default_rng(8)
    cells = [(i, j) for i in range(mask.shape[0]) for j in range(mask.shape[1]) if mask[i, j]]
    x = dc.parameter(rng.standard_normal((len(cells), 4)))
    upstream = rng.standard_normal(mask.shape + (4,))
    want = np.zeros(mask.shape + (4,))
    for row, (i, j) in enumerate(cells):
        want[i, j] = x.data[row]
    out = dc.to_grid(x, mask)
    assert out.data.tobytes() == want.tobytes()
    (grad,) = out._node.backward_fn(upstream)
    assert grad.tobytes() == np.array([upstream[i, j] for i, j in cells]).tobytes()


def attention_oracle(x, kv, wq, wk, wv, heads, bias=None):
    """Project q, k and v, split heads, softmax(q kᵀ/sqrt(dh) + bias) v per head, merge heads."""
    q, k, v = x @ wq, kv @ wk, kv @ wv
    b, tq, d = q.shape
    dh = d // heads

    def split(t):
        return t.reshape(b, t.shape[1], heads, dh).transpose(0, 2, 1, 3)

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
    arrays = [rng.standard_normal(s) for s in ((2, tq, 3), (2, tk, 5), (3, 4), (5, 4), (5, 4))]
    biases = () if bias is None else (bias,)
    out = grid_attention(*(dc.constant(a) for a in arrays), heads, biases).data
    assert out.shape == (2, tq, 4)
    assert np.max(np.abs(out - attention_oracle(*arrays, heads, bias))) <= 1e-12
    if tq == tk:  # self-attention: the queries' own rows are the keys and values
        x, wq = arrays[0], arrays[2]
        wk, wv = (rng.standard_normal((3, 4)) for _ in "kv")
        x_t = dc.constant(x)
        out = grid_attention(x_t, x_t, *(dc.constant(w) for w in (wq, wk, wv)), heads, biases)
        assert np.max(np.abs(out.data - attention_oracle(x, x, wq, wk, wv, heads, bias))) <= 1e-12


ATTENTION_INPUTS = ("x", "kv", "wq", "wk", "wv")


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 5), tq=st.integers(1, 5),
       tk=st.integers(1, 5), heads=st.sampled_from([1, 2, 4]), head_dim=st.integers(1, 2),
       mask=st.sampled_from(["none", "padded", "causal"]))
def test_attention_random_shapes_match_oracle_and_finite_differences(seed, b, tq, tk, heads,
                                                                      head_dim, mask):
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    d_in, d_kv = (int(n) for n in rng.integers(1, 4, size=2))
    arrays = [rng.standard_normal(s)
              for s in ((b, tq, d_in), (b, tk, d_kv), (d_in, d), (d_kv, d), (d_kv, d))]
    bias = None
    if mask == "padded":  # every batch row keeps at least its first key
        bias = np.zeros((b, 1, 1, tk))
        for row, kept in enumerate(rng.integers(1, tk + 1, size=b)):
            bias[row, 0, 0, kept:] = MASK
    elif mask == "causal":
        bias = np.triu(np.full((tq, tk), MASK), k=1)
    biases = () if bias is None else (bias,)
    proj_seed = int(rng.integers(1 << 31))

    def loss_value(arrs):
        out = grid_attention(*(dc.constant(a) for a in arrs), heads, biases)
        return scalarize(out, np.random.default_rng(proj_seed)).item()

    params = [dc.parameter(a.copy()) for a in arrays]
    out = grid_attention(*params, heads, biases)
    assert np.max(np.abs(out.data - attention_oracle(*arrays, heads, bias))) <= 1e-12
    dc.backward(dc.reshape(scalarize(out, np.random.default_rng(proj_seed)), ()))
    numeric = finite_diff_grads(loss_value, [a.copy() for a in arrays])
    for name, p, n in zip(ATTENTION_INPUTS, params, numeric):
        assert_grads_close(p.grad, n, rtol=1e-4, context=f"attention d{name}")

    # Packed queries: each batch row keeps its first `length` positions, every
    # one of them in some draws, or a gapped set of cells that may leave a
    # batch row with none. Self-attention reads keys and values from the same
    # packed rows and masks the rest; cross-attention reads the (B, tk, d_kv)
    # memory above. The upstream gradient is zero at pad query rows. The op
    # takes the causal mask and the key-pad row as two addends; the oracles
    # take their sum.
    draw = rng.random()
    if draw < 0.4:
        real = np.arange(tq)[None, :] < rng.integers(1, tq + 1, size=b)[:, None]
    elif draw < 0.8:
        real = rng.random((b, tq)) < 0.5
        real.reshape(-1)[rng.integers(b * tq)] = True  # at least one packed row
    else:
        real = np.ones((b, tq), dtype=bool)
    flat = np.flatnonzero(real)
    upstream = (rng.standard_normal((b, tq, d)) * real[:, :, None]).reshape(-1, d)
    key_bias = np.where(real, 0.0, MASK)[:, None, None, :]
    key_biases = (key_bias,)
    if mask == "causal":
        causal = np.triu(np.full((tq, tq), MASK), k=1)
        key_bias, key_biases = key_bias + causal, (causal, key_bias)
    x_rows = arrays[0].reshape(-1, d_in)
    self_weights = [arrays[2]] + [rng.standard_normal((d_in, d)) for _ in "kv"]
    grid_mask = np.ones((b, tq), dtype=bool)
    for kind, memory, weights, case_bias, case_biases in (
            ("self", None, self_weights, key_bias, key_biases),
            ("cross", arrays[1], arrays[2:], bias, biases)):
        # On either mask the op equals its matmul chain bit for bit: values
        # and the gradient of every input.
        for rows, grid, up in ((x_rows, grid_mask, upstream),
                               (x_rows[flat], real, upstream[flat])):
            if memory is None:
                leaves = [rows, *weights]
                fused = lambda x, *ws: dc.attention(x, x, *ws, heads, case_biases, grid)
                chain = lambda x, *ws: chain_attention(x, x, *ws, heads, case_bias, grid)
            else:
                leaves = [rows, memory, *weights]
                fused = lambda *ts: dc.attention(*ts, heads, case_biases, grid)
                chain = lambda *ts: chain_attention(*ts, heads, case_bias, grid)
            trainable = [True] * len(leaves)
            assert (_leaf_grads(fused, leaves, trainable, up)
                    == _leaf_grads(chain, leaves, trainable, up)), (kind, grid.tolist())

        # The attention core on projected rows: packed rows equal the whole
        # grid's at the real positions bit for bit, values and adjoints, and
        # the whole grid's pad rows get zero adjoints.
        src = x_rows if memory is None else memory
        q, k, v = x_rows @ weights[0], src @ weights[1], src @ weights[2]
        dense = qkv_attention(*(dc.parameter(t) for t in (q, k, v)), heads, case_bias,
                              grid_mask)
        packed_kv = (k[flat], v[flat]) if memory is None else (k, v)
        packed = qkv_attention(*(dc.parameter(t) for t in (q[flat], *packed_kv)), heads,
                               case_bias, real)
        assert packed.shape == (flat.size, d)
        assert np.array_equal(packed.data, dense.data[flat]), kind
        want = dense._node.backward_fn(upstream)
        got = packed._node.backward_fn(upstream[flat])
        for i, (name, g, w) in enumerate(zip("qkv", got, want)):
            if i == 0 or memory is None:
                assert not np.any(np.delete(w, flat, axis=0)), f"{kind} core d{name}"
                w = w[flat]
            assert np.array_equal(g, w), f"{kind} core d{name}"

        # The fused op on the two masks agrees to rounding only: its
        # projection GEMMs run over other row counts there, and BLAS may take
        # another kernel (gemv for one row, a small-matrix GEMM), which sums
        # in another order. Pad rows still get exactly zero adjoints.
        closures = []
        for rows, grid in ((x_rows, grid_mask), (x_rows[flat], real)):
            x = dc.parameter(rows)
            kv = x if memory is None else dc.parameter(memory)
            out = dc.attention(x, kv, *(dc.parameter(w) for w in weights), heads, case_biases,
                               grid)
            closures.append((out.data, out._node.backward_fn))
        (dense, dense_fn), (packed, packed_fn) = closures
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(packed, dense[flat], **close, err_msg=kind)
        want, got = dense_fn(upstream), packed_fn(upstream[flat])
        names = ("dx", "dkv from k", "dkv from v", "dwq", "dwk", "dwv")
        for i, (name, g, w) in enumerate(zip(names, got, want)):
            if i == 0 or (i < 3 and memory is None):  # adjoints of packed rows
                assert not np.any(np.delete(w, flat, axis=0)), f"{kind} {name}"
                w = w[flat]
            np.testing.assert_allclose(g, w, **close, err_msg=f"{kind} {name}")


def test_attention_checks_shapes():
    rows, memory = dc.constant(np.zeros((5, 3))), dc.constant(np.zeros((2, 4, 2)))
    wq, w3 = dc.constant(np.zeros((3, 4))), dc.constant(np.zeros((3, 4)))
    w2 = dc.constant(np.zeros((2, 4)))
    mask = PACKED_MASK
    assert dc.attention(rows, rows, wq, w3, w3, 2, (), mask).shape == (5, 4)
    assert dc.attention(rows, memory, wq, w2, w2, 2, (), mask).shape == (5, 4)
    full = dc.constant(np.zeros((6, 3)))
    assert dc.attention(full, full, wq, w3, w3, 4, (), FULL_MASK).shape == (6, 4)
    zeros = lambda *s: dc.constant(np.zeros(s))
    for args in [
        (zeros(2, 3, 3), memory, wq, w2, w2, 2, ()),  # a mask takes packed (n, d) queries
        (rows, memory, zeros(2, 4), w2, w2, 2, ()),  # wq does not take the query width
        (rows, memory, zeros(3), w2, w2, 2, ()),  # wq is no matrix
        (rows, zeros(4, 3), wq, w3, w3, 2, ()),  # 4 packed key rows for 5 queries
        (rows, zeros(3, 4, 2), wq, w2, w2, 2, ()),  # memory of 3 batch rows, not 2
        (rows, zeros(2, 4, 2, 1), wq, w2, w2, 2, ()),  # memory is no (B, Tk, d) grid
        (rows, memory, wq, w3, w3, 2, ()),  # wk and wv do not take the memory width
        (rows, memory, wq, w2, zeros(2, 6), 2, ()),  # wk and wv differ
        (rows, memory, wq, zeros(2, 6), zeros(2, 6), 2, ()),  # k is not q's width
        (rows, memory, wq, w2, w2, 3, ()),  # heads do not divide the width
        (rows, memory, wq, w2, w2, 2, (np.zeros((2, 1, 1, 5)),)),  # 4 keys, not 5
        (rows, rows, wq, w3, w3, 2, (np.zeros((2, 1, 1, 5)),)),  # 3 keys, not 5
        (rows, rows, wq, w3, w3, 2, (np.zeros((3, 3)), np.zeros((3, 4)))),  # 2nd: 4 keys
    ]:
        with pytest.raises(DimensionError):
            dc.attention(*args, mask)
    with pytest.raises(DimensionError):
        dc.attention(rows, rows, wq, w3, w3, 2, (), FULL_MASK)  # 5 rows, 6 cells
    # A mask must be a 2-d bool grid: not 0/1 numbers, a flat row or a stack of grids.
    for bad in (mask.astype(np.int64), mask.astype(np.float64), mask.reshape(-1), mask[None]):
        with pytest.raises(ContractError, match="mask"):
            dc.attention(rows, rows, wq, w3, w3, 2, (), bad)
    # A bare mask is no tuple of addends: iterating it would add its batch rows in turn.
    for biases in (None, np.zeros((2, 1, 1, 3)), [np.zeros((3, 3))]):
        with pytest.raises(ContractError, match="biases"):
            dc.attention(rows, rows, wq, w3, w3, 2, biases, mask)


# (kind, trainable flags): x, wq, wk and wv for self-attention, x, kv, wq, wk and wv for
# cross-attention, each combination with at least one trainable input.
ATTENTION_CHAIN_CASES = [(kind, flags) for kind, n in (("self", 4), ("cross", 5))
                         for flags in itertools.product((True, False), repeat=n) if any(flags)]


@pytest.mark.parametrize("grid", ["full", "packed", "gapped"])
@pytest.mark.parametrize("kind,trainable", ATTENTION_CHAIN_CASES,
                         ids=[f"{kind}-" + "".join("PC"[not t] for t in flags)
                              for kind, flags in ATTENTION_CHAIN_CASES])
def test_attention_equals_its_matmul_chain_bit_for_bit(grid, kind, trainable):
    """The chain is the q, k and v matmuls around the attention op on projected
    inputs. Values and every trainable input's gradient agree bit for bit; x's (and
    for self-attention kv's, which is x) sums q's, k's and v's terms in the same order."""
    rng = np.random.default_rng(23)
    mask, key_bias = {"full": (FULL_MASK, None), "packed": (PACKED_MASK, PADDED_KEY_BIAS),
                     "gapped": (GAPPED_MASK, GAPPED_KEY_BIAS)}[grid]
    n = int(mask.sum())
    d_kv = 3 if kind == "self" else 2
    arrays = [rng.standard_normal(s) for s in ((n, 3), (2, 4, 2), (3, 4), (d_kv, 4), (d_kv, 4))]
    for arr in arrays:
        arr.reshape(-1)[::5] = -0.0
    bias = key_bias if kind == "self" else None
    biases = () if bias is None else (bias,)
    weights = rng.standard_normal((n, 4))
    if kind == "self":
        del arrays[1]
        fused = lambda x, wq, wk, wv: dc.attention(x, x, wq, wk, wv, 2, biases, mask)
        chain = lambda x, wq, wk, wv: chain_attention(x, x, wq, wk, wv, 2, bias, mask)
    else:
        fused = lambda *ts: dc.attention(*ts, 2, biases, mask)
        chain = lambda *ts: chain_attention(*ts, 2, bias, mask)
    assert (_leaf_grads(fused, arrays, trainable, weights)
            == _leaf_grads(chain, arrays, trainable, weights))


# ---------------------------------------------------------------------------
# What each op's backward keeps, and the fused ops against the chains they replace
# ---------------------------------------------------------------------------

def _closure_cases():
    """name: (build(P, C) -> (out, inputs), kept input positions, (dtype kind, shape) of
    the other arrays kept, sorted). P and C draw a parameter and a constant of a shape."""
    sage = ((4, 3), (3, 2), (3, 2))
    return {
        "add": (lambda P, C: (P(3, 4), P(4)), dc.add, [], []),
        "add_constant": (lambda P, C: (P(3, 4), C(4)), dc.add, [], []),
        "mul": (lambda P, C: (P(3, 4), P(3, 4)), dc.mul, [0, 1], []),
        "mul_by_constant": (lambda P, C: (P(3, 4), C(1)), dc.mul, [1], []),
        "matmul_bias": (lambda P, C: (P(2, 3, 4), P(4, 5), P(5)), dc.matmul, [0, 1], []),
        "matmul_constant_weight": (lambda P, C: (P(3, 4), C(4, 5)), dc.matmul, [1], []),
        "matmul_constant_input": (lambda P, C: (C(3, 4), P(4, 5)), dc.matmul, [0], []),
        "matmul_batched": (lambda P, C: (P(2, 3, 4), P(2, 4, 5)), dc.matmul, [0, 1], []),
        "matmul_batched_constant_b": (lambda P, C: (P(2, 3, 4), C(2, 4, 5)), dc.matmul,
                                       [1], []),
        "layer_norm": (lambda P, C: (P(3, 4), P(4), P(4)), dc.layer_norm,
                       [1], [("f", (3, 1)), ("f", (3, 4))]),
        "relu": (lambda P, C: (P(3, 4),), dc.relu, [], [("b", (3, 4))]),
        "gelu": (lambda P, C: (P(3, 4),), dc.gelu, [], [("f", (3, 4))]),
        "dropout": (lambda P, C: (P(3, 4),), lambda x: dc.dropout(x, DROPOUT_MASK, 0.5),
                    [], [("b", (3, 4))]),
        "embedding_lookup": (lambda P, C: (P(5, 4),),
                             lambda t: dc.embedding_lookup(t, np.array([[0, 3], [3, 1]])),
                             [], [("i", (4,))]),
        "sum_axis": (lambda P, C: (P(2, 3, 4),), lambda x: dc.sum_axis(x, 1), [], []),
        "reshape": (lambda P, C: (P(3, 4),), lambda x: dc.reshape(x, (4, 3)), [], []),
        "transpose": (lambda P, C: (P(2, 3, 4),), lambda x: dc.transpose(x, (2, 0, 1)), [], []),
        "to_grid": (lambda P, C: (P(5, 4),), lambda x: dc.to_grid(x, PACKED_MASK),
                    [], [("b", (2, 3))]),
        "to_grid_full_mask": (lambda P, C: (P(6, 4),), lambda x: dc.to_grid(x, FULL_MASK),
                              [], []),
        "concat": (lambda P, C: (P(2, 4), P(3, 4)), lambda *ts: dc.concat(ts),
                   [], [("i", (1,))]),
        "softmax_lastdim": (lambda P, C: (P(3, 4),), dc.softmax_lastdim, [], [("f", (3, 4))]),
        "layernorm_lastdim": (lambda P, C: (P(3, 4),), dc.layernorm_lastdim,
                              [], [("f", (3, 1)), ("f", (3, 4))]),
        "l2_normalize_lastdim": (lambda P, C: (P(3, 4),), dc.l2_normalize_lastdim,
                                 [], [("f", (3, 1)), ("f", (3, 4))]),
        "cross_entropy_logits": (lambda P, C: (P(3, 4),),
                                 lambda x: dc.cross_entropy_logits(x, np.array([0, 2, 1])),
                                 [0], [("b", (3,)), ("f", (3,)), ("i", (3,)), ("i", (3,))]),
        # Attention keeps its softmax's row max and row sum, never a (B, heads, T, Tk)
        # grid, and always the data that q and k are recomputed from.
        "attention": (lambda P, C: (P(6, 3), P(2, 5, 2), P(3, 4), P(2, 4), P(2, 4)),
                      lambda *ts: dc.attention(*ts, 2, (), FULL_MASK),
                      [0, 1, 2, 3, 4], [("f", (2, 2, 3, 1)), ("f", (2, 2, 3, 1))]),
        "attention_constant_kv": (lambda P, C: (P(6, 3), C(2, 5, 2), C(3, 4), C(2, 4), C(2, 4)),
                                  lambda *ts: dc.attention(*ts, 2, (), FULL_MASK),
                                  [0, 1, 2, 3, 4], [("f", (2, 2, 3, 1)), ("f", (2, 2, 3, 1))]),
        "attention_packed": (lambda P, C: (P(5, 3), P(3, 4), P(3, 4), P(3, 4)),
                             lambda x, *ws: dc.attention(x, x, *ws, 2, (), PACKED_MASK),
                             [0, 1, 2, 3],
                             [("f", (2, 2, 3, 1)), ("f", (2, 2, 3, 1)), ("i", (5,)), ("i", (5,))]),
        # A decoder self-attention keeps its two masks as the caller passed them, a
        # (T, T) causal mask and a (B, 1, 1, T) key-pad row, and no (B, 1, T, T) sum.
        "attention_decoder_self": (
            lambda P, C: (P(5, 3), P(3, 4), P(3, 4), P(3, 4)),
            lambda x, *ws: dc.attention(x, x, *ws, 2, (CAUSAL_BIAS_3, PADDED_KEY_BIAS),
                                        PACKED_MASK),
            [0, 1, 2, 3], [("f", (2, 1, 1, 3)), ("f", (2, 2, 3, 1)), ("f", (2, 2, 3, 1)),
                           ("f", (3, 3)), ("i", (5,)), ("i", (5,))]),
        "attention_trainable_wv": (lambda P, C: (C(6, 3), C(2, 5, 2), C(3, 4), C(2, 4), P(2, 4)),
                                   lambda *ts: dc.attention(*ts, 2, (), FULL_MASK),
                                   [0, 1, 2, 3], [("f", (2, 2, 3, 1)), ("f", (2, 2, 3, 1))]),
        # The feed-forward op keeps x's data and the GELU cdf, one (n, ff) array.
        "feed_forward": (lambda P, C: (P(3, 4), P(4, 6), P(6), P(6, 5), P(5)), dc.feed_forward,
                         [0, 1, 2, 3], [("f", (3, 6))]),
        "feed_forward_3d_constant_input": (lambda P, C: (C(2, 3, 4), P(4, 6), P(6), P(6, 5), P(5)),
                                           dc.feed_forward, [0, 1, 2, 3], [("f", (2, 3, 6))]),
        "feed_forward_trainable_w2": (lambda P, C: (C(3, 4), C(4, 6), C(6), P(6, 5), C(5)),
                                      dc.feed_forward, [0, 1, 2], [("f", (3, 6))]),
        "feed_forward_trainable_b2": (lambda P, C: (C(3, 4), C(4, 6), C(6), C(6, 5), P(5)),
                                      dc.feed_forward, [], []),
        "graph_layer_gcn": (lambda P, C: (C(4, 3), P(3, 2)),
                            lambda x, w: dc.graph_layer(SPARSE_OPERATOR, x, w, relu=True),
                            [], [("b", (4, 2)), ("f", (4, 3))]),
        "graph_layer_sage": (lambda P, C: (C(4, 3), P(3, 2), P(3, 2)),
                             lambda x, w, ws: dc.graph_layer(SPARSE_OPERATOR, x, w, ws, relu=True),
                             [0], [("b", (4, 2))]),
        "graph_layer_trainable_input": (lambda P, C: tuple(P(*s) for s in sage),
                                         lambda x, w, ws: dc.graph_layer(SPARSE_OPERATOR, x, w, ws),
                                         [0, 1, 2], []),
    }


@pytest.mark.parametrize("name", list(_closure_cases()))
def test_each_op_keeps_exactly_what_its_backward_reads(name):
    draw, op, kept, own = _closure_cases()[name]
    rng = np.random.default_rng(21)
    inputs = draw(lambda *s: dc.parameter(rng.standard_normal(s)),
                  lambda *s: dc.constant(rng.standard_normal(s)))
    out = op(*inputs)
    assert not [t for t in saved_arrays(out) if isinstance(t, dc.DiffTensor)]
    assert kept_inputs(out, inputs) == kept
    assert sorted((a.dtype.kind, a.shape) for a in saved_arrays(out, inputs)) == own


def test_saved_arrays_reports_a_captured_tensor():
    x = dc.parameter(np.ones(3))
    out = dc._record(x.data * 2.0, "double", (x,), lambda g: (g * x.data / x.data * 2.0,))
    assert [t for t in saved_arrays(out) if t is x] == [x]


def _recorded_chain(a, b, gain, bias, w):
    """A loss through add, mul by a constant, layer_norm, relu, gelu, embedding_lookup,
    to_grid, sum_axis and matmul, with a weakref to each op output's data."""
    outputs = {}

    def keep_ref(name, t):
        outputs[name] = weakref.ref(t.data)
        return t

    x = keep_ref("add", dc.add(a, b))
    x = keep_ref("mul", dc.mul(x, dc.constant(np.full((1, 4), 0.5))))
    x = keep_ref("layer_norm", dc.layer_norm(x, gain, bias))
    x = keep_ref("relu", dc.relu(x))
    x = keep_ref("gelu", dc.gelu(x))
    x = keep_ref("embedding_lookup", dc.embedding_lookup(x, np.array([4, 0, 2, 2, 5])))
    x = keep_ref("to_grid", dc.to_grid(x, PACKED_MASK))
    x = keep_ref("sum_axis", dc.sum_axis(x, 1))
    x = keep_ref("matmul", dc.matmul(x, w))
    x = keep_ref("sum_axis of matmul", dc.sum_axis(x, 1))
    return dc.sum_axis(x, 0), outputs


def test_tape_keeps_only_the_outputs_a_backward_reads():
    rng = np.random.default_rng(22)
    leaves = [dc.parameter(rng.standard_normal(s)) for s in ((6, 4), (4,), (4,), (4,), (4, 3))]
    loss, outputs = _recorded_chain(*leaves)
    # Only matmul's backward reads an op output, its input x, for w's gradient.
    assert sorted(name for name, ref in outputs.items() if ref() is not None) == ["sum_axis"]
    want = reference_leaf_grads(loss)
    dc.backward(loss)
    for leaf in leaves:
        assert leaf.grad.tobytes() == want[id(leaf)].tobytes()


def test_attention_keeps_only_its_softmax_statistics():
    """Beside its inputs' data, the caller's bias and the packed rows' grid indices it
    keeps the softmax's row max and row sum, (B, heads, T, 1) each, and no q, k, v or
    probabilities: backward rebuilds them. They are the max and the sum of exp(s - max)
    over each row of the scores s."""
    rng = np.random.default_rng(12)
    inputs = [dc.parameter(rng.standard_normal(s)) for s in ((5, 3), (3, 4), (3, 4), (3, 4))]
    x, wq, wk, wv = inputs
    out = dc.attention(x, x, wq, wk, wv, 2, (PADDED_KEY_BIAS,), PACKED_MASK)
    bias = dc.constant(PADDED_KEY_BIAS)
    assert bias.data is PADDED_KEY_BIAS
    assert kept_inputs(out, inputs + [bias]) == [0, 1, 2, 3, 4]
    saved = saved_arrays(out, inputs + [bias])
    row_max, row_sum = [a for a in saved if a.dtype == np.float64]
    assert sorted(a.dtype.kind for a in saved) == ["f", "f", "i", "i"]

    def grid(t):  # packed rows -> (B, heads, T, dh), zero rows where the mask has none
        g = np.zeros((6, 4))
        g[PACKED_MASK.reshape(-1)] = t
        return g.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3)

    scores = grid(x.data @ wq.data) @ grid(x.data @ wk.data).swapaxes(-1, -2)
    scores = scores / np.sqrt(2.0) + PADDED_KEY_BIAS
    want_max = scores.max(axis=-1, keepdims=True)
    assert row_max.shape == row_sum.shape == (2, 2, 3, 1)
    np.testing.assert_allclose(row_max, want_max, rtol=1e-12, atol=0)
    np.testing.assert_allclose(row_sum, np.exp(scores - want_max).sum(axis=-1, keepdims=True),
                               rtol=1e-12)


def test_layer_norm_keeps_its_normalised_rows_and_inverse_std():
    rng = np.random.default_rng(13)
    x = dc.parameter(rng.standard_normal((2, 3, 4)) * 3 + 2)
    gain, bias = dc.parameter(rng.standard_normal(4)), dc.parameter(rng.standard_normal(4))
    out = dc.layer_norm(x, gain, bias)
    normed, inv = sorted(saved_arrays(out, (x, gain, bias)), key=lambda a: -a.size)
    assert kept_inputs(out, (x, gain, bias)) == [1]  # gain's data, for x's gradient
    assert normed.tobytes() == dc.layernorm_lastdim(x).data.tobytes()
    assert inv.shape == (2, 3, 1)
    np.testing.assert_allclose(inv, 1.0 / x.data.std(axis=-1, keepdims=True), rtol=1e-12)


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


@pytest.mark.parametrize("lead", [(5,), (2, 3)])
@pytest.mark.parametrize("trainable", list(itertools.product((True, False), repeat=5)),
                         ids=lambda flags: "".join("PC"[not t] for t in flags))
def test_feed_forward_equals_its_chain_bit_for_bit(lead, trainable):
    """The chain is matmul with b1, gelu, then matmul with b2. Values and the gradient
    of every trainable subset of x, w1, b1, w2 and b2 agree bit for bit. The hidden
    spans both of erf's forms and its clamp, and the inputs hold signed zeros."""
    rng = np.random.default_rng(18)
    arrays = [rng.standard_normal(lead + (4,)) * 2.0, rng.standard_normal((4, 7)),
              rng.standard_normal(7), rng.standard_normal((7, 5)), rng.standard_normal(5)]
    arrays[0].reshape(-1, 4)[0] *= 10.0  # one row of hidden values past the clamp at 6
    for arr in arrays:
        arr.reshape(-1)[::6] = -0.0
    weights = rng.standard_normal(lead + (5,))
    assert (_leaf_grads(dc.feed_forward, arrays, trainable, weights)
            == _leaf_grads(chain_feed_forward, arrays, trainable, weights))


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


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_graph_layer_keeps_a_x_for_gcn_and_only_x_for_sage(backbone):
    """A constant input is no parent, and neither op keeps the tensor itself. The gcn
    op keeps a @ x for w's gradient; the sage op keeps x's data for the self weight's
    gradient and recomputes a @ x from it. Each closure drops all it kept as it runs."""
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
    saved = saved_arrays(out)
    (mask,) = [arr for arr in saved if arr.dtype == np.bool_]
    assert mask.tobytes() == (out.data > 0.0).tobytes()
    (kept,) = [arr for arr in saved if arr is not mask]
    if backbone == "gcn":
        assert kept.tobytes() == (SPARSE_OPERATOR @ data).tobytes()
    else:
        assert np.shares_memory(kept, data)
    closure = out._node.backward_fn
    dc.backward(dc.sum_axis(dc.reshape(out, (-1,)), 0))
    relu_grad = np.ones(out.shape) * (out.data > 0.0)
    assert w.grad.tobytes() == ((SPARSE_OPERATOR @ data).T @ relu_grad).tobytes()
    assert not [cell for cell in closure.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]


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
    w1, b1, w2, b2 = (dc.constant(np.zeros(s)) for s in ((4, 6), (6,), (6, 5), (5,)))
    assert dc.feed_forward(x, w1, b1, w2, b2).shape == (2, 3, 5)
    for args in [
        (dc.constant(np.zeros(4)), w1, b1, w2, b2),  # x is no matrix
        (dc.constant(np.zeros((2, 5))), w1, b1, w2, b2),  # w1 does not take x's width
        (x, dc.constant(np.zeros((2, 4, 6))), b1, w2, b2),  # w1 is no 2-D weight
        (x, w1, b1, dc.constant(np.zeros((5, 5))), b2),  # w2 does not take w1's width
        (x, w1, dc.constant(np.zeros((1, 6))), w2, b2),  # b1 is no vector
        (x, w1, b1, w2, dc.constant(np.zeros(6))),  # b2 is not w2's width
    ]:
        with pytest.raises(DimensionError, match="feed_forward"):
            dc.feed_forward(*args)


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6), width=st.integers(0, 4),
       shape=st.sampled_from([(0,), (1,), (5,), (12,), (3, 4), (2, 3, 2)]),
       increasing=st.booleans())
def test_embedding_lookup_backward_is_bit_identical_to_add_at(seed, rows, width, shape,
                                                               increasing):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, rows, size=shape)
    if increasing:  # unique, increasing ids
        ids = np.arange(min(rows, ids.size))
    shape = ids.shape + (width,)
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    g[rng.random(g.shape) < 0.3] = -0.0
    g[rng.random(g.shape) < 0.1] = 0.0
    table = dc.parameter(rng.standard_normal((rows, width)))
    out = dc.embedding_lookup(table, ids)
    (got,) = out._node.backward_fn(g)
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


def test_second_backward_on_the_same_loss_raises_and_changes_no_grad():
    w = dc.parameter([-1.0, 0.5, 2.0])
    loss = dc.sum_axis(dc.mul(dc.relu(w), w), 0)
    dc.backward(loss)
    once = w.grad.tobytes()
    with pytest.raises(ContractError, match="an earlier backward walked"):
        dc.backward(loss)
    assert w.grad.tobytes() == once
    assert all(node.backward_fn is None for node in dc._topo_order(loss)
               if isinstance(node, dc.Node))


def test_backward_of_two_graphs_built_alike_doubles_every_leaf_grad():
    rng = np.random.default_rng(23)
    leaves = [dc.parameter(rng.standard_normal(s)) for s in ((6, 4), (4,), (4,), (4,), (4, 3))]
    dc.backward(_recorded_chain(*leaves)[0])
    once = [leaf.grad.copy() for leaf in leaves]
    dc.backward(_recorded_chain(*leaves)[0])
    for leaf, grad in zip(leaves, once):
        assert leaf.grad.tobytes() == (2.0 * grad).tobytes()


def test_backward_hands_each_closure_the_only_reference_to_its_adjoint():
    """Each probe closure drops its adjoint and finds it freed: while a closure runs,
    the walk holds no reference to its adjoint, in a local, a loop variable or the
    tuple of adjoints the previous closure returned."""
    freed = []

    def probe(x):
        def backward_fn(g):
            alive, shape = weakref.ref(g), g.shape
            del g
            freed.append(alive() is None)
            return (np.ones(shape),)

        return dc._record(x.data.copy(), "probe", (x,), backward_fn)

    w = dc.parameter(np.ones((3, 2)))
    dc.backward(dc.sum_axis(dc.reshape(probe(probe(w)), (-1,)), 0))
    assert freed == [True, True]
    assert w.grad.tobytes() == np.ones((3, 2)).tobytes()


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

    # The walk reaches leaves and nodes only, so no intermediate tensor gets a grad.
    for node in dc._topo_order(loss):
        assert isinstance(node, dc.Node) or node._node is None, node
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
        assert t._node is None and not t.requires_grad
    np.testing.assert_array_equal(z.data, [2.0, 6.0])
    after = dc.mul(w, w)
    assert after.requires_grad and after._node.parents == (w, w)


def test_no_grad_restores_recording_after_an_exception():
    w = dc.parameter([3.0])
    with pytest.raises(RuntimeError):
        with dc.no_grad():
            raise RuntimeError("boom")
    y = dc.mul(w, w)
    assert y._node.parents == (w, w)
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
        ("attention_self_padded", [sn((2, 3, 3)), sn((3, 4)), sn((3, 4)), sn((3, 4))],
         lambda x, *ws: grid_attention(x, x, *ws, 2, (PADDED_KEY_BIAS,))),
        ("attention_causal", [sn((2, 4, 3)), sn((3, 4)), sn((3, 4)), sn((3, 4))],
         lambda x, *ws: grid_attention(x, x, *ws, 1, (CAUSAL_BIAS,))),
        ("attention_cross", [sn((2, 3, 3)), sn((2, 5, 2)), sn((3, 4)), sn((2, 4)), sn((2, 4))],
         lambda *ts: grid_attention(*ts, 2)),
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
        ("attention_packed_self", [sn((5, 3)), sn((3, 4)), sn((3, 4)), sn((3, 4))],
         lambda x, *ws: dc.attention(x, x, *ws, 2, (PADDED_KEY_BIAS,), PACKED_MASK)),
        ("attention_packed_cross", [sn((5, 3)), sn((2, 3, 2)), sn((3, 4)), sn((2, 4)), sn((2, 4))],
         lambda *ts: dc.attention(*ts, 2, (), PACKED_MASK)),
        ("to_grid", [sn((5, 4))], lambda x: dc.to_grid(x, PACKED_MASK)),
        ("to_grid_full", [sn((6, 4))], lambda x: dc.to_grid(x, FULL_MASK)),
    ]
    # Drawn after every case above, so their random streams do not move.
    c46 = dc.constant(sn((4, 6)))
    cases += [
        ("feed_forward", [sn((3, 4)), sn((4, 6)), sn(6), sn((6, 5)), sn(5)], dc.feed_forward),
        ("feed_forward_3d_const_w1", [sn((2, 3, 4)), sn(6), sn((6, 5)), sn(5)],
         lambda x, b1, w2, b2: dc.feed_forward(x, c46, b1, w2, b2)),
        ("feed_forward_const_input", [sn((4, 6)), sn(6), sn((6, 5)), sn(5)],
         lambda w1, b1, w2, b2: dc.feed_forward(c34, w1, b1, w2, b2)),
    ]
    # Drawn after every case above, so their random streams do not move.
    cases += [
        ("attention_packed_causal_and_pad",
         [sn((5, 3)), sn((3, 4)), sn((3, 4)), sn((3, 4))],
         lambda x, *ws: dc.attention(x, x, *ws, 2, (CAUSAL_BIAS_3, PADDED_KEY_BIAS),
                                     PACKED_MASK)),
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

        # Ops return no gradient for a constant operand, and it keeps none.
        # The tape holds such an operand as None. A closure may run only
        # once, so this calls the closure of a second build of the case.
        once = build(*(dc.parameter(a.copy()) for a in arrays))
        for parent, pg in zip(once._node.parents, once._node.backward_fn(np.ones_like(once.data))):
            if parent is None:
                assert pg is None, f"{name} seed={seed}"
        params = [dc.parameter(a.copy()) for a in arrays]
        out = build(*params)
        loss = scalarize(out, np.random.default_rng(proj_seed))
        dc.backward(dc.reshape(loss, ()))
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


@pytest.mark.parametrize("key, value", [
    ("step_count", -1), ("step_count", 1.0), ("warmup_steps", True), ("beta1", 1.0),
    ("beta2", -0.1), ("beta1", "x"), ("base_lr", 0.0), ("base_lr", None), ("epsilon", np.inf),
    ("clip_norm", np.nan), ("clip_norm", "big"), ("clip_norm", 0.0)])
def test_adam_state_refuses_a_bad_setting_when_built(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        dc.AdamState.for_params([dc.parameter([1.0])], **{"base_lr": 0.1, key: value})


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


def test_loss_check_bound_is_a_thousand_times_the_larger_scale():
    # The scale is the run's first loss or ln K, whichever is larger; the bound
    # itself passes and the next float above it fails, as do inf and nan.
    for first, classes in [(5.0, 3), (0.25, 40)]:
        bound = 1e3 * max(first, float(np.log(classes)))
        dc.check_loss("epoch 1", bound, first, classes)
        for loss in (np.nextafter(bound, np.inf), np.inf, np.nan):
            with pytest.raises(NodeGaeError, match="training diverged at epoch 1: loss "):
                dc.check_loss("epoch 1", loss, first, classes)


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


# ---------------------------------------------------------------------------
# Op coverage: every op kind the package records has an FD case and a closure case
# ---------------------------------------------------------------------------

def _kinds_recorded(run):
    """The op names diffcore._record receives while run() runs."""
    kinds, record = set(), dc._record

    def spy(out_data, op, parents, backward_fn):
        kinds.add(op)
        return record(out_data, op, parents, backward_fn)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "_record", spy)
        run()
    return kinds


def _pipeline_runs():
    """One pretrain_loss, then one nodecls fit and one link fit per backbone (and per
    link scorer), each a single epoch on a small graph."""
    from nodegae import autoencoder as ae
    from nodegae import downstream as ds
    from nodegae import graphstore as gs
    from nodegae import textcorpus as tc

    graph = tc.generate_synthetic(tc.SyntheticGraphSpec(num_nodes=48, seed=3))
    vocab = tc.build_vocab(graph.texts)
    model = ae.AutoencoderModel.init(
        ae.ModelConfig(vocab_size=vocab.size, d_enc=8, d_dec=8, heads=2, max_len=16), vocab,
        seed=0)
    icfg = ae.InfoNCEConfig()
    batch = [0, 5, 9, 17]
    positives = ae.draw_positives(graph, batch, np.random.default_rng(0), icfg)
    yield lambda: dc.backward(dc.add(*ae.pretrain_loss(model, graph, batch, positives, icfg)))
    emb = ds.random_embeddings(graph.num_nodes, 6, seed=0)
    split = gs.build_link_split(graph, seed=0)
    for backbone in ds.BACKBONES:
        cfg = ds.DownstreamConfig(backbone=backbone, hidden_dim=4, epochs=1, seed=0)
        yield lambda: ds.train_node_classifier(emb, graph, cfg)
        for scorer in ds.LINK_SCORERS:
            cfg = ds.DownstreamConfig.for_link_prediction(
                backbone=backbone, hidden_dim=4, epochs=1, batch_edges=32, link_scorer=scorer)
            yield lambda: ds.train_link_predictor(emb, graph, split, cfg)


def test_every_recorded_op_kind_has_a_gradient_case_and_a_closure_case():
    gradient_cases = set().union(*(
        _kinds_recorded(lambda: build(*(dc.parameter(a) for a in arrays)))
        for _, arrays, build in make_op_cases(np.random.default_rng(0))))
    closure_cases = set()
    rng = np.random.default_rng(21)
    for draw, op, _, _ in _closure_cases().values():
        inputs = draw(lambda *s: dc.parameter(rng.standard_normal(s)),
                      lambda *s: dc.constant(rng.standard_normal(s)))
        closure_cases.add(op(*inputs)._node.op)
    recorded = gradient_cases.union(*(_kinds_recorded(run) for run in _pipeline_runs()))
    assert {"graph_layer", "dropout", "attention", "layer_norm"} <= recorded
    assert sorted(recorded - gradient_cases) == []
    assert sorted(recorded - closure_cases) == []
