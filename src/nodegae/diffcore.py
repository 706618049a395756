"""Dense float64 tensors with recorded operations and reverse-mode gradients.

Every trainable part of the package (autoencoder, GNN heads) is built from the
operations in this module. Tensors are immutable after creation except for
their ``grad`` buffer. An op whose inputs require gradients records its
parents and a backward closure; ``backward`` walks that graph once per call
and accumulates into ``grad`` of the leaves only (tensors with no recorded
backward, such as parameters), so calling it twice without zeroing doubles
every leaf gradient exactly. Intermediate tensors keep ``grad`` None. Inside
``with no_grad():`` ops record nothing, which is how inference runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NodeGaeError

LAYERNORM_EPS = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class DiffTensor:
    """A dense n-dimensional float64 value grid in a recorded computation.

    ``parents`` and ``backward_fn`` are populated by the op constructors below;
    leaf tensors created by callers have neither.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[DiffTensor | None, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"DiffTensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"


def constant(data) -> DiffTensor:
    """A tensor that never receives gradients (masks, scales, frozen inputs)."""
    return DiffTensor(data, requires_grad=False)


def parameter(data) -> DiffTensor:
    """A trainable leaf tensor."""
    return DiffTensor(data, requires_grad=True)


_recording = True


@contextmanager
def no_grad():
    """Ops inside the block record no parents and no backward closure.

    Their outputs are plain tensors that require no gradient. Values are the
    same as with recording on; the previous mode returns when the block
    exits, also on an exception.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _record(out_data: np.ndarray, op: str, parents: Sequence[DiffTensor],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> DiffTensor:
    out = DiffTensor(out_data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        # An input that needs no gradient is held as None, so the tape does
        # not keep it alive; backward_fn's results still line up by position.
        out._parents = tuple(p if p.requires_grad else None for p in parents)
        out._backward_fn = backward_fn
        out._op = op
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: cannot broadcast shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, "add", (a, b), backward_fn)


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: cannot broadcast shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, "mul", (a, b), backward_fn)


def matmul(a: DiffTensor, b: DiffTensor, bias: DiffTensor | None = None) -> DiffTensor:
    """Matrix product with numpy broadcasting over leading axes, plus an optional bias.

    A 2-D ``b`` is a weight shared by every leading index of ``a``, so the
    leading axes fold into one 2-D GEMM, forward and backward. Only then may
    a 1-D ``bias`` of ``b``'s width be given; it is added in place to the
    product, so ``x @ w + bias`` is one recorded op whose values and
    gradients equal those of ``add(matmul(x, w), bias)`` bit for bit.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: cannot multiply shapes {a.shape} and {b.shape}")
    if bias is not None and (b.ndim != 2 or bias.shape != (b.shape[1],)):
        raise DimensionError(f"matmul: bias {bias.shape} does not fit a 2-D b, got {b.shape}")
    if b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        out = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],))
        if bias is not None:
            out += bias.data

        def backward_fn(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None,
                    a2.T @ g2 if b.requires_grad else None,
                    _unbroadcast(g, bias.shape) if bias is not None and bias.requires_grad
                    else None)

        return _record(out, "matmul", (a, b) if bias is None else (a, b, bias), backward_fn)

    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise DimensionError(f"matmul: cannot multiply shapes {a.shape} and {b.shape}")

    def backward_fn(g):
        return (_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
                if a.requires_grad else None,
                _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
                if b.requires_grad else None)

    return _record(out, "matmul", (a, b), backward_fn)


def graph_layer(a, x: DiffTensor, w: DiffTensor, w_self: DiffTensor | None = None,
                rows=None, relu: bool = False) -> DiffTensor:
    """One gcn or sage layer, ``relu?((a @ x) @ w [+ (x @ w_self)[rows]])``, as one recorded op.

    ``a`` is a constant scipy sparse operator whose rows are the output rows.
    With ``w_self`` (sage's self weight), ``rows`` picks the rows of the self
    term, all of them when None. Values and gradients equal those of the chain
    of ``matmul``, ``embedding_lookup``, ``add`` and ``relu`` ops around
    ``a @ x`` bit for bit. The closure keeps ``a @ x``, the output for relu,
    and ``x`` only for the gradient of a trainable ``w_self``.
    """
    if x.ndim != 2 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"graph_layer: cannot multiply shapes {a.shape} and {x.shape}")
    weights = (w,) if w_self is None else (w, w_self)
    if w.ndim != 2 or w.shape[0] != x.shape[1] or weights[-1].shape != w.shape:
        raise DimensionError(
            f"graph_layer: weights {[t.shape for t in weights]} do not fit input {x.shape}")
    n = x.shape[0]
    ids = None
    if rows is not None:
        if w_self is None:
            raise ContractError("graph_layer: rows pick self-term rows, which need w_self")
        ids = _row_ids("graph_layer", rows, n).reshape(-1)
    if w_self is not None and a.shape[0] != (n if ids is None else ids.size):
        raise DimensionError(f"graph_layer: operator rows {a.shape[0]} do not match the self term")
    ax = a @ x.data
    out = ax @ w.data
    if w_self is not None:
        # Indexing the self term's product rather than x keeps x's gradient
        # a GEMM instead of a scatter, and holds less memory.
        own = x.data @ w_self.data
        out += own if ids is None else own[ids]
    if relu:
        np.maximum(out, 0.0, out=out)
    x_grad = x.requires_grad
    xd = x.data if w_self is not None and w_self.requires_grad else None

    def backward_fn(g):
        if relu:
            g = g * (out > 0.0)
        g_own = g if ids is None else _scatter_rows(g, ids, (n, g.shape[1]))
        gx = None
        if x_grad:
            gx = a.T @ (g @ w.data.T)
            if w_self is not None:
                gx += g_own @ w_self.data.T
        return (gx, ax.T @ g if w.requires_grad else None,
                None if xd is None else xd.T @ g_own)

    return _record(out, "graph_layer", (x,) + weights, backward_fn)


def dropout(x: DiffTensor, keep_mask: np.ndarray, keep: float) -> DiffTensor:
    """Inverted dropout: ``x * keep_mask / keep`` for a boolean mask of x's shape.

    Values and gradients equal ``mul(x, constant(keep_mask.astype(float) / keep))``
    bit for bit; the closure keeps only the boolean mask.
    """
    keep_mask = np.asarray(keep_mask)
    if keep_mask.dtype != np.bool_ or keep_mask.shape != x.shape:
        raise DimensionError(
            f"dropout: mask of {keep_mask.dtype} {keep_mask.shape} for input {x.shape}")
    if not 0.0 < keep <= 1.0:
        raise ContractError(f"dropout: keep must be in (0, 1], got {keep}")
    scale = 1.0 / keep
    out = x.data * (keep_mask * scale)

    def backward_fn(g):
        gx = keep_mask * scale
        gx *= g
        return (gx,)

    return _record(out, "dropout", (x,), backward_fn)


def relu(x: DiffTensor) -> DiffTensor:
    out = np.maximum(x.data, 0.0)

    def backward_fn(g):
        return (g * (x.data > 0.0),)

    return _record(out, "relu", (x,), backward_fn)


# Cephes erf/erfc (ndtr.c), the routine that SciPy's erf runs, with its
# coefficients: T/U for |x| <= 1 and P/Q for 1 < |x| < 8. The R/S set for
# |x| >= 8 is not needed, since |x| is clamped to _ERF_SATURATES first.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# Cephes erf rounds to exactly +-1 from |x| ~ 5.92 on, so clamping there changes
# no result and keeps inf and overflow out of the polynomials.
_ERF_SATURATES = 6.0


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes polevl: coefs[0] x^n + ... + coefs[n] by Horner's rule, in one buffer."""
    acc = x * coefs[0]
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def _p1evl(x: np.ndarray, coefs, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes p1evl: _polevl with an implied leading coefficient 1, into out if given."""
    acc = np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf, elementwise, in its operation order.

    |x| <= 1: x T(x^2) / U(x^2). |x| > 1: sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|)).
    Results equal Cephes' bit for bit, except that np.exp may differ from libm's
    exp in the last bit, which moves some results for 1 < |x| < 6 by one ulp.
    The first form runs on every element (most GELU inputs are small) and the
    second overwrites the elements with |x| > 1. Fresh pages cost more than the
    arithmetic here, so the clamped copy of x also holds U(x^2).
    """
    shape = np.shape(x)
    x = np.clip(np.ravel(x), -_ERF_SATURATES, _ERF_SATURATES)
    z = x * x
    out = _polevl(z, _ERF_T)
    out *= x
    tail = np.flatnonzero(z > 1.0)  # z > 1 exactly when |x| > 1; NaN stays in the first form
    s = x[tail]
    out /= _p1evl(z, _ERF_U, out=x)
    if tail.size:
        a = np.abs(s)
        erfc = np.exp(-(a * a))
        erfc *= _polevl(a, _ERFC_P)
        erfc /= _p1evl(a, _ERFC_Q)
        out[tail] = np.copysign(1.0 - erfc, s)
    return out.reshape(shape)


def gelu(x: DiffTensor) -> DiffTensor:
    """Exact (erf-based) Gaussian error linear unit."""
    cdf = _erf(x.data * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5  # 0.5 * (1 + erf), in place
    out = x.data * cdf

    def backward_fn(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return _record(out, "gelu", (x,), backward_fn)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of the softmax input, given the output ``p`` and its adjoint ``g``.

    The result is written over ``g``, so callers pass a buffer they own.
    """
    g -= (g * p).sum(axis=-1, keepdims=True)
    g *= p
    return g


def softmax_lastdim(x: DiffTensor) -> DiffTensor:
    out = _softmax(x.data)

    def backward_fn(g):
        return (_softmax_backward(out, g.copy()),)

    return _record(out, "softmax_lastdim", (x,), backward_fn)


def check_layout(op: str, layout, rows: int) -> tuple[int, int, np.ndarray]:
    """``layout`` as (B, T, flat), checked to place ``rows`` packed rows in a (B, T) grid.

    ``flat`` holds one flat (row-major) grid position per packed row, in
    increasing order, so the rows keep the grid's row-major order.
    """
    try:
        b, t, flat = layout
        b, t = int(b), int(t)
    except (TypeError, ValueError):
        raise ContractError(f"{op}: layout must be (B, T, flat), got {layout!r}")
    flat = np.asarray(flat)
    if flat.ndim != 1 or not np.issubdtype(flat.dtype, np.integer):
        raise ContractError(f"{op}: layout positions must be a 1-d integer array")
    if flat.size != rows:
        raise DimensionError(f"{op}: {rows} rows for a layout of {flat.size} positions")
    if flat.size and (flat[0] < 0 or flat[-1] >= b * t or np.any(flat[1:] <= flat[:-1])):
        raise ContractError(f"{op}: layout positions must increase within [0, {b * t})")
    return b, t, flat


def to_grid(x: DiffTensor, layout) -> DiffTensor:
    """Packed rows (n, d) placed at their layout positions of a zero (B, T, d) grid.

    When the layout covers the whole grid the rows are the grid, reshaped.
    """
    if x.ndim != 2:
        raise DimensionError(f"to_grid: rows must be 2-D, got {x.shape}")
    b, t, flat = check_layout("to_grid", layout, x.shape[0])
    shape = (b, t, x.shape[1])
    if flat.size == b * t:
        return _record(x.data.reshape(shape), "to_grid", (x,), lambda g: (g.reshape(x.shape),))
    out = np.zeros(shape)
    out.reshape(b * t, -1)[flat] = x.data
    return _record(out, "to_grid", (x,), lambda g: (g.reshape(b * t, -1)[flat],))


def attention(q: DiffTensor, k: DiffTensor, v: DiffTensor, heads: int,
              bias: np.ndarray | None = None, layout=None) -> DiffTensor:
    """Multi-head scaled dot-product attention as one recorded op.

    ``q`` is (B, Tq, d) and ``k``, ``v`` are (B, Tk, d), already projected.
    Each head h attends over its width-d/heads slice of the last axis with
    softmax(q_h k_hᵀ / sqrt(d/heads) + bias) v_h, and the head contexts are
    merged back into (B, Tq, d). ``bias`` is a constant additive numpy mask
    that broadcasts to (B, heads, Tq, Tk); it gets no gradient.

    With ``layout`` = (B, T, flat) (see check_layout), ``q`` is instead the
    packed (n, d) rows at the flat positions of a (B, T) grid, and so are
    ``k`` and ``v`` when they are 2-D (self-attention); 3-D ``k`` and ``v``
    are (B, Tk, d) as above (cross-attention). The output is then packed
    like ``q``. Only the head split sees the grid: it places the rows there
    and fills the other positions with zero rows, which ``bias`` should mask
    as keys. A layout that covers the whole grid places nothing.
    """
    rows = None
    if layout is None:
        if q.ndim != 3:
            raise DimensionError(f"attention: q must be (B, Tq, d), got {q.shape}")
        b, tq, d = q.shape
    else:
        if q.ndim != 2:
            raise DimensionError(f"attention: packed q must be (n, d), got {q.shape}")
        b, tq, flat = check_layout("attention", layout, q.shape[0])
        d = q.shape[1]
        if flat.size != b * tq:
            rows = np.divmod(flat, tq)
    packed_kv = k.ndim == 2 and layout is not None
    if (v.shape != k.shape
            or not (k.shape == q.shape if packed_kv
                    else k.ndim == 3 and k.shape[0] == b and k.shape[2] == d)):
        raise DimensionError(
            f"attention: shapes q {q.shape}, k {k.shape}, v {v.shape} do not align")
    if heads < 1 or d % heads:
        raise DimensionError(f"attention: {heads} heads do not divide width {d}")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    score_shape = (b, heads, tq, tq if packed_kv else k.shape[1])
    if bias is not None:
        try:
            fits = np.broadcast_shapes(np.shape(bias), score_shape) == score_shape
        except ValueError:
            fits = False
        if not fits:
            raise DimensionError(
                f"attention: bias shape {np.shape(bias)} does not broadcast to {score_shape}")

    def split(x):  # (B, T, d), or packed (n, d) rows -> (B, heads, T, dh)
        if x.ndim == 2 and rows is not None:
            grid = np.zeros((b, heads, tq, dh))
            grid[rows[0], :, rows[1]] = x.reshape(-1, heads, dh)
            return grid
        return np.ascontiguousarray(x.reshape(b, -1, heads, dh).transpose(0, 2, 1, 3))

    def merge(x, packed):  # (B, heads, T, dh) -> (B, T, d), or packed (n, d) rows
        if packed and rows is not None:
            return x[rows[0], :, rows[1]].reshape(-1, d)
        grid = np.ascontiguousarray(x.transpose(0, 2, 1, 3))
        return grid.reshape(-1, d) if packed else grid.reshape(b, -1, d)

    scores = np.matmul(split(q.data), split(k.data).swapaxes(-1, -2))
    scores *= scale
    if bias is not None:
        scores += bias
    p = _softmax(scores)
    out = merge(np.matmul(p, split(v.data)), layout is not None)

    # The closure keeps only p (and a partial layout's grid indices); the
    # head-split copies of q, k and v are cut again from the inputs' data,
    # which the tape holds anyway.
    def backward_fn(g):
        gh = split(g)
        gs = _softmax_backward(p, np.matmul(gh, split(v.data).swapaxes(-1, -2)))
        gs *= scale
        return (merge(np.matmul(gs, split(k.data)), layout is not None)
                if q.requires_grad else None,
                merge(np.matmul(gs.swapaxes(-1, -2), split(q.data)), packed_kv)
                if k.requires_grad else None,
                merge(np.matmul(p.swapaxes(-1, -2), gh), packed_kv) if v.requires_grad else None)

    return _record(out, "attention", (q, k, v), backward_fn)


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``x`` at mean 0 and variance 1 over the last axis, and their inverse std."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + LAYERNORM_EPS)
    centered *= inv
    return centered, inv


def _normalize_backward(normed: np.ndarray, inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of _normalize's input, given its outputs and the adjoint ``g`` of ``normed``.

    The result is written over ``g``, so callers pass a buffer they own.
    """
    prod = g * normed
    gym = prod.mean(axis=-1, keepdims=True)
    g -= g.mean(axis=-1, keepdims=True)
    g -= np.multiply(normed, gym, out=prod)
    g *= inv
    return g


def layernorm_lastdim(x: DiffTensor) -> DiffTensor:
    """Normalize the last dimension to mean 0 and variance 1 (no affine)."""
    out, inv = _normalize(x.data)

    def backward_fn(g):
        return (_normalize_backward(out, inv, g.copy()),)

    return _record(out, "layernorm_lastdim", (x,), backward_fn)


def layer_norm(x: DiffTensor, gain: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """``layernorm_lastdim(x) * gain + bias`` as one recorded op, bit for bit.

    ``gain`` and ``bias`` broadcast against ``x``'s shape, which the output keeps.
    """
    try:
        fits = np.broadcast_shapes(x.shape, gain.shape, bias.shape) == x.shape
    except ValueError:
        fits = False
    if not fits:
        raise DimensionError(
            f"layer_norm: gain {gain.shape} and bias {bias.shape} do not broadcast to {x.shape}")
    normed, inv = _normalize(x.data)
    out = normed * gain.data
    out += bias.data

    def backward_fn(g):
        return (_normalize_backward(normed, inv, g * gain.data) if x.requires_grad else None,
                _unbroadcast(g * normed, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return _record(out, "layer_norm", (x, gain, bias), backward_fn)


def _row_ids(op: str, ids, n: int) -> np.ndarray:
    """ids as an integer array, checked to index rows of an n-row table."""
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"{op}: ids must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"{op}: ids out of range [0, {n})")
    return idx


def _scatter_rows(g: np.ndarray, ids: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The rows of ``g`` summed into a zeros table of ``shape`` at the flat ``ids``.

    Bit-identical to np.add.at into zeros: each cell adds its gradient rows in
    the order their ids occur, starting from 0.0 (so a lone -0.0 becomes
    +0.0). np.add.reduceat would sum in another order.
    """
    g = g.reshape(ids.size, shape[1])
    if np.all(ids[1:] > ids[:-1]):  # increasing ids are unique: nothing to sum
        gt = np.zeros(shape)
        gt[ids] = g + 0.0
        return gt
    cells = (ids[:, None] * shape[1] + np.arange(shape[1])).reshape(-1)
    return np.bincount(cells, weights=g.reshape(-1),
                       minlength=shape[0] * shape[1]).reshape(shape)


def embedding_lookup(table: DiffTensor, ids) -> DiffTensor:
    """Gather rows of a 2-D table; gradients scatter-add back into the table."""
    if table.ndim != 2:
        raise DimensionError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    idx = _row_ids("embedding_lookup", ids, table.shape[0])
    out = table.data[idx]
    flat = idx.reshape(-1)

    def backward_fn(g):
        return (_scatter_rows(g, flat, table.shape),)

    return _record(out, "embedding_lookup", (table,), backward_fn)


def sum_axis(x: DiffTensor, axis: int) -> DiffTensor:
    """Sum over one axis, which is dropped from the shape."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"sum_axis: axis {axis} invalid for shape {x.shape}")
    out = x.data.sum(axis=axis)

    def backward_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _record(out, "sum_axis", (x,), backward_fn)


def reshape(x: DiffTensor, shape: Sequence[int]) -> DiffTensor:
    shape = tuple(shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _record(out, "reshape", (x,), backward_fn)


def concat(tensors: Sequence[DiffTensor], axis: int = 0) -> DiffTensor:
    if not tensors:
        raise DimensionError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise DimensionError(
            f"concat: shapes {[t.shape for t in tensors]} do not align on axis {axis}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _record(out, "concat", tuple(tensors), backward_fn)


def transpose(x: DiffTensor, axes: Sequence[int]) -> DiffTensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose: axes {axes} invalid for shape {x.shape}")
    out = x.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def backward_fn(g):
        return (g.transpose(inv),)

    return _record(out, "transpose", (x,), backward_fn)


def cross_entropy_logits(logits: DiffTensor, targets, ignore_index: int | None = None,
                         reduction: str = "mean") -> DiffTensor:
    """Negative log-likelihood of integer targets under softmax(logits).

    ``logits`` has shape (..., V) and ``targets`` the matching leading shape.
    Rows whose target equals ``ignore_index`` are dropped from both the sum
    and the denominator of the mean.
    """
    if reduction not in ("mean", "sum"):
        raise ContractError(f"cross_entropy_logits: unknown reduction {reduction!r}")
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ContractError("cross_entropy_logits: targets must be integers")
    if logits.ndim < 1 or t.shape != logits.shape[:-1]:
        raise DimensionError(
            f"cross_entropy_logits: targets shape {t.shape} does not match logits {logits.shape}")
    vocab = logits.shape[-1]
    flat = logits.data.reshape(-1, vocab)
    tf = t.reshape(-1)
    keep = np.ones(tf.shape, dtype=bool) if ignore_index is None else tf != ignore_index
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ContractError("cross_entropy_logits: no targets left after masking")
    if tf[keep].min() < 0 or tf[keep].max() >= vocab:
        raise ContractError(f"cross_entropy_logits: target id out of range [0, {vocab})")

    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    rows = np.arange(flat.shape[0])
    nll = lse[keep] - flat[keep, tf[keep]]
    total = nll.sum()
    out = total / n_keep if reduction == "mean" else total

    def backward_fn(g):
        p = np.exp(flat - lse[:, None])
        p[rows[keep], tf[keep]] -= 1.0
        p[~keep] = 0.0
        gs = float(np.asarray(g).reshape(()))
        scale = gs / n_keep if reduction == "mean" else gs
        return (np.ascontiguousarray((p * scale).reshape(logits.shape)),)

    return _record(np.float64(out), "cross_entropy_logits", (logits,), backward_fn)


def l2_normalize_lastdim(x: DiffTensor) -> DiffTensor:
    """Scale rows to unit Euclidean norm; errors on an exactly-zero row."""
    norm = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True))
    if np.any(norm < 1e-30):
        raise ContractError("l2_normalize_lastdim: zero-norm row")
    out = x.data / norm

    def backward_fn(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - out * inner) / norm,)

    return _record(out, "l2_normalize_lastdim", (x,), backward_fn)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _topo_order(root: DiffTensor) -> list[DiffTensor]:
    order: list[DiffTensor] = []
    seen: set[int] = set()
    stack: list[tuple[DiffTensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: DiffTensor) -> None:
    """Add d(loss)/d(t) into ``grad`` of every reachable requires_grad leaf t.

    Leaves are the tensors with no recorded backward; intermediate tensors
    keep ``grad`` None. A node's adjoint is dropped once its backward closure
    has run. Adjoints are kept per call, so repeated calls add identical
    contributions.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # Adjoints that backward allocated itself by summing, so it may add into
    # them in place. A closure's result may be a view, or be shared between
    # parents (add hands out g twice), so it is never written to.
    owned: set[int] = {id(loss)}
    for node in reversed(order):
        nid = id(node)
        g = adjoint.pop(nid, None)
        if g is None:
            continue
        if node._backward_fn is None:
            if node.grad is not None:
                node.grad = node.grad + g
            else:
                node.grad = g if nid in owned else g.copy()
            continue
        owned.discard(nid)
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or parent is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid not in adjoint:
                adjoint[pid] = pg
            elif pid in owned:
                adjoint[pid] += pg
            else:
                adjoint[pid] = adjoint[pid] + pg
                owned.add(pid)


# ---------------------------------------------------------------------------
# Adam with linear warmup and global-norm clipping
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Optimizer state for a fixed list of parameters."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    base_lr: float = 1e-3
    warmup_steps: int = 0
    clip_norm: float | None = 1.0

    @classmethod
    def for_params(cls, params: Sequence[DiffTensor], base_lr: float,
                   **settings) -> "AdamState":
        """Zero moments for params; settings left out keep the field defaults."""
        return cls([np.zeros_like(p.data) for p in params],
                   [np.zeros_like(p.data) for p in params], base_lr=base_lr, **settings)

    def settings(self) -> dict:
        """The scalar fields (all but the moments) by name, as checkpoints store them."""
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}

    @classmethod
    def from_settings(cls, first_moment: list[np.ndarray], second_moment: list[np.ndarray],
                      settings: Mapping) -> "AdamState":
        """The inverse of settings(); keys other than the scalar fields raise ContractError."""
        names = sorted(f.name for f in fields(cls)[2:])
        if sorted(settings) != names:
            raise ContractError(f"optimizer settings {sorted(settings)} are not the fields {names}")
        return cls(first_moment, second_moment, **settings)

    @property
    def effective_lr(self) -> float:
        if self.warmup_steps > 0:
            return self.base_lr * min(1.0, self.step_count / self.warmup_steps)
        return self.base_lr


def global_grad_norm(params: Sequence[DiffTensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    return float(np.sqrt(total))


def adam_step(params: Sequence[DiffTensor], state: AdamState) -> None:
    """One in-place Adam update with bias correction; clears grads afterwards.

    A non-finite global gradient norm raises NodeGaeError before anything
    changes, and so does a non-finite parameter after the update; both name
    the step, counted from 1 like ``state.step_count`` after it.
    """
    if len(params) != len(state.first_moment):
        raise ContractError(
            f"adam_step: {len(params)} params vs state for {len(state.first_moment)}")
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {i} has no gradient")
        if p.grad.shape != state.first_moment[i].shape:
            raise ContractError(
                f"adam_step: moment shape {state.first_moment[i].shape} does not "
                f"match parameter shape {p.grad.shape}")

    grads = [p.grad for p in params]
    norm = global_grad_norm(params)
    if not np.isfinite(norm):
        raise NodeGaeError(
            f"training diverged at step {state.step_count + 1}: gradient norm {norm!r}")
    if state.clip_norm is not None and norm > state.clip_norm:
        scale = state.clip_norm / norm
        grads = [g * scale for g in grads]

    state.step_count += 1
    t = state.step_count
    lr = state.effective_lr
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
        p.grad = None
    for i, p in enumerate(params):
        if not np.isfinite(p.data).all():
            raise NodeGaeError(
                f"training diverged at step {t}: parameter {i} is not finite after the update")


def zero_grads(params: Iterable[DiffTensor]) -> None:
    for p in params:
        p.grad = None
