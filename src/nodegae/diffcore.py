"""Dense float64 tensors with recorded operations and reverse-mode gradients.

Every trainable part of the package (autoencoder, GNN heads) is built from the
operations in this module. Tensors are immutable after creation except for
their ``grad`` buffer. An op whose inputs require gradients gives its output
a ``Node``: the op's name, its backward closure and one edge per input. The
graph is made of nodes, not values: an edge is the input's own node, the
input itself when it is a leaf (a tensor with no node, such as a parameter),
or None when it needs no gradient. So the graph holds no intermediate value,
and an op output lives only as long as its callers or a backward closure
that reads it. Each closure keeps only the arrays its backward reads, plus
shapes and flags. ``backward`` accumulates into ``grad`` of the leaves only
and takes each closure off its node as it runs it, so the tape is freed as
it is walked. A graph is walked once: a second ``backward`` that reaches a
walked node raises ContractError. Gradients accumulate across graphs, so two
graphs built alike double every leaf gradient exactly. Inside
``with no_grad():`` ops record nothing, which is how inference runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NodeGaeError

LAYERNORM_EPS = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Node:
    """One recorded op: its name, its backward closure and its input edges.

    ``parents`` holds one entry per input, lined up with the adjoints that
    ``backward_fn`` returns: the input's Node, the input DiffTensor itself
    when it is a leaf that requires grad, or None. A node never holds its
    output or an intermediate value. ``backward`` sets ``backward_fn`` to
    None when it runs it; ``parents`` and ``op`` stay.
    """

    __slots__ = ("parents", "backward_fn", "op")

    def __init__(self, parents: tuple, backward_fn: Callable, op: str):
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op


class DiffTensor:
    """A dense n-dimensional float64 value grid in a recorded computation.

    ``_node`` is set by the op constructors below when the op records; leaf
    tensors created by callers have none.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: Node | None = None

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
        op = "" if self._node is None else self._node.op
        return f"DiffTensor(shape={self.shape}, requires_grad={self.requires_grad}, op={op!r})"


def constant(data) -> DiffTensor:
    """A tensor that never receives gradients (masks, scales, frozen inputs)."""
    return DiffTensor(data, requires_grad=False)


def parameter(data) -> DiffTensor:
    """A trainable leaf tensor."""
    return DiffTensor(data, requires_grad=True)


_recording = True


@contextmanager
def no_grad():
    """Ops inside the block record no node.

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


def _records(inputs: Sequence[DiffTensor]) -> bool:
    """Whether an op on these inputs records a node."""
    return _recording and any(t.requires_grad for t in inputs)


def _record(out_data: np.ndarray, op: str, parents: Sequence[DiffTensor],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> DiffTensor:
    out = DiffTensor(out_data)
    if _records(parents):
        out.requires_grad = True
        # Edges are nodes, or leaves: no edge keeps an intermediate value alive.
        edges = tuple((p._node or p) if p.requires_grad else None for p in parents)
        out._node = Node(edges, backward_fn, op)
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
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def backward_fn(g):
        return (None if sa is None else _unbroadcast(g, sa),
                None if sb is None else _unbroadcast(g, sb))

    return _record(out, "add", (a, b), backward_fn)


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: cannot broadcast shapes {a.shape} and {b.shape}")
    # Each operand's data is kept only for the other operand's gradient.
    sa, bd = (a.shape, b.data) if a.requires_grad else (None, None)
    sb, ad = (b.shape, a.data) if b.requires_grad else (None, None)

    def backward_fn(g):
        return (None if sa is None else _unbroadcast(g * bd, sa),
                None if sb is None else _unbroadcast(g * ad, sb))

    return _record(out, "mul", (a, b), backward_fn)


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a 2-D ``w``, with x's leading axes folded into one 2-D GEMM."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def _project_backward(g: np.ndarray, x: np.ndarray | None, w: np.ndarray | None):
    """The adjoints of ``x`` and ``w`` in ``_project(x, w)``, given its output's adjoint ``g``.

    x's adjoint reads only ``w`` and w's only ``x``; each is None when what it reads is None.
    """
    g2 = g.reshape(-1, g.shape[-1])
    return (None if w is None else (g2 @ w.T).reshape(g.shape[:-1] + (w.shape[0],)),
            None if x is None else x.reshape(-1, x.shape[-1]).T @ g2)


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
        out = _project(a.data, b.data)
        if bias is not None:
            out += bias.data
        # Each operand's data is kept only for the other operand's gradient.
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None
        sbias = bias.shape if bias is not None and bias.requires_grad else None

        def backward_fn(g):
            return (*_project_backward(g, ad, bd),
                    None if sbias is None else _unbroadcast(g, sbias))

        return _record(out, "matmul", (a, b) if bias is None else (a, b, bias), backward_fn)

    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise DimensionError(f"matmul: cannot multiply shapes {a.shape} and {b.shape}")
    sa, bd = (a.shape, b.data) if a.requires_grad else (None, None)
    sb, ad = (b.shape, a.data) if b.requires_grad else (None, None)

    def backward_fn(g):
        return (None if sa is None else _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), sa),
                None if sb is None else _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), sb))

    return _record(out, "matmul", (a, b), backward_fn)


def graph_layer(a, x: DiffTensor, w: DiffTensor, w_self: DiffTensor | None = None,
                rows=None, relu: bool = False) -> DiffTensor:
    """One gcn or sage layer, ``relu?((a @ x) @ w [+ (x @ w_self)[rows]])``, as one recorded op.

    ``a`` is a constant scipy sparse operator whose rows are the output rows.
    With ``w_self`` (sage's self weight), ``rows`` picks the rows of the self
    term, all of them when None. Values and gradients equal those of the chain
    of ``matmul``, ``embedding_lookup``, ``add`` and ``relu`` ops around
    ``a @ x`` bit for bit. The closure keeps a bool ``out > 0`` mask for relu
    and the weights' data for ``x``'s gradient. For ``w``'s gradient it keeps
    ``a @ x``, except when ``w_self`` is trainable: then it keeps only ``x``'s
    data, which that gradient reads anyway, and recomputes ``a @ x`` from it
    with the same scipy product, so the bits are the same. The closure runs
    once: it forms both weight gradients, then drops everything it kept
    before it builds ``x``'s gradient.
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
    wd, wsd = (w.data, None if w_self is None else w_self.data) if x.requires_grad else (None, None)
    xd = x.data if w_self is not None and w_self.requires_grad else None
    w_grad = w.requires_grad
    ax = ax if w_grad and xd is None else None  # dropped before the self-term GEMM
    if w_self is not None:
        # Indexing the self term's product rather than x keeps x's gradient
        # a GEMM instead of a scatter, and holds less memory.
        own = x.data @ w_self.data
        out += own if ids is None else own[ids]
    mask = None
    if relu:
        np.maximum(out, 0.0, out=out)
        mask = out > 0.0

    def backward_fn(g):
        nonlocal ax, xd, mask
        if mask is not None:
            g = g * mask
        g_own = g if ids is None else _scatter_rows(g, ids, (n, g.shape[1]))
        gw = None
        if w_grad:
            gw = (a @ xd if ax is None else ax).T @ g
        gws = None if xd is None else xd.T @ g_own
        ax = xd = mask = None  # read for the last time above
        gx = None
        if wd is not None:
            gx = a.T @ (g @ wd.T)
            if wsd is not None:
                gx += g_own @ wsd.T
        return (gx, gw, gws)

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
    mask = out > 0.0  # x > 0 exactly where out > 0

    def backward_fn(g):
        return (g * mask,)

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


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """The GELU's gate Phi(x) = 0.5 (1 + erf(x / sqrt 2)), so that gelu(x) = x Phi(x)."""
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5  # 0.5 * (1 + erf), in place
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The GELU's derivative ``cdf + x pdf(x)`` at x, built in out (a new array when None).

    ``cdf`` is _gelu_cdf(x). The steps are those of the expression
    ``cdf + x * (pdf_scale * exp(-0.5 * x * x))``, in place, so the bits are too.
    """
    slope = np.multiply(x, -0.5, out=out)
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += cdf
    return slope


def gelu(x: DiffTensor) -> DiffTensor:
    """Exact (erf-based) Gaussian error linear unit.

    The closure keeps one array, the derivative ``cdf + x pdf(x)``, which the
    forward forms only when the op records.
    """
    xd = x.data
    cdf = _gelu_cdf(xd)
    out = xd * cdf
    if _records((x,)):
        cdf = _gelu_slope(xd, cdf)

    def backward_fn(g):
        return (g * cdf,)

    return _record(out, "gelu", (x,), backward_fn)


def feed_forward(x: DiffTensor, w1: DiffTensor, b1: DiffTensor, w2: DiffTensor,
                 b2: DiffTensor) -> DiffTensor:
    """A transformer's feed-forward block, ``gelu(x @ w1 + b1) @ w2 + b2``, as one recorded op.

    The forward runs the expressions of the ``matmul``, ``gelu``, ``matmul``
    chain in its order, so values and gradients equal the chain's bit for
    bit. The closure keeps x's data and the GELU cdf, one (n, ff) array, and
    the weights' data where a gradient reads it. Backward recomputes
    ``h = x @ w1 + b1`` (one GEMM) and ``h * cdf`` for w2's gradient, then
    forms the GELU slope in that buffer and drops h before it builds the
    gradients of x, w1 and b1.
    """
    if x.ndim < 2 or w1.ndim != 2 or x.shape[-1] != w1.shape[0]:
        raise DimensionError(f"feed_forward: cannot multiply shapes {x.shape} and {w1.shape}")
    if w2.ndim != 2 or w2.shape[0] != w1.shape[1]:
        raise DimensionError(f"feed_forward: w2 {w2.shape} does not take w1's width {w1.shape}")
    if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
        raise DimensionError(
            f"feed_forward: biases {b1.shape} and {b2.shape} do not fit weights "
            f"{w1.shape} and {w2.shape}")
    h = _project(x.data, w1.data)
    h += b1.data
    cdf = _gelu_cdf(h)
    act = h * cdf
    del h
    out = _project(act, w2.data)
    out += b2.data

    x_grad, w1_grad, w2_grad = x.requires_grad, w1.requires_grad, w2.requires_grad
    sb1 = b1.shape if b1.requires_grad else None
    sb2 = b2.shape if b2.requires_grad else None
    # The hidden's adjoint, which x's, w1's and b1's gradients read, reads w2
    # and the slope; the slope and w2's gradient read h and the cdf.
    hidden_grad = x_grad or w1_grad or sb1 is not None
    keep = hidden_grad or w2_grad
    xd, w1d, b1d = (x.data, w1.data, b1.data) if keep else (None, None, None)
    cdf = cdf if keep else None
    w2d = w2.data if hidden_grad else None

    def backward_fn(g):
        gb2 = None if sb2 is None else _unbroadcast(g, sb2)
        if not keep:
            return (None, None, None, None, gb2)
        h = _project(xd, w1d)
        h += b1d
        act = h * cdf if w2_grad else None
        gw2 = None if act is None else _project_backward(g, act, None)[1]
        if not hidden_grad:
            return (None, None, None, gw2, gb2)
        slope = _gelu_slope(h, cdf, out=act)
        h = act = None  # read for the last time above
        gh = _project_backward(g, None, w2d)[0]
        g = None
        gh *= slope
        slope = None
        gw1 = _project_backward(gh, xd, None)[1] if w1_grad else None
        gx = _project_backward(gh, None, w1d)[0] if x_grad else None
        return (gx, gw1, None if sb1 is None else _unbroadcast(gh, sb1), gw2, gb2)

    return _record(out, "feed_forward", (x, w1, b1, w2, b2), backward_fn)


def _softmax(x: np.ndarray, stats: tuple[np.ndarray, np.ndarray] | None = None
             ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Softmax over the last axis, and the row (max, sum) it divides by.

    It forms ``exp(x - max) / sum`` over x's buffer, so callers pass a buffer
    they own. Given the stats of an earlier call on the same values, it takes
    that max and sum instead of reducing again, and returns that call's
    probabilities bit for bit.
    """
    m, s = (x.max(axis=-1, keepdims=True), None) if stats is None else stats
    x -= m
    np.exp(x, out=x)
    if s is None:
        s = x.sum(axis=-1, keepdims=True)
    x /= s
    return x, (m, s)


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of the softmax input, given the output ``p`` and its adjoint ``g``.

    The result is written over ``g``, so callers pass a buffer they own.
    """
    g -= (g * p).sum(axis=-1, keepdims=True)
    g *= p
    return g


def softmax_lastdim(x: DiffTensor) -> DiffTensor:
    out = _softmax(x.data.copy())[0]

    def backward_fn(g):
        return (_softmax_backward(out, g.copy()),)

    return _record(out, "softmax_lastdim", (x,), backward_fn)


def _grid_mask(op: str, mask, rows: int) -> np.ndarray:
    """``mask`` checked as a (B, T) bool grid whose True cells hold ``rows`` packed rows.

    The packed rows sit at the True cells in row-major order.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.ndim != 2:
        raise ContractError(f"{op}: mask must be a 2-d bool array, got {mask.dtype} {mask.shape}")
    cells = np.count_nonzero(mask)
    if cells != rows:
        raise DimensionError(f"{op}: {rows} rows for a mask of {cells} True cells")
    return mask


def to_grid(x: DiffTensor, mask) -> DiffTensor:
    """Packed rows (n, d) at the True cells of the (B, T) bool ``mask`` of a zero (B, T, d) grid.

    When the mask covers the whole grid the rows are the grid, reshaped.
    """
    if x.ndim != 2:
        raise DimensionError(f"to_grid: rows must be 2-D, got {x.shape}")
    mask = _grid_mask("to_grid", mask, x.shape[0])
    shape = mask.shape + (x.shape[1],)
    if mask.all():
        packed = x.shape
        return _record(x.data.reshape(shape), "to_grid", (x,), lambda g: (g.reshape(packed),))
    out = np.zeros(shape)
    out[mask] = x.data
    return _record(out, "to_grid", (x,), lambda g: (g[mask],))


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray | None, scale: float, biases: tuple,
            stats: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """Softmax attention of split heads on one (B, heads, T, Tk) grid, and its row statistics.

    q is (B, heads, T, dh), and k and v are (B, heads, Tk, dh). The scores
    q kᵀ are scaled by ``scale``, each array of ``biases`` (constant addends
    that broadcast to the scores) is added to them in turn, and their softmax
    weighs v's rows into the (B, heads, T, dh) context. It returns the
    context and the softmax's row (max, sum), (B, heads, T, 1) each. Given
    the stats of an earlier call on the same q, k and biases, it reuses them
    and rebuilds that call's probabilities bit for bit (see _softmax); with
    v None it returns the probabilities in place of the context.
    """
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores *= scale
    for bias in biases:
        scores += bias
    p, stats = _softmax(scores, stats)
    return (p if v is None else np.matmul(p, v)), stats


def _attend_backward(q: np.ndarray, k: np.ndarray, v: np.ndarray | None, scale: float,
                     biases: tuple, stats: tuple, g: np.ndarray) -> tuple:
    """The adjoints of q, k and v in _attend, given the context's adjoint ``g``.

    It rebuilds the probabilities from q, k and the forward's ``stats``. q's
    and k's adjoints read v, so with v None it forms only v's and returns
    None for the other two. It drops each grid once it has read it last,
    its arguments too, so a caller that passes arrays it keeps no other
    reference to holds the backward's peak down.
    """
    p = _attend(q, k, None, scale, biases, stats)[0]
    gv = np.matmul(p.swapaxes(-1, -2), g)
    if v is None:
        return None, None, gv
    gs = np.matmul(g, v.swapaxes(-1, -2))
    g = v = None
    gs = _softmax_backward(p, gs)
    p = None
    gs *= scale
    gq = np.matmul(gs, k)
    k = None
    return gq, np.matmul(gs.swapaxes(-1, -2), q), gv


def attention(x: DiffTensor, kv: DiffTensor, wq: DiffTensor, wk: DiffTensor, wv: DiffTensor,
              heads: int, biases: tuple, mask) -> DiffTensor:
    """Multi-head scaled dot-product attention with its q, k and v projections as one recorded op.

    ``x`` is the packed (n, d_in) query rows at the True cells of the (B, T)
    bool ``mask``, in row-major order. ``kv`` is the key and value source:
    packed rows on the same mask when it is 2-D (self-attention passes
    ``kv=x``), or a (B, Tk, d_kv) memory when it is 3-D (cross-attention).
    The op projects q = x @ wq, k = kv @ wk and v = kv @ wv with the folded
    2-D GEMMs of ``matmul``, so its values equal those of the ``matmul``
    chain bit for bit, splits them into heads of width d/heads on the grid,
    runs _attend there with the scale 1/sqrt(d/heads) and ``biases``, a
    tuple of constant numpy masks that get no gradient, and merges the head
    contexts back into packed (n, d) rows. The split fills the grid's other
    cells with zero rows, which ``biases`` should mask as keys; a mask that
    covers the whole grid places nothing.

    The closure keeps no (B, heads, T, Tk) grid: it keeps _attend's two
    statistics, the caller's ``biases``, and the data of ``x``, ``kv`` and
    the weights where backward reads it, to recompute q, k and v with the
    same GEMMs for _attend_backward. ``kv``'s adjoint comes back on two
    edges, from k and from v, so ``backward`` adds q's, k's and v's terms in
    the order the ``matmul`` chain did, and the op's gradients equal the
    chain's. A ``kv`` read by several attention ops gets their terms in walk
    order, the last op's first, where the chain added each op's k and v
    terms in forward order.
    """
    if x.ndim != 2:
        raise DimensionError(f"attention: packed queries must be (n, d), got {x.shape}")
    mask = _grid_mask("attention", mask, x.shape[0])
    b, tq = mask.shape
    if wq.ndim != 2 or wq.shape[0] != x.shape[1]:
        raise DimensionError(f"attention: wq {wq.shape} does not fit queries {x.shape}")
    d = wq.shape[1]
    packed_kv = kv.ndim == 2
    if not (kv.shape[0] == x.shape[0] if packed_kv else kv.ndim == 3 and kv.shape[0] == b):
        raise DimensionError(f"attention: keys {kv.shape} do not align with queries {x.shape}")
    if wk.shape != (kv.shape[-1], d) or wv.shape != wk.shape:
        raise DimensionError(
            f"attention: wk {wk.shape} and wv {wv.shape} do not map keys {kv.shape} to width {d}")
    if heads < 1 or d % heads:
        raise DimensionError(f"attention: {heads} heads do not divide width {d}")
    if not isinstance(biases, tuple):
        raise ContractError(f"attention: biases must be a tuple of addends, got {type(biases)}")
    rows = None if mask.all() else np.nonzero(mask)
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    score_shape = (b, heads, tq, tq if packed_kv else kv.shape[1])
    for bias in biases:
        try:
            fits = np.broadcast_shapes(np.shape(bias), score_shape) == score_shape
        except ValueError:
            fits = False
        if not fits:
            raise DimensionError(
                f"attention: bias shape {np.shape(bias)} does not broadcast to {score_shape}")

    def split(t):  # packed (n, d) rows, or (B, T, d) -> (B, heads, T, dh)
        if t.ndim == 2 and rows is not None:
            grid = np.zeros((b, heads, tq, dh))
            grid[rows[0], :, rows[1]] = t.reshape(-1, heads, dh)
            return grid
        return np.ascontiguousarray(t.reshape(b, -1, heads, dh).transpose(0, 2, 1, 3))

    def merge(t, packed):  # (B, heads, T, dh) -> packed (n, d) rows, or (B, T, d)
        if packed and rows is not None:
            return t[rows[0], :, rows[1]].reshape(-1, d)
        grid = np.ascontiguousarray(t.transpose(0, 2, 1, 3))
        return grid.reshape(-1, d) if packed else grid.reshape(b, -1, d)

    context, stats = _attend(split(_project(x.data, wq.data)), split(_project(kv.data, wk.data)),
                             split(_project(kv.data, wv.data)), scale, biases)
    out = merge(context, True)

    # q's and k's adjoints read v (see _attend_backward); a projection's input
    # adjoint reads its weight, and the weight's reads its input.
    x_grad, kv_grad = x.requires_grad, kv.requires_grad
    wq_grad, wk_grad, wv_grad = wq.requires_grad, wk.requires_grad, wv.requires_grad
    q_grad, k_grad = x_grad or wq_grad, kv_grad or wk_grad
    xd, kvd, wqd, wkd = x.data, kv.data, wq.data, wk.data
    wvd = wv.data if q_grad or k_grad or kv_grad else None

    def backward_fn(g):  # the kernel gets the only reference to each grid, and drops it
        gq, gk, gv = _attend_backward(
            split(_project(xd, wqd)), split(_project(kvd, wkd)),
            split(_project(kvd, wvd)) if q_grad or k_grad else None, scale, biases, stats,
            split(g))

        def through(gp, packed, src, w, src_grad, w_grad):  # adjoints of src and w in src @ w
            if not (src_grad or w_grad):
                return None, None
            return _project_backward(merge(gp, packed), src if w_grad else None,
                                     w if src_grad else None)

        gx, gwq = through(gq, True, xd, wqd, x_grad, wq_grad)
        gkv_k, gwk = through(gk, packed_kv, kvd, wkd, kv_grad, wk_grad)
        gkv_v, gwv = through(gv, packed_kv, kvd, wvd, kv_grad, wv_grad)
        return (gx, gkv_k, gkv_v, gwq, gwk, gwv)

    return _record(out, "attention", (x, kv, kv, wq, wk, wv), backward_fn)


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
    # Nothing of x is kept; gain's data only for x's gradient.
    gd = gain.data if x.requires_grad else None
    sg = gain.shape if gain.requires_grad else None
    sb = bias.shape if bias.requires_grad else None

    def backward_fn(g):
        return (None if gd is None else _normalize_backward(normed, inv, g * gd),
                None if sg is None else _unbroadcast(g * normed, sg),
                None if sb is None else _unbroadcast(g, sb))

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
    shape = table.shape

    def backward_fn(g):
        return (_scatter_rows(g, flat, shape),)

    return _record(out, "embedding_lookup", (table,), backward_fn)


def sum_axis(x: DiffTensor, axis: int) -> DiffTensor:
    """Sum over one axis, which is dropped from the shape."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"sum_axis: axis {axis} invalid for shape {x.shape}")
    out = x.data.sum(axis=axis)
    shape = x.shape

    def backward_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _record(out, "sum_axis", (x,), backward_fn)


def reshape(x: DiffTensor, shape: Sequence[int]) -> DiffTensor:
    shape = tuple(shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")
    before = x.shape

    def backward_fn(g):
        return (g.reshape(before),)

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
    shape, vocab = logits.shape, logits.shape[-1]
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

    def backward_fn(g):  # softmax minus one-hot, in one (rows, V) buffer
        p = flat - lse[:, None]
        np.exp(p, out=p)
        p[rows[keep], tf[keep]] -= 1.0
        p[~keep] = 0.0
        gs = float(np.asarray(g).reshape(()))
        p *= gs / n_keep if reduction == "mean" else gs
        return (p.reshape(shape),)

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

def _topo_order(root: DiffTensor) -> list[Node | DiffTensor]:
    """The graph above root, each entry after every entry it depends on.

    Entries are the recorded Nodes and the requires_grad leaf tensors they
    point to; a root without a node is its own one entry.
    """
    order: list[Node | DiffTensor] = []
    seen: set[int] = set()
    stack: list[tuple[Node | DiffTensor, bool]] = [
        (root if root._node is None else root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, Node):
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
    return order


def backward(loss: DiffTensor) -> None:
    """Add d(loss)/d(t) into ``grad`` of every reachable requires_grad leaf t.

    Leaves are the tensors with no node; the graph reaches no other tensor.
    Each node's closure is taken off the node just before it runs, so what
    it kept is freed once its adjoints are passed on. The closure is handed
    the only reference to the node's adjoint: the walk keeps none while it
    runs, so an adjoint the closure replaces (``g = g * mask``) or stops
    reading is freed at once, and so is anything the closure drops before
    it returns. A graph that reaches a node whose closure has run (a second
    call on the same loss, or a loss sharing a walked subgraph) raises
    ContractError before any ``grad`` changes.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    if any(isinstance(node, Node) and node.backward_fn is None for node in order):
        raise ContractError("backward: the graph reaches nodes an earlier backward walked, "
                            "whose saved arrays are freed; record the graph again")
    root = id(order[-1])
    adjoint: dict[int, np.ndarray] = {root: np.ones_like(loss.data)}
    # Adjoints that backward allocated itself by summing, so it may add into
    # them in place. A closure's result may be a view, or be shared between
    # parents (add hands out g twice), so it is never written to.
    owned: set[int] = {root}
    for node in reversed(order):
        nid = id(node)
        if nid not in adjoint:
            continue
        if not isinstance(node, Node):
            g = adjoint.pop(nid)
            node.grad = (g if nid in owned else g.copy()) if node.grad is None else node.grad + g
            del g
            continue
        owned.discard(nid)
        backward_fn, node.backward_fn = node.backward_fn, None
        # The closure gets the only reference to its adjoint, and no local
        # here outlives this body, so what the closure drops is freed.
        grads = backward_fn(adjoint.pop(nid))
        for parent, pg in zip(node.parents, grads):
            if pg is None or parent is None:
                continue
            pid = id(parent)
            if pid not in adjoint:
                adjoint[pid] = pg
            elif pid in owned:
                adjoint[pid] += pg
            else:
                adjoint[pid] = adjoint[pid] + pg
                owned.add(pid)
        backward_fn = grads = pg = None


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

    def __post_init__(self) -> None:
        """ConfigError("<name> must be ...") for the first setting of a wrong kind or value."""
        for name, value in self.settings().items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if name in ("step_count", "warmup_steps"):
                ok, rule = number and isinstance(value, int) and value >= 0, "an int >= 0"
            elif name in ("beta1", "beta2"):
                ok, rule = number and 0 <= value < 1, "in [0, 1)"
            else:  # base_lr, epsilon and clip_norm, which None turns off
                ok = (value is None and name == "clip_norm") or (number and 0 < value < np.inf)
                rule = "finite and > 0"
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {value!r}")

    @classmethod
    def for_params(cls, params: Sequence[DiffTensor], base_lr: float,
                   **settings) -> "AdamState":
        """Zero moments for params; settings left out keep the field defaults."""
        return cls([np.zeros_like(p.data) for p in params],
                   [np.zeros_like(p.data) for p in params], base_lr=base_lr, **settings)

    def settings(self) -> dict:
        """The scalar fields (all but the moments) by name, as checkpoints store them."""
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}

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


def check_loss(where: str, loss: float, first: float, classes: int) -> None:
    """Raise NodeGaeError naming `where` when a training loss is not finite or
    exceeds 1e3 times its run's scale: the larger of the run's first loss and
    ln(classes), the cross-entropy of a uniform guess over the classes it ranks."""
    bound = 1e3 * max(first, float(np.log(classes)))
    if not (np.isfinite(loss) and loss <= bound):
        raise NodeGaeError(
            f"training diverged at {where}: loss {loss!r} is not finite or above {bound!r}")


def zero_grads(params: Iterable[DiffTensor]) -> None:
    for p in params:
        p.grad = None
