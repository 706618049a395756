"""A copy-everything reverse pass, the bitwise oracle for diffcore.backward.

It copies every adjoint a backward closure returns and sums with fresh
arrays only, so no buffer is ever shared or written in place. It visits
nodes in diffcore's own topological order, so every sum associates exactly
as in ``backward`` and the two must agree bit for bit. It also keeps the
op chains that the fused graph-layer and dropout ops replaced.
"""

import numpy as np

from nodegae import diffcore as dc


def reference_leaf_grads(loss):
    """{id(leaf): d(loss)/d(leaf)} for every reachable requires_grad leaf; no tensor is touched."""
    adjoint = {id(loss): np.ones_like(loss.data)}
    grads = {}
    for node in reversed(dc._topo_order(loss)):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            grads[id(node)] = np.array(g, copy=True)
            continue
        for parent, pg in zip(node._parents, node._backward_fn(np.array(g, copy=True))):
            if pg is None or parent is None or not parent.requires_grad:
                continue
            pid = id(parent)
            pg = np.array(pg, copy=True)
            adjoint[pid] = pg if pid not in adjoint else adjoint[pid] + pg
    return grads


# The op chains that diffcore.graph_layer and diffcore.dropout replace, as
# their bitwise oracles. spmm is the removed dc.spmm: a constant sparse
# matrix times a tensor, only the tensor gets a gradient.

def spmm(a, x):
    return dc._record(a @ x.data, "spmm", (x,), lambda g: (a.T @ g,))


def chain_graph_layer(a, x, w, w_self=None, rows=None, relu=False):
    """relu?((a @ x) @ w [+ (x @ w_self)[rows]]) from matmul, embedding_lookup, add and relu,
    recorded in the order the gcn and sage layers recorded them."""
    own = None
    if w_self is not None:
        own = dc.matmul(x, w_self)
        if rows is not None:
            own = dc.embedding_lookup(own, rows)
    out = dc.matmul(spmm(a, x), w)
    if own is not None:
        out = dc.add(own, out)
    return dc.relu(out) if relu else out


def chain_dropout(x, keep_mask, keep):
    return dc.mul(x, dc.constant(keep_mask.astype(np.float64) / keep))
