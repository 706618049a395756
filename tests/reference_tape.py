"""A copy-everything reverse pass, the bitwise oracle for diffcore.backward.

It copies every adjoint a backward closure returns and sums with fresh
arrays only, so no buffer is ever shared or written in place. It visits
nodes in diffcore's own topological order, so every sum associates exactly
as in ``backward`` and the two must agree bit for bit.
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
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            pg = np.array(pg, copy=True)
            adjoint[pid] = pg if pid not in adjoint else adjoint[pid] + pg
    return grads
