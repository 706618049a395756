"""A copy-everything reverse pass, the bitwise oracle for diffcore.backward.

It copies every adjoint a backward closure returns and sums with fresh
arrays only, so no buffer is ever shared or written in place. It visits
nodes in diffcore's own topological order, so every sum associates exactly
as in ``backward`` and the two must agree bit for bit. It also keeps the
op chains that the fused graph-layer, dropout, attention and feed-forward
ops replaced, and the padded stage-1 forward that the packed one replaced.
"""

import numpy as np

from nodegae import autoencoder as ae
from nodegae import diffcore as dc
from nodegae import textcorpus as tc


def reference_leaf_grads(loss):
    """{id(leaf): d(loss)/d(leaf)} for every reachable requires_grad leaf; no tensor is touched."""
    order = dc._topo_order(loss)
    adjoint = {id(order[-1]): np.ones_like(loss.data)}
    grads = {}
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if not isinstance(node, dc.Node):
            grads[id(node)] = np.array(g, copy=True)
            continue
        for parent, pg in zip(node.parents, node.backward_fn(np.array(g, copy=True))):
            if pg is None or parent is None:
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


def chain_feed_forward(x, w1, b1, w2, b2):
    """The matmul, gelu, matmul chain that diffcore.feed_forward replaces."""
    return dc.matmul(dc.gelu(dc.matmul(x, w1, b1)), w2, b2)


def qkv_attention(q, k, v, heads, bias, mask):
    """dc.attention before it projected its own q, k and v: one recorded op on projected
    q rows packed at the True cells of the (B, T) bool mask, and k and v as packed rows
    on q's mask or (B, Tk, d) memory."""
    b, tq = mask.shape
    flat = np.flatnonzero(mask)
    assert flat.size == q.shape[0], (flat.size, q.shape)
    d = q.shape[1]
    rows = None if flat.size == b * tq else np.divmod(flat, tq)
    packed_kv = k.ndim == 2
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):  # packed (n, d) rows, or (B, T, d) -> (B, heads, T, dh)
        if x.ndim == 2 and rows is not None:
            grid = np.zeros((b, heads, tq, dh))
            grid[rows[0], :, rows[1]] = x.reshape(-1, heads, dh)
            return grid
        return np.ascontiguousarray(x.reshape(b, -1, heads, dh).transpose(0, 2, 1, 3))

    def merge(x, packed):  # (B, heads, T, dh) -> packed (n, d) rows, or (B, T, d)
        if packed and rows is not None:
            return x[rows[0], :, rows[1]].reshape(-1, d)
        grid = np.ascontiguousarray(x.transpose(0, 2, 1, 3))
        return grid.reshape(-1, d) if packed else grid.reshape(b, -1, d)

    scores = np.matmul(split(q.data), split(k.data).swapaxes(-1, -2))
    scores *= scale
    if bias is not None:
        scores += bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(p, split(v.data)), True)

    def backward_fn(g):
        gh = split(g)
        gs = dc._softmax_backward(p, np.matmul(gh, split(v.data).swapaxes(-1, -2)))
        gs *= scale
        return (merge(np.matmul(gs, split(k.data)), True) if q.requires_grad else None,
                merge(np.matmul(gs.swapaxes(-1, -2), split(q.data)), packed_kv)
                if k.requires_grad else None,
                merge(np.matmul(p.swapaxes(-1, -2), gh), packed_kv) if v.requires_grad else None)

    return dc._record(out, "attention", (q, k, v), backward_fn)


def chain_attention(x, kv, wq, wk, wv, heads, bias, mask):
    """The q, k and v matmuls and qkv_attention, recorded in the order the autoencoder
    recorded them."""
    q = dc.matmul(x, wq)
    k = dc.matmul(kv, wk)
    v = dc.matmul(kv, wv)
    return qkv_attention(q, k, v, heads, bias, mask)


# The padded stage-1 forward: every op runs on the whole (B, T) grid and PAD
# positions are masked only as attention keys, in pooling and in the loss.
# It is the oracle of the packed forward, which must equal it bit for bit at
# every real position.

def padded_attention(q, k, v, heads, bias=None):
    """qkv_attention of (B, Tq, d) queries, as rows of the mask that covers their whole
    grid, viewed as (B, Tq, d) again; k and v are (B, Tk, d)."""
    b, tq, d = q.shape
    rows = dc.reshape(q, (b * tq, d))
    out = qkv_attention(rows, k, v, heads, bias, np.ones((b, tq), dtype=bool))
    return dc.reshape(out, (b, tq, d))


def _padded_block_attention(q_src, kv_src, params, prefix, heads, bias=None):
    q = dc.matmul(q_src, params[prefix + ".wq"])
    k = dc.matmul(kv_src, params[prefix + ".wk"])
    v = dc.matmul(kv_src, params[prefix + ".wv"])
    return dc.matmul(padded_attention(q, k, v, heads, bias), params[prefix + ".wo"])


def _padded_feed_forward(x, params, prefix):
    return chain_feed_forward(x, *(params[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2")))


def _ln(x, params, prefix):
    return dc.layer_norm(x, params[prefix + ".g"], params[prefix + ".b"])


def padded_encoder_hidden(model, ids):
    """Final encoder states of every position, (B, T, d_enc)."""
    cfg, params = model.config, model.params
    t = ids.shape[1]
    x = dc.add(dc.embedding_lookup(params["enc.tok_emb"], ids),
               dc.embedding_lookup(params["enc.pos_emb"], np.arange(t)))
    key_bias = np.where(ids == tc.PAD_ID, ae.MASK_BIAS, 0.0)[:, None, None, :]
    for i in range(cfg.enc_layers):
        p = f"enc.l{i}"
        a = _ln(x, params, p + ".ln1")
        x = dc.add(x, _padded_block_attention(a, a, params, p + ".attn", cfg.heads, key_bias))
        f = _ln(x, params, p + ".ln2")
        x = dc.add(x, _padded_feed_forward(f, params, p + ".ff"))
    return _ln(x, params, "enc.out_ln")


def padded_encode_batch(model, ids):
    """Mean of the non-pad positions' states: a mask-weighted sum over the grid."""
    mask = ids != tc.PAD_ID
    masked = dc.mul(padded_encoder_hidden(model, ids),
                    dc.constant(mask[:, :, None].astype(np.float64)))
    return dc.mul(dc.sum_axis(masked, 1), dc.constant((1.0 / mask.sum(axis=1))[:, None]))


def padded_decoder_logits(model, memory, dec_ids):
    """Next-token logits of every decoder position, (B, T, vocab)."""
    cfg, params = model.config, model.params
    t = dec_ids.shape[1]
    x = dc.add(dc.embedding_lookup(params["dec.tok_emb"], dec_ids),
               dc.embedding_lookup(params["dec.pos_emb"], np.arange(t)))
    causal = np.triu(np.full((t, t), ae.MASK_BIAS), k=1)
    pad = np.where(dec_ids == tc.PAD_ID, ae.MASK_BIAS, 0.0)[:, None, None, :]
    self_bias = causal[None, None, :, :] + pad
    for i in range(cfg.dec_layers):
        p = f"dec.l{i}"
        a = _ln(x, params, p + ".ln1")
        x = dc.add(x, _padded_block_attention(a, a, params, p + ".attn", cfg.heads, self_bias))
        c = _ln(x, params, p + ".ln2")
        x = dc.add(x, _padded_block_attention(c, memory, params, p + ".cross", cfg.heads))
        f = _ln(x, params, p + ".ln3")
        x = dc.add(x, _padded_feed_forward(f, params, p + ".ff"))
    return dc.matmul(_ln(x, params, "dec.out_ln"), params["lm_head"])


def padded_pretrain_loss(model, graph, batch_nodes, positives, cfg):
    """ae.pretrain_loss on the padded forward, with (B, T, vocab) logits."""
    batch = [int(v) for v in batch_nodes]
    b = len(batch)
    row_of = {}
    for i, v in enumerate(batch):
        row_of.setdefault(v, i)
    nodes = list(batch)
    positive_rows = {hop: np.full(b, -1, dtype=np.int64) for hop in ae.HOPS}
    for i in range(b):
        for hop in ae.HOPS:
            p = positives[hop][i]
            if p is None:
                continue
            if p not in row_of:
                row_of[p] = len(nodes)
                nodes.append(p)
            positive_rows[hop][i] = row_of[p]
    ids = tc.pad_sequences([model.tokens_for(graph.texts[v]) for v in nodes])
    latents = padded_encode_batch(model, ids)
    info = ae.infonce_loss(latents, positive_rows, cfg)
    targets = ids[:b]
    memory = ae.project(model, dc.embedding_lookup(latents, np.arange(b)))
    logits = padded_decoder_logits(model, memory, ae.shift_for_teacher_forcing(targets))
    return ae.lm_loss(logits, targets), info
