"""Text autoencoder over graph nodes and its self-supervised pretraining.

The model encodes a node's token sequence with a pre-layernorm transformer,
mean-pools the non-pad positions into a latent vector h, projects h to a
short sequence of decoder inputs, and reconstructs the original tokens with
a causal transformer decoder under teacher forcing. Pretraining minimizes
the reconstruction loss plus a hop-weighted contrastive loss that pulls h
toward sampled graph neighbors and away from the other anchors in the batch.
After pretraining the encoder is frozen and used purely as a feature
extractor for downstream graph models.
"""

import json
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, ContractError, DimensionError
from .graphstore import TextGraph, sample_positive
from .textcorpus import BOS_ID, EOS_ID, PAD_ID, Vocabulary, encode, pad_sequences, replace_files

__all__ = [
    "ModelConfig",
    "InfoNCEConfig",
    "AutoencoderModel",
    "encode_node",
    "encode_batch",
    "project",
    "decoder_logits",
    "shift_for_teacher_forcing",
    "lm_loss",
    "infonce_loss",
    "draw_positives",
    "pretrain_loss",
    "pretrain_step",
    "extract_embeddings",
    "reconstruct",
    "model_file",
    "save_model",
    "load_model",
]

MASK_BIAS = -1e30
# Rows per encode_batch call in extract_embeddings; bounds its peak memory.
EXTRACT_BATCH = 256


@dataclass
class ModelConfig:
    """Architecture sizes; defaults are desk scale, minutes not hours."""

    vocab_size: int
    d_enc: int = 64
    d_dec: int = 64
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    proj_len: int = 4
    ff_mult: int = 2
    max_len: int = 64

    def validate(self) -> None:
        if self.vocab_size < 5:
            raise ConfigError(f"vocab_size must be >= 5, got {self.vocab_size}")
        for name in ("d_enc", "d_dec", "enc_layers", "dec_layers", "heads",
                     "proj_len", "ff_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if self.d_enc % self.heads or self.d_dec % self.heads:
            raise ConfigError(
                f"head count {self.heads} must divide d_enc {self.d_enc} "
                f"and d_dec {self.d_dec}"
            )


@dataclass
class InfoNCEConfig:
    """Contrastive-loss settings: temperature and per-hop weights."""

    tau: float = 0.5
    hops: Tuple[int, ...] = (1, 2)
    alphas: Tuple[float, ...] = (1.0, 0.1)
    normalize: bool = True

    def validate(self) -> None:
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if len(self.hops) != len(self.alphas):
            raise ConfigError(
                f"hops {self.hops} and alphas {self.alphas} must align"
            )
        if any(k < 1 for k in self.hops):
            raise ConfigError(f"hops must be >= 1, got {self.hops}")
        if any(a < 0 for a in self.alphas):
            raise ConfigError(f"alphas must be >= 0, got {self.alphas}")

    @property
    def disabled(self) -> bool:
        return all(a == 0.0 for a in self.alphas)


class AutoencoderModel:
    """Parameter store plus the configuration and vocabulary they assume."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 params: Dict[str, dc.DiffTensor]):
        self.config = config
        self.vocab = vocab
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocabulary, seed: int = 0
             ) -> "AutoencoderModel":
        config.validate()
        if vocab.size != config.vocab_size:
            raise ConfigError(
                f"config says vocab_size {config.vocab_size} but vocabulary "
                f"has {vocab.size} entries"
            )
        rng = np.random.default_rng(seed)
        params: Dict[str, dc.DiffTensor] = {}

        def lin(name, fan_in, fan_out):
            params[name] = dc.parameter(
                rng.normal(0.0, fan_in ** -0.5, (fan_in, fan_out)))

        def emb(name, rows, dim):
            params[name] = dc.parameter(rng.normal(0.0, 0.02, (rows, dim)))

        def norm(prefix, dim):
            params[prefix + ".g"] = dc.parameter(np.ones(dim))
            params[prefix + ".b"] = dc.parameter(np.zeros(dim))

        def block(prefix, dim, ff, cross_dim=None):
            norm(prefix + ".ln1", dim)
            for w in ("wq", "wk", "wv", "wo"):
                lin(f"{prefix}.attn.{w}", dim, dim)
            if cross_dim is not None:
                norm(prefix + ".ln2", dim)
                lin(f"{prefix}.cross.wq", dim, dim)
                lin(f"{prefix}.cross.wk", cross_dim, dim)
                lin(f"{prefix}.cross.wv", cross_dim, dim)
                lin(f"{prefix}.cross.wo", dim, dim)
            norm(prefix + (".ln3" if cross_dim is not None else ".ln2"), dim)
            lin(f"{prefix}.ff.w1", dim, ff)
            params[f"{prefix}.ff.b1"] = dc.parameter(np.zeros(ff))
            lin(f"{prefix}.ff.w2", ff, dim)
            params[f"{prefix}.ff.b2"] = dc.parameter(np.zeros(dim))

        v, de, dd = config.vocab_size, config.d_enc, config.d_dec
        emb("enc.tok_emb", v, de)
        emb("enc.pos_emb", config.max_len, de)
        for i in range(config.enc_layers):
            block(f"enc.l{i}", de, config.ff_mult * de)
        norm("enc.out_ln", de)
        lin("proj.w1", de, de)
        lin("proj.w2", de, config.proj_len * dd)
        emb("dec.tok_emb", v, dd)
        emb("dec.pos_emb", config.max_len, dd)
        for i in range(config.dec_layers):
            block(f"dec.l{i}", dd, config.ff_mult * dd, cross_dim=dd)
        norm("dec.out_ln", dd)
        lin("lm_head", dd, v)
        return cls(config, vocab, params)

    def parameters(self) -> List[dc.DiffTensor]:
        return list(self.params.values())

    def tokens_for(self, text: str) -> np.ndarray:
        return encode(text, self.vocab, self.config.max_len)


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------

def _layer_norm(x, params, prefix):
    return dc.layer_norm(x, params[prefix + ".g"], params[prefix + ".b"])


def _attention(q_src, kv_src, params, prefix, heads, bias, layout):
    """Multi-head attention with input and output projections over packed rows.

    q_src holds the rows at layout's positions, and so does a 2-D kv_src; a
    3-D kv_src is the (B, slots, d) memory. bias is an additive numpy mask
    that broadcasts to (B, heads, Tq, Tk).
    """
    q = dc.matmul(q_src, params[prefix + ".wq"])
    k = dc.matmul(kv_src, params[prefix + ".wk"])
    v = dc.matmul(kv_src, params[prefix + ".wv"])
    return dc.matmul(dc.attention(q, k, v, heads, bias, layout), params[prefix + ".wo"])


def _feed_forward(x, params, prefix):
    h = dc.gelu(dc.matmul(x, params[prefix + ".w1"], params[prefix + ".b1"]))
    return dc.matmul(h, params[prefix + ".w2"], params[prefix + ".b2"])


def _as_id_matrix(ids) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 2:
        raise ContractError(f"token ids must be a (B, T) matrix, got {arr.shape}")
    return arr


def _layout(ids: np.ndarray, positions=None) -> Tuple[int, int, np.ndarray]:
    """The dc.attention layout (B, T, flat) of a (B, T) id matrix.

    flat holds the given flat positions, by default the non-PAD ones.
    """
    if positions is None:
        return ids.shape[0], ids.shape[1], np.flatnonzero(ids != PAD_ID)
    return dc.check_layout("decoder_logits", (*ids.shape, positions), np.size(positions))


def _embed(params, prefix: str, ids: np.ndarray, flat: np.ndarray) -> dc.DiffTensor:
    """Token plus position embeddings of the ids at the flat positions, (n, d)."""
    return dc.add(dc.embedding_lookup(params[prefix + ".tok_emb"], ids.reshape(-1)[flat]),
                  dc.embedding_lookup(params[prefix + ".pos_emb"], flat % ids.shape[1]))


def encoder_hidden(model: AutoencoderModel, ids) -> dc.DiffTensor:
    """Final encoder states of the non-PAD positions, packed (n, d_enc) in row-major order.

    Every per-token op runs on these rows; only attention sees the (B, T) grid.
    """
    ids = _as_id_matrix(ids)
    cfg, params = model.config, model.params
    if ids.shape[1] > cfg.max_len:
        raise ContractError(f"sequence length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    layout = _layout(ids)
    x = _embed(params, "enc", ids, layout[2])
    key_bias = np.where(ids == PAD_ID, MASK_BIAS, 0.0)[:, None, None, :]
    for i in range(cfg.enc_layers):
        p = f"enc.l{i}"
        a = _layer_norm(x, params, p + ".ln1")
        x = dc.add(x, _attention(a, a, params, p + ".attn", cfg.heads, key_bias, layout))
        f = _layer_norm(x, params, p + ".ln2")
        x = dc.add(x, _feed_forward(f, params, p + ".ff"))
    return _layer_norm(x, params, "enc.out_ln")


def encode_batch(model: AutoencoderModel, ids) -> dc.DiffTensor:
    """Latent vectors for a padded id matrix: mean of non-pad positions.

    Pooling places the packed states in the (B, T, d_enc) grid, with zeros
    at pad, sums over T and divides by the non-pad count, so appending pad
    columns leaves every row of the result unchanged.
    """
    ids = _as_id_matrix(ids)
    counts = (ids != PAD_ID).sum(axis=1)
    if np.any(counts == 0):
        raise ContractError("encode: a sequence consists entirely of padding")
    # numpy sums over a middle axis one position at a time, in order, so pad
    # positions add exact zeros and each row is bit-identical to the sum over
    # its unpadded sequence, whatever the padded length is.
    grid = dc.to_grid(encoder_hidden(model, ids), _layout(ids))
    return dc.mul(dc.sum_axis(grid, 1), dc.constant((1.0 / counts)[:, None]))


def encode_node(model: AutoencoderModel, tokens) -> dc.DiffTensor:
    """Latent vector h for one token sequence, shape (d_enc,)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ContractError(f"expected a non-empty 1-d id sequence, got {tokens.shape}")
    h = encode_batch(model, tokens[None, :])
    return dc.reshape(h, (model.config.d_enc,))


def project(model: AutoencoderModel, h: dc.DiffTensor) -> dc.DiffTensor:
    """Map latents (B, d_enc) to decoder input slots (B, proj_len, d_dec):
    relu(h W1) W2 reshaped to rows.
    """
    cfg = model.config
    if h.ndim != 2 or h.shape[1] != cfg.d_enc:
        raise DimensionError(f"project expects (B, {cfg.d_enc}) latents, got {h.shape}")
    z = dc.relu(dc.matmul(h, model.params["proj.w1"]))
    flat = dc.matmul(z, model.params["proj.w2"])
    return dc.reshape(flat, (h.shape[0], cfg.proj_len, cfg.d_dec))


def decoder_logits(model: AutoencoderModel, memory: dc.DiffTensor, dec_ids,
                   positions=None) -> dc.DiffTensor:
    """Next-token logits (n, vocab) for the non-PAD teacher-forced decoder inputs.

    Rows follow the inputs in row-major (B, T) order. positions, increasing
    flat positions of dec_ids, replaces the non-PAD ones as the inputs that
    get a row; a PAD input among them stays masked as a key. Self-attention
    is causal (each position sees itself and the left context);
    cross-attention reads memory, the (B, slots, d_dec) rows that project
    returns.
    """
    dec_ids = _as_id_matrix(dec_ids)
    cfg, params = model.config, model.params
    b, t = dec_ids.shape
    if t > cfg.max_len:
        raise ContractError(f"decoder length {t} exceeds max_len {cfg.max_len}")
    if memory.ndim != 3 or memory.shape[0] != b or memory.shape[-1] != cfg.d_dec:
        raise DimensionError(
            f"memory shape {memory.shape} is not (batch {b}, slots, "
            f"d_dec {cfg.d_dec})")
    layout = _layout(dec_ids, positions)
    x = _embed(params, "dec", dec_ids, layout[2])
    causal = np.triu(np.full((t, t), MASK_BIAS), k=1)
    pad = np.where(dec_ids == PAD_ID, MASK_BIAS, 0.0)[:, None, None, :]
    self_bias = causal[None, None, :, :] + pad
    for i in range(cfg.dec_layers):
        p = f"dec.l{i}"
        a = _layer_norm(x, params, p + ".ln1")
        x = dc.add(x, _attention(a, a, params, p + ".attn", cfg.heads, self_bias, layout))
        c = _layer_norm(x, params, p + ".ln2")
        x = dc.add(x, _attention(c, memory, params, p + ".cross", cfg.heads, None, layout))
        f = _layer_norm(x, params, p + ".ln3")
        x = dc.add(x, _feed_forward(f, params, p + ".ff"))
    x = _layer_norm(x, params, "dec.out_ln")
    return dc.matmul(x, params["lm_head"])


def shift_for_teacher_forcing(targets) -> np.ndarray:
    """Decoder inputs: BOS followed by the targets shifted right by one."""
    targets = _as_id_matrix(targets)
    shifted = np.empty_like(targets)
    shifted[:, 0] = BOS_ID
    shifted[:, 1:] = targets[:, :-1]
    return shifted


def lm_loss(logits: dc.DiffTensor, targets) -> dc.DiffTensor:
    """Mean negative log-likelihood of targets, one per logits row; PAD targets excluded."""
    return dc.cross_entropy_logits(logits, np.asarray(targets, dtype=np.int64),
                                   ignore_index=PAD_ID, reduction="mean")


# ---------------------------------------------------------------------------
# Contrastive loss
# ---------------------------------------------------------------------------

def infonce_loss(latents: dc.DiffTensor, positive_rows: Mapping[int, Sequence[int]],
                 cfg: InfoNCEConfig) -> dc.DiffTensor:
    """Hop-weighted in-batch contrastive loss, averaged over the anchors.

    The anchors are the first B rows of latents (R, d). positive_rows[hop]
    gives, for each anchor, the row of its hop-k positive, or -1 when it has
    none. Anchor i's logits for a hop are its similarity to that positive
    followed by its similarities to the other anchors in row order, over
    tau; its term is the cross-entropy of the positive, weighted by the
    hop's alpha. Absent positives contribute exactly zero, and so does every
    anchor when B = 1. Rows are L2-normalized before the dot products unless
    cfg.normalize is off.
    """
    cfg.validate()
    rows = [np.asarray(positive_rows[hop], dtype=np.int64) for hop in cfg.hops]
    hops = [(alpha, r) for alpha, r in zip(cfg.alphas, rows) if np.any(r >= 0)]
    if not hops:
        return dc.constant(0.0)
    b = rows[0].size
    if (latents.ndim != 2 or not 1 <= b <= latents.shape[0]
            or any(r.shape != (b,) for r in rows)):
        raise DimensionError(
            f"positive rows {[r.shape for r in rows]} do not fit latents {latents.shape}")
    n = latents.shape[0]
    if any(r.min() < -1 or r.max() >= n for r in rows):
        raise ContractError(f"positive rows out of range [-1, {n})")
    if np.any((latents.data ** 2).sum(axis=-1) == 0.0):
        raise ContractError("contrastive loss received a zero-norm embedding")

    unit = dc.l2_normalize_lastdim(latents) if cfg.normalize else latents
    anchors = dc.embedding_lookup(unit, np.arange(b))
    sim = dc.mul(dc.matmul(anchors, dc.transpose(unit, (1, 0))),
                 dc.constant(1.0 / cfg.tau))
    flat = dc.reshape(sim, (b * n, 1))
    # Column j of anchor i's negatives is anchor j, or j + 1 from the diagonal on.
    cols = np.arange(b - 1)[None, :]
    others = cols + (cols >= np.arange(b)[:, None])
    start = np.arange(b)[:, None] * n
    total = None
    for alpha, pos in hops:
        picks = np.concatenate([np.maximum(pos, 0)[:, None], others], axis=1)
        logits = dc.reshape(dc.embedding_lookup(flat, start + picks), (b, b))
        term = dc.cross_entropy_logits(logits, np.where(pos >= 0, 0, -1),
                                       ignore_index=-1, reduction="sum")
        term = dc.mul(term, dc.constant(alpha / b))
        total = term if total is None else dc.add(total, term)
    return total


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def draw_positives(graph: TextGraph, batch_nodes: Sequence[int],
                   rng: np.random.Generator, cfg: InfoNCEConfig
                   ) -> Dict[int, List[Optional[int]]]:
    """positives[hop][i]: a node drawn at exactly hop k from anchor i, or None.

    Draws anchor by anchor, every hop per anchor, and draws nothing when the
    contrastive loss is disabled.
    """
    positives: Dict[int, List[Optional[int]]] = {
        hop: [None] * len(batch_nodes) for hop in cfg.hops}
    if not cfg.disabled:
        for i, v in enumerate(batch_nodes):
            for hop in cfg.hops:
                positives[hop][i] = sample_positive(graph, v, hop, rng)
    return positives


def pretrain_loss(model: AutoencoderModel, graph: TextGraph,
                  batch_nodes: Sequence[int],
                  positives: Mapping[int, Sequence[Optional[int]]],
                  cfg: InfoNCEConfig) -> Tuple[dc.DiffTensor, dc.DiffTensor]:
    """Reconstruction and contrastive losses of one batch, as recorded tensors.

    positives[hop][i] is the node drawn as anchor i's hop-k positive, or None.
    Anchors and positives are encoded in a single padded forward pass; each
    positive that is not an anchor adds one row, in order of first use.
    """
    batch = [int(v) for v in batch_nodes]
    b = len(batch)
    row_of: Dict[int, int] = {}
    for i, v in enumerate(batch):
        row_of.setdefault(v, i)
    nodes = list(batch)
    positive_rows = {hop: np.full(b, -1, dtype=np.int64) for hop in cfg.hops}
    for i in range(b):
        for hop in cfg.hops:
            p = positives[hop][i]
            if p is None:
                continue
            if p not in row_of:
                row_of[p] = len(nodes)
                nodes.append(p)
            positive_rows[hop][i] = row_of[p]

    ids = pad_sequences([model.tokens_for(graph.texts[v]) for v in nodes])
    latents = encode_batch(model, ids)
    info = infonce_loss(latents, positive_rows, cfg)
    targets = ids[:b]
    memory = project(model, dc.embedding_lookup(latents, np.arange(b)))
    dec_ids = shift_for_teacher_forcing(targets)
    logits = decoder_logits(model, memory, dec_ids)
    # The logits rows are the non-PAD decoder inputs. Their targets include
    # PAD after each shorter row's EOS input, which lm_loss ignores.
    return lm_loss(logits, targets[dec_ids != PAD_ID]), info


def pretrain_step(model: AutoencoderModel, graph: TextGraph,
                  batch_nodes: Sequence[int], adam: dc.AdamState,
                  rng: np.random.Generator, cfg: InfoNCEConfig
                  ) -> Tuple[float, float]:
    """One optimizer step on reconstruction plus contrastive loss.

    Draws the batch's positives, minimizes the unweighted sum of the two
    pretrain_loss terms with one Adam update, and returns their
    (reconstruction, contrastive) values.
    """
    cfg.validate()
    batch = [int(v) for v in batch_nodes]
    if len(batch) < 2:
        raise ContractError(
            f"pretrain batch needs >= 2 anchors for in-batch negatives, got {len(batch)}")
    positives = draw_positives(graph, batch, rng, cfg)
    reconstruction, info = pretrain_loss(model, graph, batch, positives, cfg)
    params = model.parameters()
    dc.zero_grads(params)
    dc.backward(dc.add(reconstruction, info))
    dc.adam_step(params, adam)
    return float(reconstruction.item()), float(info.item())


def extract_embeddings(model: AutoencoderModel, graph: TextGraph):
    """Latent vector per node as an EmbeddingMatrix; the model is unchanged.

    Nodes are encoded in batches of equal token length, at most
    EXTRACT_BATCH rows each, with no ops recorded. No row is padded, and
    every op treats batch rows independently, so each row is bit-identical
    to a standalone encode_node call.
    """
    from .downstream import EmbeddingMatrix

    tokens = [model.tokens_for(text) for text in graph.texts]
    lengths = np.array([t.size for t in tokens])
    out = np.empty((graph.num_nodes, model.config.d_enc))
    with dc.no_grad():
        for length in np.unique(lengths):
            nodes = np.flatnonzero(lengths == length)
            for start in range(0, nodes.size, EXTRACT_BATCH):
                chunk = nodes[start:start + EXTRACT_BATCH]
                out[chunk] = encode_batch(model, np.stack([tokens[v] for v in chunk])).data
    return EmbeddingMatrix(out, provenance="nodegae")


def reconstruct(model: AutoencoderModel, tokens, max_gen_len: Optional[int] = None
                ) -> np.ndarray:
    """Greedy decode conditioned on the latent of tokens; stops at EOS.

    The forward is the batch one with B = 1, and every generated position
    gets a logits row, so a generated PAD is read like any other token.
    """
    if max_gen_len is None:
        max_gen_len = model.config.max_len
    generated = [BOS_ID]
    with dc.no_grad():
        memory = project(model, encode_batch(model, np.asarray(tokens)[None]))
        for _ in range(max_gen_len):
            logits = decoder_logits(model, memory, np.asarray(generated)[None, :],
                                    positions=np.arange(len(generated)))
            nxt = int(np.argmax(logits.data[-1]))
            generated.append(nxt)
            if nxt == EOS_ID:
                break
    return np.asarray(generated[1:], dtype=np.int64)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT_VERSION = 1


def model_file(path, model: AutoencoderModel, adam: Optional[dc.AdamState] = None,
               extra_meta: Optional[dict] = None) -> Tuple[Path, Callable[[BinaryIO], None]]:
    """The (path, writer) of a checkpoint npz, as textcorpus.replace_files takes them.

    It holds the parameters as "t:<name>", then the Adam moments as
    "t:opt.m.<name>" and "t:opt.v.<name>", all float64, and a JSON "__meta__".
    """
    arrays = {name: p.data for name, p in model.params.items()}
    meta = {
        "kind": "autoencoder",
        "config": asdict(model.config),
        "vocab": model.vocab.id_to_token,
    }
    if extra_meta:
        meta.update(extra_meta)
    if adam is not None:
        for name, m, v in zip(model.params, adam.first_moment, adam.second_moment):
            arrays["opt.m." + name] = m
            arrays["opt.v." + name] = v
        meta["optimizer"] = adam.settings()
    meta["format_version"] = CHECKPOINT_FORMAT_VERSION
    payload = {"t:" + k: np.ascontiguousarray(a, dtype=np.float64) for k, a in arrays.items()}
    payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    return Path(path), lambda fh: np.savez(fh, **payload)


def save_model(path, model: AutoencoderModel, adam: Optional[dc.AdamState] = None,
               extra_meta: Optional[dict] = None, alongside: Sequence[tuple] = ()) -> None:
    """Replace path with model_file's checkpoint and each (path, content) of alongside.

    One textcorpus.replace_files call writes them all, so a failed save
    leaves every old file as it was.
    """
    replace_files([*alongside, model_file(path, model, adam, extra_meta)])


def load_model(path) -> Tuple[AutoencoderModel, Optional[dc.AdamState], dict]:
    """Rebuild a model (and optimizer state if stored) from a model_file checkpoint.

    A file that is no npz archive, or that misses a block the format needs,
    raises ContractError naming the path and what is missing.
    """
    try:
        with np.load(path, allow_pickle=False) as bundle:
            if "__meta__" not in bundle:
                raise ContractError(f"checkpoint {path}: missing metadata block")
            meta = json.loads(str(bundle["__meta__"]))
            tensors = {k[2:]: bundle[k].copy() for k in bundle.files if k.startswith("t:")}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # numpy reads a file that is no zip archive as a pickle, and says so.
        raise ContractError(f"checkpoint {path} cannot be read as a model_file npz") from exc
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ContractError(
            f"checkpoint {path}: unsupported format version {meta.get('format_version')}")

    def stored(block, key):
        if key not in block:
            raise ContractError(f"checkpoint {path} is missing '{key}'")
        return block[key]

    config = ModelConfig(**stored(meta, "config"))
    vocab = Vocabulary.from_tokens(stored(meta, "vocab"))
    model = AutoencoderModel.init(config, vocab, seed=0)
    for name, param in model.params.items():
        if name not in tensors:
            raise ContractError(f"checkpoint is missing parameter '{name}'")
        if tensors[name].shape != param.data.shape:
            raise ContractError(
                f"checkpoint parameter '{name}' has shape {tensors[name].shape}, "
                f"expected {param.data.shape}")
        param.data = tensors[name]

    adam = None
    if "optimizer" in meta:
        adam = dc.AdamState.from_settings(
            [stored(tensors, "opt.m." + name) for name in model.params],
            [stored(tensors, "opt.v." + name) for name in model.params], meta["optimizer"])
    return model, adam, meta
