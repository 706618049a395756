"""Command line pipeline: dataset generation, pretraining, embedding
extraction, downstream training, and the contrastive-loss ablation.

Every command validates its configuration (including path existence) before
touching the filesystem, so a configuration error never leaves partial
artifacts behind. Exit codes: 0 success, 1 configuration or input error,
2 runtime failure.
"""

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import diffcore as dc
from .autoencoder import (
    AutoencoderModel,
    InfoNCEConfig,
    ModelConfig,
    extract_embeddings,
    load_model,
    pretrain_step,
    reconstruct,
    save_model,
)
from .downstream import (
    BACKBONES,
    DownstreamConfig,
    EmbeddingMatrix,
    load_embeddings,
    predict_links,
    random_embeddings,
    save_embeddings,
    shallow_embeddings,
    train_link_predictor,
    train_node_classifier,
)
from .errors import ConfigError, IngestionError, NodeGaeError
from .evalmetrics import accuracy, bleu, roc_auc, rouge_l, token_f1
from .graphstore import LinkSplit, TextGraph, build_link_split
from .textcorpus import (
    SyntheticGraphSpec,
    build_vocab,
    decode,
    generate_synthetic,
    load_textgraph,
    save_textgraph,
    tokenize,
)

DATASET_FILES = ("nodes.tsv", "edges.tsv", "splits.txt")
TASKS = ("nodecls", "linkpred")


def _fmt(x: float) -> str:
    return repr(float(x))


def dataset_paths(root) -> Tuple[Path, Path, Path]:
    root = Path(root)
    return root / DATASET_FILES[0], root / DATASET_FILES[1], root / DATASET_FILES[2]


def load_dataset(root) -> TextGraph:
    nodes, edges, splits = dataset_paths(root)
    return load_textgraph(nodes, edges, splits)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Every knob of both stages, as parsed from the command line."""

    command: str = ""
    seed: int = 0
    # paths
    dataset: Optional[str] = None
    out: Optional[str] = None
    out_dir: Optional[str] = None
    checkpoint: Optional[str] = None
    embeddings: Optional[str] = None
    resume: Optional[str] = None
    # synthetic dataset
    nodes: int = 512
    classes: int = 6
    keywords_per_class: int = 20
    doc_min: int = 8
    doc_max: int = 16
    intra_prob: float = 0.05
    inter_prob: float = 0.005
    class_token_fraction: float = 0.7
    # stage 1: autoencoder pretraining
    steps: int = 500
    batch_size: int = 16
    pretrain_lr: float = 1e-3
    warmup: int = 100
    clip_norm: float = 1.0
    d_enc: int = 64
    d_dec: int = 64
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    proj_len: int = 4
    ff_mult: int = 2
    max_len: int = 64
    vocab_size: int = 2048
    tau: float = 0.5
    alpha1: float = 1.0
    alpha2: float = 0.1
    raw_similarity: bool = False
    recon_every: int = 100
    recon_samples: int = 8
    # embedding extraction
    baseline: str = "model"
    dim: int = 64
    # stage 2: downstream training
    task: str = "nodecls"
    backbone: str = "mlp"
    backbones: str = "mlp"
    repeats: int = 10
    hidden_dim: int = 64
    num_layers: int = 2
    dropout: float = 0.5
    train_lr: Optional[float] = None
    epochs: int = 200
    patience: int = 50
    batch_edges: int = 128
    link_scorer: str = "dot"
    link_seed: int = 0
    log_every_iter: bool = False
    no_self_loops: bool = False

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        kwargs = {f.name: getattr(ns, f.name) for f in fields(cls) if hasattr(ns, f.name)}
        return cls(**kwargs)

    # -- validation helpers -------------------------------------------------

    def synthetic_spec(self) -> SyntheticGraphSpec:
        return SyntheticGraphSpec(
            num_nodes=self.nodes,
            num_classes=self.classes,
            keywords_per_class=self.keywords_per_class,
            doc_length=(self.doc_min, self.doc_max),
            intra_class_edge_prob=self.intra_prob,
            inter_class_edge_prob=self.inter_prob,
            class_token_fraction=self.class_token_fraction,
            seed=self.seed,
        )

    def infonce(self, alphas: Optional[Tuple[float, float]] = None) -> InfoNCEConfig:
        if alphas is None:
            alphas = (self.alpha1, self.alpha2)
        return InfoNCEConfig(tau=self.tau, hops=(1, 2), alphas=alphas,
                             normalize=not self.raw_similarity)

    def backbone_list(self) -> List[str]:
        return [b.strip() for b in self.backbones.split(",") if b.strip()]

    def downstream(self, task: str, backbone: str, seed: int) -> DownstreamConfig:
        kwargs = dict(
            backbone=backbone, hidden_dim=self.hidden_dim,
            num_layers=self.num_layers, dropout=self.dropout,
            epochs=self.epochs, patience=self.patience, seed=seed,
            batch_edges=self.batch_edges,
            log_every_iter=self.log_every_iter and task == "linkpred",
            add_self_loops=not self.no_self_loops,
            link_scorer=self.link_scorer,
        )
        if self.train_lr is not None:
            kwargs["lr"] = self.train_lr
        build = (DownstreamConfig.for_node_classification if task == "nodecls"
                 else DownstreamConfig.for_link_prediction)
        return build(**kwargs)

    def _require_dataset(self) -> None:
        if self.dataset is None:
            raise ConfigError("--dataset is required")
        for p in dataset_paths(self.dataset):
            if not p.is_file():
                raise ConfigError(f"dataset file not found: {p}")

    def _validate_stage1(self) -> None:
        if self.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {self.steps}")
        if self.batch_size < 2:
            raise ConfigError(f"--batch-size must be >= 2, got {self.batch_size}")
        if self.pretrain_lr <= 0:
            raise ConfigError(f"pretraining lr must be positive, got {self.pretrain_lr}")
        if self.warmup < 0:
            raise ConfigError(f"--warmup must be >= 0, got {self.warmup}")
        if self.vocab_size < 5:
            raise ConfigError(f"--vocab-size must be >= 5, got {self.vocab_size}")
        if self.recon_every < 0 or self.recon_samples < 1:
            raise ConfigError("--recon-every must be >= 0 and --recon-samples >= 1")
        # Structural check of the model shape; the real vocab size is known
        # only after the corpus is read, so a placeholder stands in for it.
        ModelConfig(vocab_size=5, d_enc=self.d_enc, d_dec=self.d_dec,
                    enc_layers=self.enc_layers, dec_layers=self.dec_layers,
                    heads=self.heads, proj_len=self.proj_len,
                    ff_mult=self.ff_mult, max_len=self.max_len).validate()
        self.infonce().validate()

    def _validate_stage2(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"--task must be one of {TASKS}, got '{self.task}'")
        if self.repeats < 1:
            raise ConfigError(f"--repeats must be >= 1, got {self.repeats}")
        for backbone in ([self.backbone] if self.command == "train"
                         else self.backbone_list()):
            self.downstream(self.task, backbone, self.seed).validate()

    def validate(self) -> None:
        if self.command == "generate":
            if self.out is None:
                raise ConfigError("--out is required")
            self.synthetic_spec().validate()
        elif self.command == "pretrain":
            self._require_dataset()
            self._validate_stage1()
            if self.resume is not None and not Path(self.resume).is_file():
                raise ConfigError(f"resume checkpoint not found: {self.resume}")
        elif self.command == "embed":
            self._require_dataset()
            if self.baseline == "model":
                if self.checkpoint is None:
                    raise ConfigError("--checkpoint is required unless --baseline is used")
                if not Path(self.checkpoint).is_file():
                    raise ConfigError(f"checkpoint not found: {self.checkpoint}")
            elif self.dim < 1:
                raise ConfigError(f"--dim must be >= 1, got {self.dim}")
        elif self.command == "train":
            self._require_dataset()
            if self.embeddings is None:
                raise ConfigError("--embeddings is required")
            if not Path(self.embeddings).is_file():
                raise ConfigError(f"embeddings file not found: {self.embeddings}")
            self._validate_stage2()
        elif self.command == "ablate":
            self._require_dataset()
            self._validate_stage1()
            if not self.backbone_list():
                raise ConfigError("--backbones must name at least one backbone")
            self._validate_stage2()
        else:
            raise ConfigError(f"unknown command '{self.command}'")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig) -> int:
    graph = generate_synthetic(cfg.synthetic_spec())
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_textgraph(graph, *dataset_paths(out))
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {out}")
    return 0


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def _reconstruction_scores(model: AutoencoderModel, graph: TextGraph,
                           num_samples: int) -> Tuple[float, float, float]:
    """Mean BLEU / ROUGE-L / token F1 of greedy decodes on sample nodes."""
    bleus, rouges, f1s = [], [], []
    for v in range(min(num_samples, graph.num_nodes)):
        tokens = model.tokens_for(graph.texts[v])
        ref = decode(tokens, model.vocab)
        if not ref:
            continue
        gen = decode(reconstruct(model, tokens), model.vocab)
        if not gen:
            bleus.append(0.0)
            rouges.append(0.0)
            f1s.append(0.0)
        else:
            bleus.append(bleu(gen, ref))
            rouges.append(rouge_l(gen, ref))
            f1s.append(token_f1(gen, ref))
    if not bleus:
        return 0.0, 0.0, 0.0
    return float(np.mean(bleus)), float(np.mean(rouges)), float(np.mean(f1s))


def _fresh_model(cfg: RunConfig, graph: TextGraph
                 ) -> Tuple[AutoencoderModel, dc.AdamState]:
    """A newly initialized autoencoder over the graph's vocabulary, and its optimizer."""
    vocab = build_vocab(graph.texts, max_size=cfg.vocab_size)
    mcfg = ModelConfig(vocab_size=vocab.size, d_enc=cfg.d_enc, d_dec=cfg.d_dec,
                       enc_layers=cfg.enc_layers, dec_layers=cfg.dec_layers,
                       heads=cfg.heads, proj_len=cfg.proj_len,
                       ff_mult=cfg.ff_mult, max_len=cfg.max_len)
    model = AutoencoderModel.init(mcfg, vocab, seed=cfg.seed)
    adam = dc.AdamState.for_params(
        model.parameters(), base_lr=cfg.pretrain_lr, warmup_steps=cfg.warmup,
        clip_norm=cfg.clip_norm if cfg.clip_norm > 0 else None)
    return model, adam


def cmd_pretrain(cfg: RunConfig) -> int:
    graph = load_dataset(cfg.dataset)
    if graph.num_nodes < 2:
        raise ConfigError("pretraining needs at least 2 nodes")

    rng = np.random.default_rng(cfg.seed)
    if cfg.resume is not None:
        model, adam, meta = load_model(cfg.resume)
        if adam is None:
            raise ConfigError(f"{cfg.resume} has no optimizer state; cannot resume")
        # Continue the stopped run's batch and positive draws instead of replaying them.
        if "rng_state" in meta:
            rng.bit_generator.state = meta["rng_state"]
    else:
        model, adam = _fresh_model(cfg, graph)

    icfg = cfg.infonce()
    batch_size = min(cfg.batch_size, graph.num_nodes)

    log_rows: List[str] = []
    recon_rows: List[str] = []
    for _ in range(cfg.steps):
        batch = rng.choice(graph.num_nodes, size=batch_size, replace=False)
        lm, info = pretrain_step(model, graph, batch, adam, rng, icfg)
        step = adam.step_count
        if not np.isfinite(lm + info):
            raise NodeGaeError(
                f"pretraining diverged at step {step}: loss {lm!r} + {info!r} is not finite")
        log_rows.append(f"{step},{_fmt(lm)},{_fmt(info)},{_fmt(lm + info)}")
        if cfg.recon_every and step % cfg.recon_every == 0:
            b, r, f = _reconstruction_scores(model, graph, cfg.recon_samples)
            recon_rows.append(f"{step},{_fmt(b)},{_fmt(r)},{_fmt(f)}")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "pretrain_log.csv"
    recon_path = out_dir / "recon_metrics.csv"
    if cfg.resume is not None and log_path.exists():
        with log_path.open("a", encoding="utf-8") as fh:
            fh.write("\n".join(log_rows) + "\n")
    else:
        log_path.write_text("step,lm_loss,infonce_loss,total\n"
                            + "\n".join(log_rows) + "\n", encoding="utf-8")
    if cfg.resume is not None and recon_path.exists():
        if recon_rows:
            with recon_path.open("a", encoding="utf-8") as fh:
                fh.write("\n".join(recon_rows) + "\n")
    else:
        body = ("\n".join(recon_rows) + "\n") if recon_rows else ""
        recon_path.write_text("step,bleu,rouge_l,token_f1\n" + body, encoding="utf-8")

    save_model(out_dir / "model.npz", model, adam,
               extra_meta={"dataset": str(cfg.dataset),
                           "rng_state": rng.bit_generator.state})
    last = log_rows[-1].split(",")
    print(f"pretrained to step {last[0]} (total loss {last[3]}); "
          f"artifacts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def _check_vocab_coverage(model: AutoencoderModel, graph: TextGraph) -> None:
    total = 0
    known = 0
    for text in graph.texts:
        for tok in tokenize(text):
            total += 1
            known += tok in model.vocab.token_to_id
    if total and known == 0:
        raise ConfigError(
            "checkpoint vocabulary shares no tokens with this dataset; "
            "it was pretrained on a different corpus")


def cmd_embed(cfg: RunConfig) -> int:
    graph = load_dataset(cfg.dataset)
    if cfg.baseline == "random":
        emb = random_embeddings(graph.num_nodes, cfg.dim, seed=cfg.seed)
    elif cfg.baseline == "shallow":
        emb = shallow_embeddings(graph, cfg.dim, seed=cfg.seed)
    else:
        model, _, _ = load_model(cfg.checkpoint)
        _check_vocab_coverage(model, graph)
        emb = extract_embeddings(model, graph)
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_embeddings(emb, out)
    print(f"wrote {emb.num_rows}x{emb.dim} '{emb.provenance}' embeddings to {out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _final_metric(task: str, model, emb: EmbeddingMatrix, graph: TextGraph,
                  split: Optional[LinkSplit]) -> float:
    if task == "nodecls":
        preds = np.argmax(model.forward(emb.matrix).data, axis=1)
        test_idx = graph.splits["test"]
        return accuracy(preds[test_idx], graph.labels[test_idx])
    pos, neg = split.positives("test"), split.negatives("test")
    scores = predict_links(model, emb, np.concatenate([pos, neg], axis=0))
    labels = np.concatenate([np.ones(len(pos), dtype=int),
                             np.zeros(len(neg), dtype=int)])
    return roc_auc(scores, labels)


def _run_repeats(cfg: RunConfig, graph: TextGraph, emb: EmbeddingMatrix,
                 task: str, backbone: str, split: Optional[LinkSplit]
                 ) -> Tuple[List[float], List[str], List[str]]:
    """Train `repeats` seeded models; return metrics, epoch rows, curve rows."""
    values: List[float] = []
    epoch_rows: List[str] = []
    curve_rows: List[str] = []
    for r in range(cfg.repeats):
        dcfg = cfg.downstream(task, backbone, seed=cfg.seed + r)
        if task == "nodecls":
            model, log = train_node_classifier(emb, graph, dcfg)
            for row in log:
                i = row["epoch"]
                epoch_rows.append(f"{r},epoch,{i},train,ce,{_fmt(row['train_loss'])}")
                epoch_rows.append(f"{r},epoch,{i},val,accuracy,{_fmt(row['val_acc'])}")
                epoch_rows.append(f"{r},epoch,{i},test,accuracy,{_fmt(row['test_acc'])}")
        else:
            model, log = train_link_predictor(emb, graph, split, dcfg)
            for row in log:
                if row["scope"] == "iter":
                    curve_rows.append(f"{r},{row['index']},{_fmt(row['value'])}")
                else:
                    epoch_rows.append(
                        f"{r},epoch,{row['index']},{row['split']},"
                        f"{row['metric']},{_fmt(row['value'])}")
        values.append(_final_metric(task, model, emb, graph, split))
    return values, epoch_rows, curve_rows


def _write_report(out_dir: Path, cfg: RunConfig, provenance: str, task: str,
                  backbone: str, values: List[float], epoch_rows: List[str],
                  curve_rows: List[str]) -> None:
    metric_name = "accuracy" if task == "nodecls" else "roc_auc"
    mean = float(np.mean(values))
    std = float(np.std(values))

    report = ["task,backbone,provenance,repeat,seed,metric,value"]
    for r, v in enumerate(values):
        report.append(f"{task},{backbone},{provenance},{r},{cfg.seed + r},"
                      f"{metric_name},{_fmt(v)}")
    report.append(f"{task},{backbone},{provenance},mean,,{metric_name},{_fmt(mean)}")
    report.append(f"{task},{backbone},{provenance},std,,{metric_name},{_fmt(std)}")
    (out_dir / "report.csv").write_text("\n".join(report) + "\n", encoding="utf-8")

    (out_dir / "epochs.csv").write_text(
        "repeat,scope,index,split,metric,value\n"
        + ("\n".join(epoch_rows) + "\n" if epoch_rows else ""), encoding="utf-8")

    if cfg.log_every_iter and task == "linkpred":
        (out_dir / "curve.csv").write_text(
            "repeat,iteration,val_roc_auc\n"
            + ("\n".join(curve_rows) + "\n" if curve_rows else ""), encoding="utf-8")

    summary = [
        f"task: {task}",
        f"backbone: {backbone}",
        f"embeddings: {provenance}",
        f"repeats: {cfg.repeats}",
        f"metric: {metric_name}",
        "values: " + " ".join(_fmt(v) for v in values),
        f"mean: {_fmt(mean)}",
        f"std: {_fmt(std)}",
    ]
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")


def cmd_train(cfg: RunConfig) -> int:
    graph = load_dataset(cfg.dataset)
    emb = load_embeddings(cfg.embeddings)
    if emb.num_rows != graph.num_nodes:
        raise ConfigError(
            f"embeddings have {emb.num_rows} rows for a {graph.num_nodes}-node graph")
    split = None
    if cfg.task == "linkpred":
        split = build_link_split(graph, seed=cfg.link_seed)
        split.validate(graph)
    elif graph.splits.get("test") is None or not graph.splits["test"].size:
        raise ConfigError("node classification needs a non-empty test split")

    values, epoch_rows, curve_rows = _run_repeats(
        cfg, graph, emb, cfg.task, cfg.backbone, split)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, cfg, emb.provenance, cfg.task, cfg.backbone,
                  values, epoch_rows, curve_rows)
    print(f"{cfg.task}/{cfg.backbone} on '{emb.provenance}': "
          f"mean {np.mean(values):.4f} +- {np.std(values):.4f} "
          f"over {cfg.repeats} runs; report in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _pretrain_in_memory(cfg: RunConfig, graph: TextGraph,
                        alphas: Tuple[float, float]) -> EmbeddingMatrix:
    model, adam = _fresh_model(cfg, graph)
    icfg = cfg.infonce(alphas)
    rng = np.random.default_rng(cfg.seed)
    batch_size = min(cfg.batch_size, graph.num_nodes)
    for _ in range(cfg.steps):
        batch = rng.choice(graph.num_nodes, size=batch_size, replace=False)
        pretrain_step(model, graph, batch, adam, rng, icfg)
    return extract_embeddings(model, graph)


def cmd_ablate(cfg: RunConfig) -> int:
    graph = load_dataset(cfg.dataset)
    if graph.num_nodes < 2:
        raise ConfigError("ablation needs at least 2 nodes")
    split = None
    if cfg.task == "linkpred":
        split = build_link_split(graph, seed=cfg.link_seed)
        split.validate(graph)
    elif graph.splits.get("test") is None or not graph.splits["test"].size:
        raise ConfigError("node classification needs a non-empty test split")

    variants = (
        ("with-infonce", _pretrain_in_memory(cfg, graph, (cfg.alpha1, cfg.alpha2))),
        ("without-infonce", _pretrain_in_memory(cfg, graph, (0.0, 0.0))),
    )

    metric_name = "accuracy" if cfg.task == "nodecls" else "roc_auc"
    csv_rows = ["backbone,mean_with,std_with,mean_without,std_without,delta"]
    summary = [f"task: {cfg.task}", f"metric: {metric_name}",
               f"repeats: {cfg.repeats}"]
    for backbone in cfg.backbone_list():
        stats = {}
        for name, emb in variants:
            values, _, _ = _run_repeats(cfg, graph, emb, cfg.task, backbone, split)
            stats[name] = (float(np.mean(values)), float(np.std(values)))
            summary.append(
                f"{backbone} {name}: mean {_fmt(stats[name][0])} "
                f"std {_fmt(stats[name][1])}")
        delta = stats["with-infonce"][0] - stats["without-infonce"][0]
        csv_rows.append(
            f"{backbone},{_fmt(stats['with-infonce'][0])},{_fmt(stats['with-infonce'][1])},"
            f"{_fmt(stats['without-infonce'][0])},{_fmt(stats['without-infonce'][1])},"
            f"{_fmt(delta)}")
        summary.append(f"{backbone} delta: {_fmt(delta)}")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_embeddings(variants[0][1], out_dir / "emb_with.txt")
    save_embeddings(variants[1][1], out_dir / "emb_without.txt")
    (out_dir / "ablation.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    print(f"ablation over {cfg.backbone_list()} written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_stage1_args(p: argparse.ArgumentParser, lr_flag: str) -> None:
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument(lr_flag, dest="pretrain_lr", type=float, default=1e-3,
                   help="pretraining learning rate")
    p.add_argument("--warmup", type=int, default=100,
                   help="linear warm-up steps for the pretraining lr")
    p.add_argument("--clip-norm", type=float, default=1.0,
                   help="global gradient norm clip; <= 0 disables")
    p.add_argument("--d-enc", type=int, default=64)
    p.add_argument("--d-dec", type=int, default=64)
    p.add_argument("--enc-layers", type=int, default=2)
    p.add_argument("--dec-layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--proj-len", type=int, default=4,
                   help="number of decoder memory slots")
    p.add_argument("--ff-mult", type=int, default=2)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--vocab-size", type=int, default=2048)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--alpha1", type=float, default=1.0)
    p.add_argument("--alpha2", type=float, default=0.1)
    p.add_argument("--raw-similarity", action="store_true",
                   help="skip L2 normalization inside the contrastive loss")


def _add_stage2_args(p: argparse.ArgumentParser, lr_flag: str) -> None:
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--num-layers", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument(lr_flag, dest="train_lr", type=float, default=None,
                   help="downstream lr; default 1e-2 for nodecls, 1e-4 for linkpred")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--batch-edges", type=int, default=128)
    p.add_argument("--link-scorer", choices=("dot", "mlp"), default="dot")
    p.add_argument("--link-seed", type=int, default=0,
                   help="seed of the 7:2:1 edge split for link prediction")
    p.add_argument("--no-self-loops", action="store_true",
                   help="drop self loops from the gcn adjacency")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodegae",
        description="Text autoencoder graph pretraining and downstream training pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic node-text dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--nodes", type=int, default=512)
    g.add_argument("--classes", type=int, default=6)
    g.add_argument("--keywords-per-class", type=int, default=20)
    g.add_argument("--doc-min", type=int, default=8)
    g.add_argument("--doc-max", type=int, default=16)
    g.add_argument("--intra-prob", type=float, default=0.05)
    g.add_argument("--inter-prob", type=float, default=0.005)
    g.add_argument("--class-token-fraction", type=float, default=0.7)
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("pretrain", help="train the text autoencoder")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out-dir", required=True)
    _add_stage1_args(t, "--lr")
    t.add_argument("--recon-every", type=int, default=100,
                   help="steps between reconstruction metric rows; 0 disables")
    t.add_argument("--recon-samples", type=int, default=8)
    t.add_argument("--resume", default=None,
                   help="checkpoint to continue training from")
    t.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("embed", help="extract per-node embeddings")
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--checkpoint", default=None)
    e.add_argument("--baseline", choices=("model", "random", "shallow"),
                   default="model",
                   help="use a baseline feature map instead of a checkpoint")
    e.add_argument("--dim", type=int, default=64,
                   help="baseline embedding width")
    e.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("train", help="train a downstream model on embeddings")
    r.add_argument("--dataset", required=True)
    r.add_argument("--embeddings", required=True)
    r.add_argument("--out-dir", required=True)
    r.add_argument("--task", choices=TASKS, default="nodecls")
    r.add_argument("--backbone", choices=BACKBONES, default="mlp")
    r.add_argument("--repeats", type=int, default=10)
    _add_stage2_args(r, "--lr")
    r.add_argument("--log-every-iter", action="store_true",
                   help="emit a per-iteration validation curve (linkpred)")
    r.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("ablate", help="compare pretraining with and without "
                                      "the contrastive loss")
    a.add_argument("--dataset", required=True)
    a.add_argument("--out-dir", required=True)
    a.add_argument("--task", choices=TASKS, default="nodecls")
    a.add_argument("--backbones", default="mlp", help="comma-separated list")
    a.add_argument("--repeats", type=int, default=5)
    _add_stage1_args(a, "--pretrain-lr")
    _add_stage2_args(a, "--train-lr")
    a.add_argument("--seed", type=int, default=0)

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "pretrain": cmd_pretrain,
    "embed": cmd_embed,
    "train": cmd_train,
    "ablate": cmd_ablate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        cfg.validate()
        return COMMANDS[cfg.command](cfg)
    except (ConfigError, IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NodeGaeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
