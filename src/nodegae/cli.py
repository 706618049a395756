"""Command line pipeline: dataset generation, pretraining, embedding
extraction, downstream training, and the contrastive-loss ablation.

Every command validates its configuration (including path existence) before
touching the filesystem, so a configuration error never leaves partial
artifacts behind. Exit codes: 0 success, 1 configuration or input error,
2 runtime failure.
"""

import argparse
import hashlib
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    LINK_SCORERS,
    DownstreamConfig,
    EmbeddingMatrix,
    embeddings_file,
    graph_operator,
    load_embeddings,
    random_embeddings,
    save_embeddings,
    score_splits,
    shallow_embeddings,
    train_link_predictor,
    train_node_classifier,
)
from .errors import ConfigError, IngestionError, NodeGaeError
from .evalmetrics import bleu, rouge_l, token_f1
from .graphstore import LinkSplit, TextGraph, build_link_split
from .textcorpus import (
    SyntheticGraphSpec,
    build_vocab,
    decode,
    generate_synthetic,
    load_textgraph,
    replace_files,
    save_textgraph,
    tokenize,
)

# The flags of one command line, parsed and resolved (see `resolve`).
Args = argparse.Namespace

DATASET_FILES = ("nodes.tsv", "edges.tsv", "splits.txt")
TASKS = ("nodecls", "linkpred")


def _fmt(x: float) -> str:
    return repr(float(x))


def dataset_paths(root) -> Tuple[Path, Path, Path]:
    root = Path(root)
    return root / DATASET_FILES[0], root / DATASET_FILES[1], root / DATASET_FILES[2]


def dataset_sha256(root) -> Dict[str, str]:
    """The sha256 hex digest of each dataset file, keyed by file name.

    It names the data whatever path reached it, so artifacts that store it
    do not depend on the working directory.
    """
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in dataset_paths(root)}


def _check_trained_on(checkpoint, meta: dict, data_sha256: Dict[str, str]) -> None:
    """Refuse a checkpoint whose stored dataset hashes differ from data_sha256.

    The error names both hashes of each changed file. A checkpoint that
    stores no hashes passes.
    """
    trained_on = meta.get("dataset_sha256", data_sha256)
    changed = [f"{name} {digest} (checkpoint: {trained_on.get(name)})"
               for name, digest in data_sha256.items() if trained_on.get(name) != digest]
    if changed:
        raise ConfigError(f"{checkpoint} was trained on other data: {', '.join(changed)}")


def load_dataset(root) -> TextGraph:
    nodes, edges, splits = dataset_paths(root)
    return load_textgraph(nodes, edges, splits)


def _csv(path: Path, header: str, rows: List[str], resume: bool = False) -> Tuple[Path, str]:
    """The (path, text) of a CSV artifact: the header and one line per row.

    With `resume`, an existing file's own text stands in for the header, so
    the rows follow the lines a stopped run wrote.
    """
    head = path.read_text(encoding="utf-8") if resume and path.exists() else header + "\n"
    return path, head + "".join(row + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Configuration: library configs built from the parsed flags, and checks
# ---------------------------------------------------------------------------

# Flag dests that name a pretraining optimizer setting, with the AdamState
# field each one sets.
OPTIMIZER_DESTS = {"pretrain_lr": "base_lr", "warmup": "warmup_steps", "clip_norm": "clip_norm"}
# Stage-2 flag dests that only link prediction reads; setting one under
# another task is an error.
LINKPRED_DESTS = ("batch_edges", "link_scorer", "link_seed", "log_every_iter")
# Stage-1 flag dests that `pretrain` stores as given in the checkpoint's
# "stage1_flags" metadata: the vocabulary budget, the seed, the InfoNCE config.
STORED_DESTS = ("vocab_size", "seed", "tau", "alpha1", "alpha2", "raw_similarity")


def _model_config(args: Args, vocab_size: int) -> ModelConfig:
    shape = {f.name: getattr(args, f.name) for f in fields(ModelConfig) if f.name != "vocab_size"}
    return ModelConfig(vocab_size=vocab_size, **shape)


def _adam_settings(args: Args) -> dict:
    return dict(base_lr=args.pretrain_lr, warmup_steps=args.warmup,
                clip_norm=args.clip_norm if args.clip_norm > 0 else None)


def _infonce(args: Args, alphas: Optional[Tuple[float, float]] = None) -> InfoNCEConfig:
    if alphas is None:
        alphas = (args.alpha1, args.alpha2)
    return InfoNCEConfig(tau=args.tau, alphas=alphas, normalize=not args.raw_similarity)


def _downstream(args: Args, backbone: str, log_every_iter: bool = False) -> DownstreamConfig:
    """Stage-2 config of one backbone, seeded with --seed (repeats add their index)."""
    kwargs = dict(
        backbone=backbone, hidden_dim=args.hidden_dim,
        num_layers=args.num_layers, dropout=args.dropout,
        epochs=args.epochs, patience=args.patience, seed=args.seed,
        batch_edges=args.batch_edges,
        log_every_iter=log_every_iter,
        add_self_loops=not args.no_self_loops,
        link_scorer=args.link_scorer,
    )
    if args.train_lr is not None:
        kwargs["lr"] = args.train_lr
    build = (DownstreamConfig.for_node_classification if args.task == "nodecls"
             else DownstreamConfig.for_link_prediction)
    return build(**kwargs)


def _check_dataset(args: Args) -> None:
    for p in dataset_paths(args.dataset):
        if not p.is_file():
            raise ConfigError(f"dataset file not found: {p}")


def _check_stage1(args: Args) -> None:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.batch_size < 2:
        raise ConfigError(f"--batch-size must be >= 2, got {args.batch_size}")
    if args.pretrain_lr <= 0:
        raise ConfigError(f"pretraining lr must be positive, got {args.pretrain_lr}")
    if args.warmup < 0:
        raise ConfigError(f"--warmup must be >= 0, got {args.warmup}")
    if args.vocab_size < 5:
        raise ConfigError(f"--vocab-size must be >= 5, got {args.vocab_size}")
    # The real vocabulary is known only once the corpus is read; its budget
    # bounds it, so the model shape is checked against the budget here.
    _model_config(args, args.vocab_size).validate()
    _infonce(args).validate()


def _check_stage2(args: Args, backbones: Sequence[str]) -> None:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    if args.task != "linkpred":
        unread = [flag for flag, dest, *_ in COMMANDS[args.command][2]
                  if dest in LINKPRED_DESTS and dest in args.user_set]
        if unread:
            raise ConfigError(f"--task {args.task} ignores {', '.join(unread)} "
                              "(link prediction only)")
    for backbone in backbones:
        _downstream(args, backbone).validate()


def _pretraining_graph(args: Args, purpose: str) -> TextGraph:
    graph = load_dataset(args.dataset)
    if graph.num_nodes < 2:
        raise ConfigError(f"{purpose} needs at least 2 nodes")
    return graph


def _task_split(args: Args, graph: TextGraph) -> Optional[LinkSplit]:
    """The validated edge split for linkpred; nodecls needs a non-empty test split."""
    if args.task == "linkpred":
        split = build_link_split(graph, seed=args.link_seed)
        split.validate(graph)
        return split
    if graph.splits.get("test") is None or not graph.splits["test"].size:
        raise ConfigError("node classification needs a non-empty test split")
    return None


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args: Args) -> int:
    graph = generate_synthetic(SyntheticGraphSpec(
        num_nodes=args.nodes,
        num_classes=args.classes,
        keywords_per_class=args.keywords_per_class,
        doc_length=(args.doc_min, args.doc_max),
        intra_class_edge_prob=args.intra_prob,
        inter_class_edge_prob=args.inter_prob,
        class_token_fraction=args.class_token_fraction,
        seed=args.seed,
    ))
    out = Path(args.out)
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
    scores = []
    for v in range(min(num_samples, graph.num_nodes)):
        tokens = model.tokens_for(graph.texts[v])
        ref = decode(tokens, model.vocab)
        if ref:
            gen = decode(reconstruct(model, tokens), model.vocab)
            scores.append((bleu(gen, ref), rouge_l(gen, ref), token_f1(gen, ref))
                          if gen else (0.0, 0.0, 0.0))
    if not scores:
        return 0.0, 0.0, 0.0
    return tuple(float(np.mean(column)) for column in zip(*scores))


def _fresh_model(args: Args, graph: TextGraph) -> Tuple[AutoencoderModel, dc.AdamState]:
    """A newly initialized autoencoder over the graph's vocabulary, and its optimizer."""
    vocab = build_vocab(graph.texts, max_size=args.vocab_size)
    model = AutoencoderModel.init(_model_config(args, vocab.size), vocab, seed=args.seed)
    adam = dc.AdamState.for_params(model.parameters(), **_adam_settings(args))
    return model, adam


def _pretraining(args: Args, graph: TextGraph, model: AutoencoderModel, adam: dc.AdamState,
                 rng: np.random.Generator, icfg: InfoNCEConfig
                 ) -> Iterator[Tuple[int, float, float]]:
    """Run --steps stage-1 steps, yielding (step, lm loss, InfoNCE loss) after each.

    The one step loop of `pretrain` and `ablate`. A non-finite loss raises
    NodeGaeError naming the step, so neither command writes the artifacts of
    a run that diverged.
    """
    batch_size = min(args.batch_size, graph.num_nodes)
    for _ in range(args.steps):
        batch = rng.choice(graph.num_nodes, size=batch_size, replace=False)
        lm, info = pretrain_step(model, graph, batch, adam, rng, icfg)
        step = adam.step_count
        if not np.isfinite(lm + info):
            raise NodeGaeError(
                f"pretraining diverged at step {step}: loss {lm!r} + {info!r} is not finite")
        yield step, lm, info


def _resume_flags(args: Args, model: AutoencoderModel, adam: dc.AdamState, meta: dict) -> None:
    """Refuse a flag the user set that the checkpoint contradicts; take unset ones from it.

    The model shape and the optimizer are always checked. The flags in
    STORED_DESTS are checked, and filled in, only when the checkpoint
    stores them.
    """
    stored = meta.get("stage1_flags", {})
    wanted = {**asdict(_model_config(args, model.config.vocab_size)), **_adam_settings(args),
              **{dest: getattr(args, dest) for dest in stored}}
    saved = {**asdict(model.config), **{k: getattr(adam, k) for k in OPTIMIZER_DESTS.values()},
             **stored}
    conflicts = []
    for flag, dest, *_ in PRETRAIN_FLAGS:
        key = OPTIMIZER_DESTS.get(dest, dest)
        if dest in args.user_set and key in saved and wanted[key] != saved[key]:
            conflicts.append(f"{flag} {getattr(args, dest)} (checkpoint: {saved[key]})")
    if conflicts:
        raise ConfigError(f"flags disagree with the checkpoint {args.resume}: "
                          f"{', '.join(conflicts)}; drop them to resume")
    for dest, value in stored.items():
        setattr(args, dest, value)


def cmd_pretrain(args: Args) -> int:
    _check_dataset(args)
    _check_stage1(args)
    if args.recon_every < 0 or args.recon_samples < 1:
        raise ConfigError("--recon-every must be >= 0 and --recon-samples >= 1")
    if args.resume is not None and not Path(args.resume).is_file():
        raise ConfigError(f"resume checkpoint not found: {args.resume}")
    graph = _pretraining_graph(args, "pretraining")

    rng = np.random.default_rng(args.seed)
    data_sha256 = dataset_sha256(args.dataset)
    if args.resume is not None:
        model, adam, meta = load_model(args.resume)
        if adam is None:
            raise ConfigError(f"{args.resume} has no optimizer state; cannot resume")
        _check_trained_on(args.resume, meta, data_sha256)
        _resume_flags(args, model, adam, meta)
        # Continue the stopped run's batch and positive draws instead of replaying them.
        if "rng_state" in meta:
            rng.bit_generator.state = meta["rng_state"]
    else:
        model, adam = _fresh_model(args, graph)

    log_rows: List[str] = []
    recon_rows: List[str] = []
    for step, lm, info in _pretraining(args, graph, model, adam, rng, _infonce(args)):
        log_rows.append(f"{step},{_fmt(lm)},{_fmt(info)},{_fmt(lm + info)}")
        if args.recon_every and step % args.recon_every == 0:
            b, r, f = _reconstruction_scores(model, graph, args.recon_samples)
            recon_rows.append(f"{step},{_fmt(b)},{_fmt(r)},{_fmt(f)}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resuming = args.resume is not None
    logs = [
        _csv(out_dir / "pretrain_log.csv", "step,lm_loss,infonce_loss,total", log_rows, resuming),
        _csv(out_dir / "recon_metrics.csv", "step,bleu,rouge_l,token_f1", recon_rows, resuming),
    ]
    save_model(out_dir / "model.npz", model, adam, alongside=logs,
               extra_meta={"dataset_sha256": data_sha256,
                           "rng_state": rng.bit_generator.state,
                           "stage1_flags": {dest: getattr(args, dest) for dest in STORED_DESTS}})
    print(f"pretrained to step {step} (total loss {_fmt(lm + info)}); artifacts in {out_dir}")
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


def cmd_embed(args: Args) -> int:
    _check_dataset(args)
    if args.baseline == "model":
        if args.checkpoint is None:
            raise ConfigError("--checkpoint is required unless --baseline is used")
        if not Path(args.checkpoint).is_file():
            raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    elif args.dim < 1:
        raise ConfigError(f"--dim must be >= 1, got {args.dim}")
    graph = load_dataset(args.dataset)
    if args.baseline == "random":
        emb = random_embeddings(graph.num_nodes, args.dim, seed=args.seed)
    elif args.baseline == "shallow":
        emb = shallow_embeddings(graph, args.dim, seed=args.seed)
    else:
        model, _, meta = load_model(args.checkpoint)
        _check_vocab_coverage(model, graph)
        _check_trained_on(args.checkpoint, meta, dataset_sha256(args.dataset))
        emb = extract_embeddings(model, graph)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_embeddings(emb, out)
    print(f"wrote {emb.num_rows}x{emb.dim} '{emb.provenance}' embeddings to {out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _run_repeats(args: Args, graph: TextGraph, emb: EmbeddingMatrix, dcfg: DownstreamConfig,
                 split: Optional[LinkSplit], operator
                 ) -> Tuple[List[float], List[str], List[str]]:
    """Train --repeats models seeded --seed + r; return metrics, epoch rows, curve rows.

    The repeats share `operator`, which the caller builds with graph_operator.
    """
    values: List[float] = []
    epoch_rows: List[str] = []
    curve_rows: List[str] = []
    for r in range(args.repeats):
        seeded = replace(dcfg, seed=args.seed + r)
        if args.task == "nodecls":
            model, log = train_node_classifier(emb, graph, seeded, operator=operator)
            for row in log:
                i = row["epoch"]
                epoch_rows.append(f"{r},epoch,{i},train,ce,{_fmt(row['train_loss'])}")
                epoch_rows.append(f"{r},epoch,{i},val,accuracy,{_fmt(row['val_acc'])}")
                epoch_rows.append(f"{r},epoch,{i},test,accuracy,{_fmt(row['test_acc'])}")
        else:
            model, log = train_link_predictor(emb, graph, split, seeded, operator=operator)
            for row in log:
                if row["scope"] == "iter":
                    curve_rows.append(f"{r},{row['index']},{_fmt(row['value'])}")
                else:
                    epoch_rows.append(
                        f"{r},epoch,{row['index']},{row['split']},"
                        f"{row['metric']},{_fmt(row['value'])}")
        values.append(score_splits(model, emb, graph, split, ("test",))["test"])
    return values, epoch_rows, curve_rows


def _write_report(out_dir: Path, args: Args, provenance: str, dcfg: DownstreamConfig,
                  values: List[float], epoch_rows: List[str],
                  curve_rows: List[str]) -> None:
    task, backbone = args.task, dcfg.backbone
    metric_name = "accuracy" if task == "nodecls" else "roc_auc"
    mean = float(np.mean(values))
    std = float(np.std(values))

    report = [f"{task},{backbone},{provenance},{r},{args.seed + r},{metric_name},{_fmt(v)}"
              for r, v in enumerate(values)]
    report.append(f"{task},{backbone},{provenance},mean,,{metric_name},{_fmt(mean)}")
    report.append(f"{task},{backbone},{provenance},std,,{metric_name},{_fmt(std)}")
    files = [_csv(out_dir / "report.csv", "task,backbone,provenance,repeat,seed,metric,value",
                  report),
             _csv(out_dir / "epochs.csv", "repeat,scope,index,split,metric,value", epoch_rows)]
    if dcfg.log_every_iter:
        files.append(_csv(out_dir / "curve.csv", "repeat,iteration,val_roc_auc", curve_rows))

    summary = [
        f"task: {task}",
        f"backbone: {backbone}",
        f"embeddings: {provenance}",
        f"repeats: {args.repeats}",
        f"metric: {metric_name}",
        "values: " + " ".join(_fmt(v) for v in values),
        f"mean: {_fmt(mean)}",
        f"std: {_fmt(std)}",
    ]
    replace_files(files + [(out_dir / "summary.txt", "\n".join(summary) + "\n")])


def cmd_train(args: Args) -> int:
    _check_dataset(args)
    if not Path(args.embeddings).is_file():
        raise ConfigError(f"embeddings file not found: {args.embeddings}")
    _check_stage2(args, [args.backbone])
    graph = load_dataset(args.dataset)
    emb = load_embeddings(args.embeddings)
    split = _task_split(args, graph)

    dcfg = _downstream(args, args.backbone, args.log_every_iter)
    values, epoch_rows, curve_rows = _run_repeats(args, graph, emb, dcfg, split,
                                                  graph_operator(dcfg, graph, split))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, args, emb.provenance, dcfg, values, epoch_rows, curve_rows)
    print(f"{args.task}/{args.backbone} on '{emb.provenance}': "
          f"mean {np.mean(values):.4f} +- {np.std(values):.4f} "
          f"over {args.repeats} runs; report in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _pretrained_embeddings(args: Args, graph: TextGraph,
                           alphas: Tuple[float, float]) -> EmbeddingMatrix:
    model, adam = _fresh_model(args, graph)
    rng = np.random.default_rng(args.seed)
    for _ in _pretraining(args, graph, model, adam, rng, _infonce(args, alphas)):
        pass
    return extract_embeddings(model, graph)


def cmd_ablate(args: Args) -> int:
    _check_dataset(args)
    _check_stage1(args)
    backbones = [b.strip() for b in args.backbones.split(",") if b.strip()]
    if not backbones:
        raise ConfigError("--backbones must name at least one backbone")
    _check_stage2(args, backbones)
    graph = _pretraining_graph(args, "ablation")
    split = _task_split(args, graph)

    variants = (
        ("with-infonce", _pretrained_embeddings(args, graph, (args.alpha1, args.alpha2))),
        ("without-infonce", _pretrained_embeddings(args, graph, (0.0, 0.0))),
    )

    metric_name = "accuracy" if args.task == "nodecls" else "roc_auc"
    csv_rows = []
    summary = [f"task: {args.task}", f"metric: {metric_name}",
               f"repeats: {args.repeats}"]
    for backbone in backbones:
        dcfg = _downstream(args, backbone)
        operator = graph_operator(dcfg, graph, split)
        stats = {}
        for name, emb in variants:
            values, _, _ = _run_repeats(args, graph, emb, dcfg, split, operator)
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

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    replace_files([
        embeddings_file(variants[0][1], out_dir / "emb_with.txt"),
        embeddings_file(variants[1][1], out_dir / "emb_without.txt"),
        _csv(out_dir / "ablation.csv",
             "backbone,mean_with,std_with,mean_without,std_without,delta", csv_rows),
        (out_dir / "summary.txt", "\n".join(summary) + "\n"),
    ])
    print(f"ablation over {backbones} written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Flags: one table per subcommand
# ---------------------------------------------------------------------------

# One row per flag, in --help order: (flag, dest, default, help, choices).
# The default also says how a value parses: REQUIRED marks a required
# string, False a switch, a bare type (str, float) a flag that is None when
# unset, and any other default parses as its own type. A default that a
# library dataclass owns is read from that dataclass.
REQUIRED = object()
SEED = ("--seed", "seed", 0, None, None)
DATASET = ("--dataset", "dataset", REQUIRED, None, None)
OUT_DIR = ("--out-dir", "out_dir", REQUIRED, None, None)
TASK = ("--task", "task", TASKS[0], None, TASKS)


def _exp(x: float) -> str:
    """A power of ten as help text writes it: 1e-2, not 0.01 or 1e-02."""
    return f"{x:.0e}".replace("e-0", "e-")


def _stage1_flags(lr_flag: str) -> list:
    shape = [(f"--{f.name.replace('_', '-')}", f.name, f.default,
              "number of decoder memory slots" if f.name == "proj_len" else None, None)
             for f in fields(ModelConfig) if f.name != "vocab_size"]
    return [
        ("--steps", "steps", 500, None, None),
        ("--batch-size", "batch_size", 16, None, None),
        (lr_flag, "pretrain_lr", dc.AdamState.base_lr, "pretraining learning rate", None),
        ("--warmup", "warmup", 100, "linear warm-up steps for the pretraining lr", None),
        ("--clip-norm", "clip_norm", dc.AdamState.clip_norm,
         "global gradient norm clip; <= 0 disables", None),
        *shape,
        ("--vocab-size", "vocab_size", 2048, None, None),
        ("--tau", "tau", InfoNCEConfig.tau, None, None),
        ("--alpha1", "alpha1", InfoNCEConfig.alphas[0], None, None),
        ("--alpha2", "alpha2", InfoNCEConfig.alphas[1], None, None),
        ("--raw-similarity", "raw_similarity", False,
         "skip L2 normalization inside the contrastive loss", None),
    ]


def _stage2_flags(lr_flag: str) -> list:
    d = DownstreamConfig
    lr_help = (f"downstream lr; default {_exp(d.for_node_classification().lr)} for nodecls, "
               f"{_exp(d.for_link_prediction().lr)} for linkpred")
    return [
        ("--hidden-dim", "hidden_dim", d.hidden_dim, None, None),
        ("--num-layers", "num_layers", d.num_layers, None, None),
        ("--dropout", "dropout", d.dropout, None, None),
        (lr_flag, "train_lr", float, lr_help, None),
        ("--epochs", "epochs", d.epochs, None, None),
        ("--patience", "patience", d.patience, None, None),
        ("--batch-edges", "batch_edges", d.batch_edges, None, None),
        ("--link-scorer", "link_scorer", d.link_scorer, None, LINK_SCORERS),
        ("--link-seed", "link_seed", 0, "seed of the 7:2:1 edge split for link prediction", None),
        ("--no-self-loops", "no_self_loops", False, "drop self loops from the gcn adjacency", None),
    ]


_spec = SyntheticGraphSpec
GENERATE_FLAGS = [
    ("--out", "out", REQUIRED, None, None),
    ("--nodes", "nodes", _spec.num_nodes, None, None),
    ("--classes", "classes", _spec.num_classes, None, None),
    ("--keywords-per-class", "keywords_per_class", _spec.keywords_per_class, None, None),
    ("--doc-min", "doc_min", _spec.doc_length[0], None, None),
    ("--doc-max", "doc_max", _spec.doc_length[1], None, None),
    ("--intra-prob", "intra_prob", _spec.intra_class_edge_prob, None, None),
    ("--inter-prob", "inter_prob", _spec.inter_class_edge_prob, None, None),
    ("--class-token-fraction", "class_token_fraction", _spec.class_token_fraction, None, None),
    SEED,
]
PRETRAIN_FLAGS = [
    DATASET, OUT_DIR, *_stage1_flags("--lr"),
    ("--recon-every", "recon_every", 100,
     "steps between reconstruction metric rows; 0 disables", None),
    ("--recon-samples", "recon_samples", 8, None, None),
    ("--resume", "resume", str, "checkpoint to continue training from", None),
    SEED,
]
EMBED_FLAGS = [
    DATASET,
    ("--out", "out", REQUIRED, None, None),
    ("--checkpoint", "checkpoint", str, None, None),
    ("--baseline", "baseline", "model", "use a baseline feature map instead of a checkpoint",
     ("model", "random", "shallow")),
    ("--dim", "dim", 64, "baseline embedding width", None),
    SEED,
]
TRAIN_FLAGS = [
    DATASET,
    ("--embeddings", "embeddings", REQUIRED, None, None),
    OUT_DIR, TASK,
    ("--backbone", "backbone", DownstreamConfig.backbone, None, BACKBONES),
    ("--repeats", "repeats", 10, None, None),
    *_stage2_flags("--lr"),
    ("--log-every-iter", "log_every_iter", False,
     "emit a per-iteration validation curve (linkpred)", None),
    SEED,
]
ABLATE_FLAGS = [
    DATASET, OUT_DIR, TASK,
    ("--backbones", "backbones", DownstreamConfig.backbone, "comma-separated list", None),
    ("--repeats", "repeats", 5, None, None),
    *_stage1_flags("--pretrain-lr"),
    *_stage2_flags("--train-lr"),
    SEED,
]

# name -> (command, help, flag table)
COMMANDS = {
    "generate": (cmd_generate, "write a synthetic node-text dataset", GENERATE_FLAGS),
    "pretrain": (cmd_pretrain, "train the text autoencoder", PRETRAIN_FLAGS),
    "embed": (cmd_embed, "extract per-node embeddings", EMBED_FLAGS),
    "train": (cmd_train, "train a downstream model on embeddings", TRAIN_FLAGS),
    "ablate": (cmd_ablate, "compare pretraining with and without the contrastive loss",
               ABLATE_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    """Subcommand parsers leave unset flags out of the namespace; see resolve."""
    parser = argparse.ArgumentParser(
        prog="nodegae",
        description="Text autoencoder graph pretraining and downstream training pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, command_help, table) in COMMANDS.items():
        p = sub.add_parser(name, help=command_help, argument_default=argparse.SUPPRESS)
        for flag, dest, default, flag_help, choices in table:
            if default is False:
                p.add_argument(flag, dest=dest, action="store_true", help=flag_help)
                continue
            kind = (str if default is REQUIRED
                    else default if isinstance(default, type) else type(default))
            p.add_argument(flag, dest=dest, type=kind, choices=choices,
                           required=default is REQUIRED, help=flag_help)
    return parser


def resolve(args: Args) -> Args:
    """Fill in the table defaults of every flag left unset.

    `args.user_set` keeps the dests of the flags that the command line set.
    """
    args.user_set = frozenset(vars(args)) - {"command"}
    for _, dest, default, _, _ in COMMANDS[args.command][2]:
        if dest not in args.user_set:
            setattr(args, dest, None if isinstance(default, type) else default)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = resolve(build_parser().parse_args(argv))
    try:
        return COMMANDS[args.command][0](args)
    except (ConfigError, IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NodeGaeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
