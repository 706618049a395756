"""The three workloads. Each is a closed loop of identical rounds.

A round is a fixed amount of work from a fresh start (fresh model, fresh
optimizer, generator reseeded from the workload seed), so every round of a
run computes the same outputs and the benchmark can check them against the
first round. ``work`` does the timed part of a round; ``check`` runs after it,
outside the timing and outside any tracing.

Each round returns ``fit_s`` (optimisation) and ``final_loss`` (training
loss at the round's fixed length), which are end-to-end metrics, and
``infer_s`` (frozen-model inference), which is recorded. It also returns the
workload's own samples for its detailed table. Work whose size depends on
the seed is timed apart and returned as ``excluded_s``; it stays out of
``round_s``.

Datasets are written by the program's own ``generate`` command in a child
process, so the benchmark process holds only what it loads from the files.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from nodegae import autoencoder as ae
from nodegae import diffcore as dc
from nodegae import downstream as ds
from nodegae import evalmetrics as em
from nodegae import graphstore as gs
from nodegae import textcorpus as tc

import stats
from tracing import Tracer

DEFAULT_NODES = 512


class Checks:
    """Operations and output checks of one run; each failure counts once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _check_score(workload: str, scores: Dict[str, float], num_classes: int,
                 checks: Checks) -> None:
    """downstream_score (the mean test accuracy or ROC-AUC) must beat the mean chance level."""
    chance = [1.0 / num_classes if key.startswith("nodecls") else 0.5 for key in scores]
    checks.expect(bool(scores) and np.mean(list(scores.values())) > np.mean(chance),
                  f"{workload}: downstream_score {scores} is not above chance {chance}")


SHIM = str(Path(__file__).with_name("cli_shim.py"))


class CliRunner:
    """Runs nodegae commands in fresh interpreters that import ``src``.

    With a tracer, each command gets a ``cli.<name>`` span in this process,
    runs through cli_shim.py, and its own spans are merged under that span.
    """

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, name: str, args: List[str], cwd: Path,
            tracer: Optional[Tracer] = None) -> Tuple[subprocess.CompletedProcess, float]:
        """``args`` are nodegae.cli arguments, or python's own for the import probe."""
        if tracer is not None:
            span = tracer.begin(f"cli.{name}")
            spans = cwd / f"spans-{span}.tsv"
            if name != "import":
                args = [SHIM, str(spans)] + args
        elif name != "import":
            args = ["-m", "nodegae.cli"] + args
        t = perf_counter()
        try:
            proc = subprocess.run([sys.executable] + args, cwd=cwd, env=self.env,
                                  capture_output=True, text=True, timeout=120)
        finally:
            seconds = perf_counter() - t
            if tracer is not None:
                tracer.end()
        if tracer is not None and spans.is_file():
            tracer.merge(spans, parent=span)
            spans.unlink()
        return proc, seconds

    def generate(self, out: Path, nodes: int, seed: int,
                 tracer: Optional[Tracer] = None) -> gs.TextGraph:
        """A dataset from the default generator, edge probabilities scaled by 512/N."""
        base = tc.SyntheticGraphSpec()
        scale = DEFAULT_NODES / nodes
        out.parent.mkdir(parents=True, exist_ok=True)
        proc, _ = self.run("generate", [
            "generate", "--out", str(out), "--nodes", str(nodes),
            "--intra-prob", repr(base.intra_class_edge_prob * scale),
            "--inter-prob", repr(base.inter_class_edge_prob * scale),
            "--seed", str(seed)], out.parent, tracer)
        if proc.returncode != 0:
            raise RuntimeError(f"generate exited {proc.returncode}: {proc.stderr.strip()}")
        return tc.load_textgraph(out / "nodes.tsv", out / "edges.tsv", out / "splits.txt")


# ---------------------------------------------------------------------------
# stage1-512: pretraining, greedy reconstruction, embedding extraction
# ---------------------------------------------------------------------------

@dataclass
class Stage1Scale:
    nodes: int = 512
    steps: int = 40
    batch_size: int = 16
    recon_every: int = 20
    recon_samples: int = 8
    row_checks: int = 4
    model: Optional[dict] = None  # ModelConfig overrides; None keeps the defaults


class Stage1:
    name = "stage1-512"

    def __init__(self, seed: int, src: Path, work_dir: Path,
                 scale: Stage1Scale = Stage1Scale()):
        self.seed = seed
        self.runner = CliRunner(src)
        self.work_dir = work_dir
        self.scale = scale
        self.icfg = ae.InfoNCEConfig()

    def prepare(self, tracer: Optional[Tracer]) -> None:
        self.graph = self.runner.generate(self.work_dir / "data", self.scale.nodes, self.seed,
                                          tracer)
        self.vocab = tc.build_vocab(self.graph.texts)
        self.mcfg = ae.ModelConfig(vocab_size=self.vocab.size, **(self.scale.model or {}))

    def _fresh(self):
        model = ae.AutoencoderModel.init(self.mcfg, self.vocab, seed=self.seed)
        adam = dc.AdamState.for_params(model.parameters(), base_lr=1e-3,
                                       warmup_steps=100, clip_norm=1.0)
        return model, adam, np.random.default_rng(self.seed)

    def warm_up(self) -> None:
        model, adam, rng = self._fresh()
        for _ in range(2):
            batch = rng.choice(self.graph.num_nodes, size=self.scale.batch_size, replace=False)
            ae.pretrain_step(model, self.graph, batch, adam, rng, self.icfg)
        ae.reconstruct(model, model.tokens_for(self.graph.texts[0]), max_gen_len=4)

    def _reconstruct(self, model) -> list:
        """Greedy decodes of the sample nodes with BLEU and ROUGE-L against the source."""
        out = []
        for v in range(self.scale.recon_samples):
            tokens = model.tokens_for(self.graph.texts[v])
            gen = ae.reconstruct(model, tokens)
            ref_words, gen_words = tc.decode(tokens, model.vocab), tc.decode(gen, model.vocab)
            scores = ((em.bleu(gen_words, ref_words), em.rouge_l(gen_words, ref_words))
                      if gen_words and ref_words else (0.0, 0.0))
            out.append((gen.tolist(), scores))
        return out

    def work(self, tracer: Optional[Tracer]) -> dict:
        sc = self.scale
        model, adam, rng = self._fresh()
        step_ms, losses, recon = [], [], []
        recon_s = 0.0
        for step in range(1, sc.steps + 1):
            batch = rng.choice(self.graph.num_nodes, size=sc.batch_size, replace=False)
            t = perf_counter()
            lm, info = ae.pretrain_step(model, self.graph, batch, adam, rng, self.icfg)
            step_ms.append((perf_counter() - t) * 1e3)
            losses.append((lm, info))
            if step % sc.recon_every == 0:
                t = perf_counter()
                recon.extend(self._reconstruct(model))
                recon_s += perf_counter() - t
        t = perf_counter()
        emb = ae.extract_embeddings(model, self.graph)
        embed_s = perf_counter() - t
        tail = [lm + info for lm, info in losses[-max(1, sc.steps // 10):]]
        return {
            "fit_s": sum(step_ms) / 1e3,
            "infer_s": embed_s,
            # Greedy decoding stops at EOS, so its length, and its cost, depend on the seed.
            "excluded_s": recon_s,
            "final_loss": float(np.mean(tail)),
            "step_ms": step_ms,
            "embed_s": embed_s,
            "recon_s": recon_s,
            "recon_tokens": sum(len(gen) for gen, _ in recon),
            "losses": losses,
            "recon": recon,
            "model": model,
            "embeddings": emb.matrix,
        }

    def check(self, out: dict, checks: Checks) -> str:
        for step, (lm, info) in enumerate(out["losses"], 1):
            checks.expect(np.isfinite(lm) and np.isfinite(info),
                          f"{self.name}: step {step} loss is not finite")
        emb = out["embeddings"]
        checks.expect(emb.shape == (self.graph.num_nodes, self.mcfg.d_enc),
                      f"{self.name}: embedding matrix has shape {emb.shape}")
        model = out.pop("model")
        picks = np.random.default_rng(self.seed).choice(
            self.graph.num_nodes, size=self.scale.row_checks, replace=False)
        for v in picks:
            row = ae.encode_node(model, model.tokens_for(self.graph.texts[v])).data
            checks.expect(np.array_equal(row, emb[v]),
                          f"{self.name}: extracted row {v} differs from encode_node")
        return _digest(out["losses"], out["recon"], emb.tobytes())

    @staticmethod
    def table(rounds: List[dict]) -> Dict[str, object]:
        steps = [ms for r in rounds for ms in r["step_ms"]]
        summary = stats.summarize(steps)
        p90 = (stats.percentile(steps, 90.0)
               if stats.samples_beyond(len(steps), 90.0) >= stats.TAIL_MIN_BEYOND else None)
        return {
            "pretrain_step_ms.p50": (summary["median"], "ms"),
            "pretrain_step_ms.p90": (p90, "ms"),
            "pretrain_step_ms.tail": (summary["tail"], f"ms at p{summary['tail_pct']}"),
            "pretrain_step_ms.n": (summary["n"], "count"),
            "embed_rows_per_s": (stats.median(
                [r["embeddings"].shape[0] / r["embed_s"] for r in rounds]), "rows/s"),
            "recon_tokens_per_s": (stats.median(
                [r["recon_tokens"] / r["recon_s"] for r in rounds]), "tokens/s"),
            "pretrain_loss_final": (rounds[0]["final_loss"], "nats"),
        }


# ---------------------------------------------------------------------------
# stage2-4096: downstream heads on frozen shallow embeddings
# ---------------------------------------------------------------------------

@dataclass
class Stage2Scale:
    nodecls_nodes: int = 4096
    linkpred_nodes: int = 1024
    nodecls_epochs: int = 5
    linkpred_epochs: int = 2
    dim: int = 64


NODECLS_BACKBONES = ("mlp", "gcn", "sage")
LINKPRED_BACKBONES = ("mlp", "gcn")


class Stage2:
    name = "stage2-4096"

    def __init__(self, seed: int, src: Path, work_dir: Path,
                 scale: Stage2Scale = Stage2Scale()):
        self.seed = seed
        self.runner = CliRunner(src)
        self.work_dir = work_dir
        self.scale = scale

    def prepare(self, tracer: Optional[Tracer]) -> None:
        sc = self.scale
        self.nc_graph = self.runner.generate(self.work_dir / "nodecls", sc.nodecls_nodes,
                                             self.seed, tracer)
        self.lp_graph = self.runner.generate(self.work_dir / "linkpred", sc.linkpred_nodes,
                                             self.seed, tracer)
        self.nc_emb = ds.shallow_embeddings(self.nc_graph, sc.dim, seed=self.seed)
        self.lp_emb = ds.shallow_embeddings(self.lp_graph, sc.dim, seed=self.seed)
        self.split = gs.build_link_split(self.lp_graph, seed=self.seed)
        self.num_classes = int(self.nc_graph.labels.max()) + 1

    def _nodecls_cfg(self, backbone, epochs):
        return ds.DownstreamConfig.for_node_classification(
            backbone=backbone, epochs=epochs, patience=epochs, seed=self.seed)

    def _linkpred_cfg(self, backbone, epochs):
        return ds.DownstreamConfig.for_link_prediction(
            backbone=backbone, epochs=epochs, patience=epochs, seed=self.seed)

    def warm_up(self) -> None:
        ds.train_node_classifier(self.nc_emb, self.nc_graph, self._nodecls_cfg("mlp", 1))
        ds.train_link_predictor(self.lp_emb, self.lp_graph, self.split,
                                self._linkpred_cfg("mlp", 1))

    def work(self, tracer: Optional[Tracer]) -> dict:
        sc = self.scale
        epoch_ms: Dict[str, float] = {}
        final_losses, scores = [], {}
        fit_s = infer_s = 0.0
        test_idx = self.nc_graph.splits["test"]
        for backbone in NODECLS_BACKBONES:
            t = perf_counter()
            model, log = ds.train_node_classifier(
                self.nc_emb, self.nc_graph, self._nodecls_cfg(backbone, sc.nodecls_epochs))
            dt = perf_counter() - t
            fit_s += dt
            epoch_ms[f"nodecls.{backbone}"] = dt * 1e3 / len(log)
            final_losses.append(log[-1]["train_loss"])
            t = perf_counter()
            preds = np.argmax(model.forward(self.nc_emb.matrix).data, axis=1)
            scores[f"nodecls.{backbone}"] = em.accuracy(preds[test_idx],
                                                        self.nc_graph.labels[test_idx])
            infer_s += perf_counter() - t
        pos, neg = self.split.positives("test"), self.split.negatives("test")
        pairs = np.concatenate([pos, neg], axis=0)
        labels = np.concatenate([np.ones(len(pos), dtype=int), np.zeros(len(neg), dtype=int)])
        for backbone in LINKPRED_BACKBONES:
            t = perf_counter()
            model, log = ds.train_link_predictor(
                self.lp_emb, self.lp_graph, self.split,
                self._linkpred_cfg(backbone, sc.linkpred_epochs))
            dt = perf_counter() - t
            fit_s += dt
            bce = [row["value"] for row in log if row["metric"] == "bce"]
            epoch_ms[f"linkpred.{backbone}"] = dt * 1e3 / len(bce)
            final_losses.append(bce[-1])
            t = perf_counter()
            scores[f"linkpred.{backbone}"] = em.roc_auc(
                ds.predict_links(model, self.lp_emb, pairs), labels)
            infer_s += perf_counter() - t
        return {
            "fit_s": fit_s,
            "infer_s": infer_s,
            "final_loss": float(np.mean(final_losses)),
            "epoch_ms": epoch_ms,
            "scores": scores,
            "losses": final_losses,
        }

    def check(self, out: dict, checks: Checks) -> str:
        for i, loss in enumerate(out["losses"]):
            checks.expect(bool(np.isfinite(loss)), f"{self.name}: training {i} loss not finite")
        _check_score(self.name, out["scores"], self.num_classes, checks)
        return _digest(out["losses"], sorted(out["scores"].items()))

    @staticmethod
    def table(rounds: List[dict]) -> Dict[str, object]:
        out = {}
        for task, backbones in (("nodecls", NODECLS_BACKBONES),
                                ("linkpred", LINKPRED_BACKBONES)):
            for b in backbones:
                out[f"{task}_epoch_ms.{b}"] = (
                    stats.median([r["epoch_ms"][f"{task}.{b}"] for r in rounds]), "ms")
        out["downstream_score"] = (float(np.mean(list(rounds[0]["scores"].values()))),
                                   "accuracy|roc_auc")
        return out


# ---------------------------------------------------------------------------
# cli-512: the command chain, one fresh interpreter per command
# ---------------------------------------------------------------------------

@dataclass
class CliScale:
    nodes: int = 512
    pretrain_steps: int = 20
    nodecls_epochs: int = 20
    linkpred_epochs: int = 3


CLI_ARTIFACTS = ("data/nodes.tsv", "data/edges.tsv", "data/splits.txt", "run/model.npz",
                 "run/pretrain_log.csv", "emb.txt", "nodecls/report.csv",
                 "linkpred/report.csv")


class Cli:
    name = "cli-512"

    def __init__(self, seed: int, src: Path, work_dir: Path, scale: CliScale = CliScale()):
        self.seed = seed
        self.runner = CliRunner(src)
        self.work_dir = work_dir
        self.scale = scale
        self.rounds = 0
        self.import_samples: List[float] = []

    def _commands(self) -> List[tuple]:
        """The chain, with paths relative to the round directory.

        ``pretrain`` stores its dataset path in model.npz, so every round
        must see the same relative paths for its artifacts to match.
        """
        sc, s = self.scale, str(self.seed)
        return [
            ("generate", ["generate", "--out", "data", "--nodes", str(sc.nodes), "--seed", s]),
            ("pretrain", ["pretrain", "--dataset", "data", "--out-dir", "run",
                          "--steps", str(sc.pretrain_steps), "--alpha1", "0", "--alpha2", "0",
                          "--seed", s]),
            ("embed", ["embed", "--dataset", "data", "--checkpoint", "run/model.npz",
                       "--out", "emb.txt"]),
            ("train", ["train", "--dataset", "data", "--embeddings", "emb.txt",
                       "--out-dir", "nodecls", "--task", "nodecls", "--backbone", "gcn",
                       "--repeats", "1", "--epochs", str(sc.nodecls_epochs),
                       "--patience", str(sc.nodecls_epochs), "--seed", s]),
            ("train", ["train", "--dataset", "data", "--embeddings", "emb.txt",
                       "--out-dir", "linkpred", "--task", "linkpred", "--backbone", "mlp",
                       "--repeats", "1", "--epochs", str(sc.linkpred_epochs),
                       "--patience", str(sc.linkpred_epochs), "--seed", s]),
        ]

    def prepare(self, tracer: Optional[Tracer]) -> None:
        """Set-up is one fresh-interpreter ``import nodegae.cli``: the cost every command pays."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        proc, seconds = self.runner.run("import", ["-c", "import nodegae.cli"], self.work_dir,
                                        tracer)
        if proc.returncode != 0:
            raise RuntimeError(f"import nodegae.cli failed: {proc.stderr.strip()}")
        self.import_samples.append(seconds)

    def warm_up(self) -> None:
        pass

    def work(self, tracer: Optional[Tracer]) -> dict:
        d = self.work_dir / f"round{self.rounds}"
        d.mkdir(parents=True)
        self.rounds += 1
        times: Dict[str, float] = {}
        exits = []
        for name, args in self._commands():
            proc, seconds = self.runner.run(name, args, d, tracer)
            times[name] = times.get(name, 0.0) + seconds
            exits.append((name, proc.returncode, proc.stderr.strip()[-2000:]))
            if proc.returncode != 0:
                break
        log = d / "run" / "pretrain_log.csv"
        totals = ([float(line.split(",")[3]) for line in log.read_text().splitlines()[1:]]
                  if log.is_file() else [float("nan")])
        tail = totals[-max(1, len(totals) // 10):]
        return {
            "fit_s": times.get("pretrain", 0.0) + times.get("train", 0.0),
            "infer_s": times.get("embed", 0.0),
            "final_loss": float(np.mean(tail)),
            "times": times,
            "exits": exits,
            "losses": totals,
            "dir": d,
        }

    def check(self, out: dict, checks: Checks) -> str:
        for name, code, err in out["exits"]:
            checks.expect(code == 0, f"{self.name}: {name} exited {code}: {err}")
        checks.expect(len(out["exits"]) == 5, f"{self.name}: the chain stopped early")
        checks.expect(bool(np.all(np.isfinite(out["losses"]))),
                      f"{self.name}: a pretraining loss is not finite")
        d = out["dir"]
        digests = []
        for rel in CLI_ARTIFACTS:
            path = d / rel
            ok = checks.expect(path.is_file(), f"{self.name}: {rel} missing")
            digests.append((rel, hashlib.sha256(path.read_bytes()).hexdigest() if ok else None))
        scores = {}
        for task in ("nodecls", "linkpred"):
            report = d / task / "report.csv"
            if report.is_file():
                mean_row = [r for r in report.read_text().splitlines() if ",mean," in r]
                scores[task] = float(mean_row[0].rsplit(",", 1)[1])
        out["scores"] = scores
        _check_score(self.name, scores, tc.SyntheticGraphSpec().num_classes, checks)
        return _digest(digests)

    def table(self, rounds: List[dict]) -> Dict[str, object]:
        return {
            "cli_import_s": (stats.median(self.import_samples), "s"),
            "cli_pipeline_s": (stats.median([r["round_s"] for r in rounds]), "s"),
            "pretrain_loss_final": (rounds[0]["final_loss"], "nats"),
            "downstream_score": (float(np.mean(list(rounds[0]["scores"].values()))),
                                 "accuracy|roc_auc"),
        }
