"""In-memory span tracing of nodegae's public functions, from outside the package.

``install`` rebinds each traced function wherever a caller looks it up: the
attribute of its defining module, every nodegae module that imported it by
name, and class attributes for methods. The wrapper only times the call and
records a span, so traced and untraced runs compute the same results.
"""

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional

import stats

DIFFCORE_OPS = (
    "add", "mul", "matmul", "reshape", "transpose", "embedding_lookup", "concat",
    "softmax_lastdim", "layernorm_lastdim", "gelu", "relu", "cross_entropy_logits",
    "l2_normalize_lastdim",
)

# (defining module, attribute, span name); "Class.method" attributes wrap methods.
TRACED = (
    [("diffcore", op, f"diffcore.op.{op}") for op in DIFFCORE_OPS]
    + [
        ("diffcore", "backward", "diffcore.backward"),
        ("diffcore", "adam_step", "diffcore.adam_step"),
        ("autoencoder", "pretrain_step", "autoencoder.pretrain_step"),
        ("autoencoder", "encode_batch", "autoencoder.encode_batch"),
        ("autoencoder", "infonce_loss", "autoencoder.infonce_loss"),
        ("autoencoder", "project", "autoencoder.project"),
        ("autoencoder", "decoder_logits", "autoencoder.decoder_logits"),
        ("autoencoder", "lm_loss", "autoencoder.lm_loss"),
        ("autoencoder", "extract_embeddings", "autoencoder.extract_embeddings"),
        ("autoencoder", "reconstruct", "autoencoder.reconstruct"),
        ("autoencoder", "save_model", "autoencoder.save_model"),
        ("autoencoder", "load_model", "autoencoder.load_model"),
        ("graphstore", "sample_positive", "graphstore.sample_positive"),
        ("graphstore", "normalized_adjacency", "graphstore.normalized_adjacency"),
        ("graphstore", "build_link_split", "graphstore.build_link_split"),
        ("graphstore", "LinkSplit.train_message_graph",
         "graphstore.LinkSplit.train_message_graph"),
        ("downstream", "GnnModel.forward", "downstream.GnnModel.forward"),
        ("downstream", "train_node_classifier", "downstream.train_node_classifier"),
        ("downstream", "train_link_predictor", "downstream.train_link_predictor"),
        ("downstream", "predict_links", "downstream.predict_links"),
        ("downstream", "shallow_embeddings", "downstream.shallow_embeddings"),
        ("downstream", "save_embeddings", "downstream.save_embeddings"),
        ("downstream", "load_embeddings", "downstream.load_embeddings"),
        ("evalmetrics", "roc_auc", "evalmetrics.roc_auc"),
        ("evalmetrics", "bleu", "evalmetrics.bleu"),
        ("evalmetrics", "rouge_l", "evalmetrics.rouge_l"),
        ("textcorpus", "generate_synthetic", "textcorpus.generate_synthetic"),
        ("textcorpus", "save_textgraph", "textcorpus.save_textgraph"),
        ("textcorpus", "load_textgraph", "textcorpus.load_textgraph"),
        ("textcorpus", "pad_sequences", "textcorpus.pad_sequences"),
    ]
)

MODULES = ("diffcore", "textcorpus", "graphstore", "autoencoder", "downstream",
           "evalmetrics", "cli")


# Spans of these functions also carry a count taken from the returned value:
# draws that found no node at the hop, decoded tokens, epochs run.
COUNTS: Dict[str, Callable] = {
    "graphstore.sample_positive": lambda result: int(result is None),
    "autoencoder.reconstruct": len,
    "downstream.train_node_classifier": lambda result: len(result[1]),
}


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, run id, count).

    A finished span is a tuple of plain values, which the garbage collector
    stops tracking, so a long trace does not slow collections down.
    """

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.run_id = "setup"
        self._open: List[tuple] = []
        self._restore: List[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append((index, name, parent, perf_counter()))
        return index

    def end(self, count: int = 0) -> None:
        end = perf_counter()
        index, name, parent, start = self._open.pop()
        self.spans[index] = (name, start, end, parent, self.run_id, count)

    def wrap(self, fn: Callable, name: str) -> Callable:
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end()
                raise
            self.end(count(result) if count else 0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every traced function at each place nodegae looks it up."""
        mods = {m: importlib.import_module(f"nodegae.{m}") for m in MODULES}
        for module, attr, name in TRACED:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mods[module], cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(original, name))
                continue
            original = getattr(mods[module], attr)
            traced = self.wrap(original, name)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Spans as TSV: run id, index, parent index, name, start, end, count."""
        lines = ["run_id\tindex\tparent\tname\tstart\tend\tcount"]
        for i, (name, start, end, parent, run_id, count) in enumerate(self.spans):
            lines.append(f"{run_id}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{count}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def merge(self, path, parent: int) -> None:
        """Append spans another process wrote, hanging its roots under ``parent``."""
        offset = len(self.spans)
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                local_parent = int(fields[2])
                self.spans.append((
                    fields[3], float(fields[4]), float(fields[5]),
                    parent if local_parent < 0 else local_parent + offset,
                    self.run_id, int(fields[6]),
                ))


TRAINERS = ("autoencoder.pretrain_step", "downstream.train_node_classifier",
            "downstream.train_link_predictor")


def layer_values(spans, setup_reps: int, round_ids) -> Dict[str, float]:
    """Per-layer figures: per set-up (averaged over repetitions) plus per traced round (median).

    For every span name N this gives ``N.calls``, ``N.s`` (inclusive time),
    ``N.self_s`` and ``N.count``, and then the derived figures the benchmark
    names: ``diffcore.ops_per_step`` (ops recorded inside a training call per
    Adam step), ``diffcore.op.<kind>.fwd_s``, the sample_positive none ratio,
    decoded tokens, epochs, link-training steps and the pretrain-step median.
    """
    self_s = stats.self_times(spans)
    per_run: Dict[str, Dict[str, float]] = {}
    owner = [-1] * len(spans)
    step_ms = []
    for i, (name, start, end, parent, run_id, count) in enumerate(spans):
        if parent >= 0:
            owner[i] = parent if spans[parent][0] in TRAINERS else owner[parent]
        agg = per_run.setdefault(run_id, {})
        for key, value in ((".calls", 1), (".s", end - start), (".self_s", self_s[i]),
                           (".count", count)):
            agg[name + key] = agg.get(name + key, 0.0) + value
        if owner[i] >= 0 and name.startswith("diffcore.op."):
            agg["train.ops"] = agg.get("train.ops", 0.0) + 1
        if owner[i] >= 0 and name == "diffcore.adam_step":
            steps_key = spans[owner[i]][0] + ".steps"
            agg[steps_key] = agg.get(steps_key, 0.0) + 1
            agg["train.steps"] = agg.get("train.steps", 0.0) + 1
        if name == "autoencoder.pretrain_step" and run_id != "setup":
            step_ms.append((end - start) * 1e3)

    setup = per_run.get("setup", {})
    rounds = [per_run.get(r, {}) for r in round_ids] or [{}]
    keys = set(setup).union(*rounds)
    values = {k: setup.get(k, 0.0) / setup_reps + stats.median([r.get(k, 0.0) for r in rounds])
              for k in keys}

    def ratio(num, den):
        total = sum(r.get(den, 0.0) for r in rounds)
        return sum(r.get(num, 0.0) for r in rounds) / total if total else 0.0

    values["diffcore.ops_per_step"] = ratio("train.ops", "train.steps")
    values["graphstore.sample_positive.none_ratio"] = ratio(
        "graphstore.sample_positive.count", "graphstore.sample_positive.calls")
    values["autoencoder.reconstruct.tokens"] = values.get("autoencoder.reconstruct.count", 0.0)
    values["downstream.train_node_classifier.epochs"] = values.get(
        "downstream.train_node_classifier.count", 0.0)
    values["autoencoder.pretrain_step.ms_p50"] = stats.median(step_ms) if step_ms else 0.0
    for op in DIFFCORE_OPS:
        values[f"diffcore.op.{op}.fwd_s"] = values.get(f"diffcore.op.{op}.s", 0.0)
    return values
