"""Golden test of the command line surface.

The ``--help`` text of the top-level parser and of every subcommand is
compared, at 80 columns, with the files under ``tests/golden/``. Each
subcommand is then run with its required flags alone, and the library
configs it resolves are captured where they reach the library: cli's
references to the library functions are replaced by recorders that keep
their arguments and stop the command with a sentinel exception.
"""

from pathlib import Path

import numpy as np
import pytest

from nodegae import cli
from nodegae.autoencoder import InfoNCEConfig, ModelConfig
from nodegae.downstream import DownstreamConfig, random_embeddings, save_embeddings
from nodegae.textcorpus import SyntheticGraphSpec

GOLDEN = Path(__file__).parent / "golden"
SUBCOMMANDS = ("generate", "pretrain", "embed", "train", "ablate")


class Captured(Exception):
    """Raised by a recorder once it holds the arguments of its call."""


def record(monkeypatch, name):
    """Replace ``cli.<name>`` by a recorder; returns the dict it fills."""
    seen = {}

    def recorder(*args, **kwargs):
        seen["args"], seen["kwargs"] = args, kwargs
        raise Captured(name)

    monkeypatch.setattr(cli, name, recorder)
    return seen


def spy(monkeypatch, name):
    """Wrap ``cli.<name>`` to keep its arguments and still run; returns the dict it fills."""
    seen, real = {}, getattr(cli, name)

    def wrapper(*args, **kwargs):
        seen["args"], seen["kwargs"] = args, kwargs
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return seen


def run_until_captured(argv):
    with pytest.raises(Captured):
        cli.main(argv)


@pytest.fixture(scope="module")
def surface_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("surface")
    assert cli.main(["generate", "--out", str(root / "data"), "--nodes", "48",
                     "--classes", "3", "--intra-prob", "0.3", "--seed", "7"]) == 0
    graph = cli.load_dataset(root / "data")
    save_embeddings(random_embeddings(graph.num_nodes, 8, seed=1), root / "emb.txt")
    return root


# ---------------------------------------------------------------------------
# --help text
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", (None,) + SUBCOMMANDS)
def test_help_text_matches_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    golden = GOLDEN / f"help_{command or 'nodegae'}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# configs resolved from the required flags alone
# ---------------------------------------------------------------------------

DEFAULT_STAGE1 = dict(base_lr=0.001, warmup_steps=100, clip_norm=1.0)
DEFAULT_INFONCE = InfoNCEConfig(tau=0.5, alphas=(1.0, 0.1), normalize=True)
DEFAULT_DOWNSTREAM = dict(backbone="mlp", hidden_dim=64, num_layers=2, dropout=0.5,
                          epochs=200, patience=50, seed=0, batch_edges=128,
                          log_every_iter=False, add_self_loops=True, link_scorer="dot")
TASK_LR = {"nodecls": 0.01, "linkpred": 0.0001}


def test_generate_resolves_default_spec(monkeypatch, tmp_path):
    seen = record(monkeypatch, "generate_synthetic")
    run_until_captured(["generate", "--out", str(tmp_path / "d")])
    expected = SyntheticGraphSpec(
        num_nodes=512, num_classes=6, keywords_per_class=20, doc_length=(8, 16),
        intra_class_edge_prob=0.05, inter_class_edge_prob=0.005,
        class_token_fraction=0.7, seed=0)
    assert repr(seen["args"]) == repr((expected,))
    assert not (tmp_path / "d").exists()


def check_stage1(seen, vocab_call):
    model, graph, batch, adam, _rng, icfg = seen["args"]
    assert vocab_call["kwargs"] == {"max_size": 2048}
    assert repr(model.config) == repr(ModelConfig(
        vocab_size=model.vocab.size, d_enc=64, d_dec=64, enc_layers=2, dec_layers=2,
        heads=4, proj_len=4, ff_mult=2, max_len=64))
    assert {k: getattr(adam, k) for k in DEFAULT_STAGE1} == DEFAULT_STAGE1
    assert repr(icfg) == repr(DEFAULT_INFONCE)
    assert len(batch) == 16
    assert len(set(batch.tolist())) == 16


def test_pretrain_resolves_default_stage1(monkeypatch, surface_dir, tmp_path):
    seen, vocab_call = record(monkeypatch, "pretrain_step"), spy(monkeypatch, "build_vocab")
    run_until_captured(["pretrain", "--dataset", str(surface_dir / "data"),
                        "--out-dir", str(tmp_path / "run")])
    check_stage1(seen, vocab_call)
    assert not (tmp_path / "run").exists()


def test_ablate_resolves_default_stage1(monkeypatch, surface_dir, tmp_path):
    seen, vocab_call = record(monkeypatch, "pretrain_step"), spy(monkeypatch, "build_vocab")
    run_until_captured(["ablate", "--dataset", str(surface_dir / "data"),
                        "--out-dir", str(tmp_path / "abl")])
    check_stage1(seen, vocab_call)
    assert not (tmp_path / "abl").exists()


@pytest.mark.parametrize("baseline", ["random", "shallow"])
def test_embed_baseline_resolves_default_dim(monkeypatch, surface_dir, tmp_path, baseline):
    seen = record(monkeypatch, f"{baseline}_embeddings")
    run_until_captured(["embed", "--dataset", str(surface_dir / "data"),
                        "--out", str(tmp_path / "e.txt"), "--baseline", baseline])
    assert seen["args"][1:] == (64,)
    assert seen["kwargs"] == {"seed": 0}


def downstream_recorder(monkeypatch, task):
    name = "train_node_classifier" if task == "nodecls" else "train_link_predictor"
    return record(monkeypatch, name)


def check_downstream(seen, task):
    dcfg = seen["args"][-1]
    expected = DownstreamConfig(lr=TASK_LR[task], **DEFAULT_DOWNSTREAM)
    assert repr(dcfg) == repr(expected)


@pytest.mark.parametrize("task", ["nodecls", "linkpred"])
def test_train_resolves_default_downstream(monkeypatch, surface_dir, tmp_path, task):
    seen = downstream_recorder(monkeypatch, task)
    argv = ["train", "--dataset", str(surface_dir / "data"),
            "--embeddings", str(surface_dir / "emb.txt"), "--out-dir", str(tmp_path / "o")]
    if task != "nodecls":
        argv += ["--task", task]
    run_until_captured(argv)
    check_downstream(seen, task)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task", ["nodecls", "linkpred"])
def test_ablate_resolves_default_downstream(monkeypatch, surface_dir, tmp_path, task):
    # Pretraining is stubbed out: the steps return zero losses and extraction
    # returns fixed rows, so only the stage-2 configs are exercised.
    monkeypatch.setattr(cli, "pretrain_step", lambda *args: (0.0, 0.0))
    monkeypatch.setattr(cli, "extract_embeddings",
                        lambda model, graph: random_embeddings(graph.num_nodes, 8))
    seen = downstream_recorder(monkeypatch, task)
    argv = ["ablate", "--dataset", str(surface_dir / "data"), "--out-dir", str(tmp_path / "o")]
    if task != "nodecls":
        argv += ["--task", task]
    run_until_captured(argv)
    check_downstream(seen, task)
    assert not (tmp_path / "o").exists()


def test_pretrain_batch_is_clamped_to_graph_size(monkeypatch, surface_dir, tmp_path):
    """A batch larger than the graph draws every node once."""
    seen = record(monkeypatch, "pretrain_step")
    run_until_captured(["pretrain", "--dataset", str(surface_dir / "data"),
                        "--out-dir", str(tmp_path / "run"), "--batch-size", "100"])
    batch = seen["args"][2]
    assert isinstance(batch, np.ndarray) and batch.dtype.kind == "i"
    assert sorted(batch.tolist()) == list(range(48))
