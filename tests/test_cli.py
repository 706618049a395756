"""End-to-end tests for the command line pipeline.

Each command runs in-process through cli.main so exit codes and artifact
bytes can be checked directly. A small dataset and a short pretraining run
are shared across the module to keep the suite fast.
"""

import hashlib
import inspect
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nodegae import autoencoder as ae
from nodegae import cli
from nodegae import diffcore as dc
from nodegae.cli import dataset_paths, main
from nodegae.downstream import load_embeddings
from nodegae.graphstore import TextGraph, build_link_split
from nodegae.textcorpus import load_textgraph, save_textgraph
from conftest import edit_checkpoint
from test_downstream import MALFORMED_EMBEDDINGS

TINY_MODEL = [
    "--batch-size", "8", "--d-enc", "16", "--d-dec", "16",
    "--enc-layers", "1", "--dec-layers", "1", "--heads", "2",
    "--proj-len", "2", "--ff-mult", "1", "--max-len", "16",
    "--vocab-size", "256",
]

GEN_ARGS = [
    "--nodes", "48", "--classes", "3", "--keywords-per-class", "8",
    "--doc-min", "4", "--doc-max", "8", "--intra-prob", "0.3",
    "--inter-prob", "0.03", "--seed", "7",
]


FRESH_MAIN = ("import resource, sys; from nodegae.cli import main; rc = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
              "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)")


def read(path) -> str:
    return path.read_text(encoding="utf-8")


def fresh_main(args):
    """cli.main(args) in a new interpreter.

    Returns the exit code, the peak RSS in KiB, the sorted scipy modules it
    loaded (as printed) and its standard error. Paths in args must be absolute.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_MAIN] + args, cwd=src, timeout=300,
                          capture_output=True, text=True)
    maxrss_kb, scipy_modules = done.stdout.strip().split("\n")[-1].split(" ", 1)
    return done.returncode, int(maxrss_kb), scipy_modules, done.stderr


def csv_rows(path):
    lines = read(path).strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset(workdir):
    root = workdir / "data"
    assert main(["generate", "--out", str(root)] + GEN_ARGS) == 0
    return root


@pytest.fixture(scope="module")
def pretrained(workdir, dataset):
    out = workdir / "run"
    rc = main(["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
               "--steps", "40", "--recon-every", "20", "--recon-samples", "4",
               "--seed", "3"] + TINY_MODEL)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def embedded(workdir, dataset, pretrained):
    out = workdir / "emb.txt"
    rc = main(["embed", "--dataset", str(dataset),
               "--checkpoint", str(pretrained / "model.npz"), "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_loadable_dataset(dataset):
    graph = load_textgraph(*dataset_paths(dataset))
    assert graph.num_nodes == 48
    assert graph.num_edges > 0
    assert set(graph.splits) == {"train", "val", "test"}
    assert (graph.labels >= 0).all()


def test_generate_rerun_is_byte_identical(workdir, dataset):
    other = workdir / "data_again"
    assert main(["generate", "--out", str(other)] + GEN_ARGS) == 0
    for a, b in zip(dataset_paths(dataset), dataset_paths(other)):
        assert a.read_bytes() == b.read_bytes()


def test_generate_seed_changes_output(workdir, dataset):
    other = workdir / "data_seed9"
    args = GEN_ARGS[:-1] + ["9"]
    assert main(["generate", "--out", str(other)] + args) == 0
    assert (other / "nodes.tsv").read_bytes() != (dataset / "nodes.tsv").read_bytes()


def test_generate_rejects_zero_classes(tmp_path):
    rc = main(["generate", "--out", str(tmp_path / "x"), "--classes", "0"])
    assert rc == 1
    assert not (tmp_path / "x").exists()


def test_generate_at_8192_nodes_stays_small_and_numpy_only(tmp_path):
    # The edge draw holds one row block of the 8192 x 8192 uniform matrix at a
    # time (drawing the whole matrix at once peaked at ~2.2 GB), and the
    # command loads no scipy module.
    # Edge probabilities are the defaults scaled by 512 / N, which keeps the
    # mean degree of the 512-node default graph.
    from nodegae.textcorpus import SyntheticGraphSpec

    nodes, base = 8192, SyntheticGraphSpec()
    scale = base.num_nodes / nodes
    args = ["generate", "--out", str(tmp_path / "big"), "--nodes", str(nodes),
            "--intra-prob", repr(base.intra_class_edge_prob * scale),
            "--inter-prob", repr(base.inter_class_edge_prob * scale), "--seed", "0"]
    rc, maxrss_kb, scipy_modules, _ = fresh_main(args)
    assert rc == 0
    assert maxrss_kb < 500 * 1024
    assert scipy_modules == "[]"
    assert load_textgraph(*dataset_paths(tmp_path / "big")).num_nodes == nodes


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_loss_decreases(pretrained):
    header, rows = csv_rows(pretrained / "pretrain_log.csv")
    assert header == ["step", "lm_loss", "infonce_loss", "total"]
    totals = [float(r[3]) for r in rows]
    assert len(totals) == 40
    assert np.mean(totals[-5:]) < np.mean(totals[:5])


def test_pretrain_writes_reconstruction_metrics(pretrained):
    header, rows = csv_rows(pretrained / "recon_metrics.csv")
    assert header == ["step", "bleu", "rouge_l", "token_f1"]
    assert [r[0] for r in rows] == ["20", "40"]
    for r in rows:
        for v in r[1:]:
            assert 0.0 <= float(v) <= 1.0


def test_pretrain_zero_alphas_zero_infonce_column(workdir, dataset):
    out = workdir / "run_noinfo"
    rc = main(["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
               "--steps", "6", "--recon-every", "0", "--alpha1", "0",
               "--alpha2", "0", "--seed", "3"] + TINY_MODEL)
    assert rc == 0
    _, rows = csv_rows(out / "pretrain_log.csv")
    assert [r[2] for r in rows] == ["0.0"] * 6


def test_pretrain_resume_continues_step_numbering(workdir, dataset):
    out = workdir / "run_resume"
    base = ["--dataset", str(dataset), "--out-dir", str(out),
            "--recon-every", "0", "--seed", "11"] + TINY_MODEL
    assert main(["pretrain", "--steps", "8"] + base) == 0
    assert main(["pretrain", "--steps", "4", "--resume",
                 str(out / "model.npz")] + base) == 0
    text = read(out / "pretrain_log.csv")
    assert text.count("step,lm_loss") == 1
    _, rows = csv_rows(out / "pretrain_log.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 13))
    _, adam, _ = ae.load_model(out / "model.npz")
    assert adam.step_count == 12


def test_pretrain_resume_equals_uninterrupted_run(dataset, tmp_path):
    base = ["--dataset", str(dataset), "--recon-every", "5", "--seed", "11"] + TINY_MODEL
    whole, split = tmp_path / "whole", tmp_path / "split"
    assert main(["pretrain", "--steps", "20", "--out-dir", str(whole)] + base) == 0
    assert main(["pretrain", "--steps", "10", "--out-dir", str(split)] + base) == 0
    assert main(["pretrain", "--steps", "10", "--out-dir", str(split), "--resume",
                 str(split / "model.npz")] + base) == 0
    for name in ("pretrain_log.csv", "recon_metrics.csv"):
        assert (split / name).read_bytes() == (whole / name).read_bytes(), name
    with np.load(whole / "model.npz") as a, np.load(split / "model.npz") as b:
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("failing", ["recon_metrics.csv", "model.npz"])
def test_failed_resume_write_leaves_the_old_run_and_no_temp_files(dataset, tmp_path, capsys,
                                                                  disk_full, failing):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
            "--recon-every", "2", "--recon-samples", "2", "--seed", "11"] + TINY_MODEL
    assert main(base + ["--steps", "4"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["model.npz", "pretrain_log.csv", "recon_metrics.csv"]
    disk_full(f".{failing}.", len(before[failing]) // 2)
    assert main(base + ["--steps", "2", "--resume", str(out / "model.npz")]) == 2
    assert "No space left" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
def test_pretrain_divergence_exits_two_without_artifacts(dataset, tmp_path, monkeypatch,
                                                         capsys, command):
    real_step = cli.pretrain_step
    calls = []

    def step_that_diverges(*args):
        calls.append(1)
        lm, info = real_step(*args)
        return (float("nan"), info) if len(calls) == 3 else (lm, info)

    monkeypatch.setattr(cli, "pretrain_step", step_that_diverges)
    out = tmp_path / "run"
    args = [command, "--dataset", str(dataset), "--out-dir", str(out),
            "--steps", "6", "--seed", "3"] + TINY_MODEL
    args += (["--recon-every", "0"] if command == "pretrain"
             else ["--repeats", "1", "--epochs", "1"])
    rc = main(args)
    assert rc == 2
    assert len(calls) == 3
    assert "step 3" in capsys.readouterr().err
    assert not (out / "model.npz").exists()
    assert not (out / "pretrain_log.csv").exists()
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--d-enc", "32", "--lr", "5"], ["--d-enc 32", "--lr 5.0"]),
    (["--heads", "4"], ["--heads 4"]),
    (["--max-len", "32"], ["--max-len 32"]),
    (["--warmup", "7"], ["--warmup 7"]),
    (["--clip-norm", "0"], ["--clip-norm 0.0"]),
], ids=["d-enc-and-lr", "heads", "max-len", "warmup", "clip-norm"])
def test_pretrain_resume_refuses_conflicting_flags(dataset, tmp_path, capsys, flags, named):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
            "--steps", "2", "--recon-every", "0"]
    assert main(base + TINY_MODEL) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(base + ["--resume", str(out / "model.npz")] + flags) == 1
    err = capsys.readouterr().err
    for text in named:
        assert text in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_pretrain_resume_takes_unset_flags_from_checkpoint(dataset, tmp_path):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
            "--steps", "2", "--recon-every", "0"]
    assert main(base + TINY_MODEL + ["--lr", "0.01", "--warmup", "3",
                                     "--clip-norm", "0"]) == 0
    # A non-positive --clip-norm means no clipping, as the checkpoint records.
    assert main(base + ["--resume", str(out / "model.npz"), "--clip-norm", "-1",
                        "--d-enc", "16"]) == 0
    model, adam, _ = ae.load_model(out / "model.npz")
    assert (model.config.d_enc, model.config.max_len) == (16, 16)
    assert (adam.base_lr, adam.warmup_steps, adam.clip_norm) == (0.01, 3, None)
    assert adam.step_count == 4


# Every flag that model.npz stores as given; TINY_MODEL[:-2] drops TINY_MODEL's --vocab-size.
STORED_FLAGS = ["--vocab-size", "64", "--seed", "5", "--tau", "0.25", "--alpha1", "0.5",
                "--alpha2", "0.5", "--raw-similarity"]


@pytest.mark.parametrize("flags, named", [
    (["--vocab-size", "8", "--seed", "99"], ["--vocab-size 8", "--seed 99"]),
    (["--tau", "0.3"], ["--tau 0.3"]),
    (["--alpha1", "1.0", "--alpha2", "0.1"], ["--alpha1 1.0", "--alpha2 0.1"]),
], ids=["vocab-size-and-seed", "tau", "alphas"])
def test_pretrain_resume_refuses_conflicting_stored_flags(dataset, tmp_path, capsys,
                                                          flags, named):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
            "--steps", "2", "--recon-every", "0"]
    assert main(base + TINY_MODEL[:-2] + STORED_FLAGS) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(base + ["--resume", str(out / "model.npz")] + flags) == 1
    err = capsys.readouterr().err
    for text in named:
        assert text in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_pretrain_resume_refuses_raw_similarity_the_checkpoint_did_not_use(dataset, tmp_path,
                                                                           capsys):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
            "--steps", "2", "--recon-every", "0"] + TINY_MODEL
    assert main(base) == 0
    assert main(base + ["--resume", str(out / "model.npz"), "--raw-similarity"]) == 1
    assert "--raw-similarity True (checkpoint: False)" in capsys.readouterr().err


def test_pretrain_resume_takes_stored_flags_from_checkpoint(dataset, tmp_path):
    base = ["pretrain", "--dataset", str(dataset), "--recon-every", "0"] + TINY_MODEL[:-2]
    whole, split = tmp_path / "whole", tmp_path / "split"
    assert main(base + ["--steps", "4", "--out-dir", str(whole)] + STORED_FLAGS) == 0
    assert main(base + ["--steps", "2", "--out-dir", str(split)] + STORED_FLAGS) == 0
    assert main(base + ["--steps", "2", "--out-dir", str(split),
                        "--resume", str(split / "model.npz")]) == 0
    assert (split / "pretrain_log.csv").read_bytes() == (whole / "pretrain_log.csv").read_bytes()
    _, _, meta = ae.load_model(split / "model.npz")
    assert meta["stage1_flags"] == {"vocab_size": 64, "seed": 5, "tau": 0.25, "alpha1": 0.5,
                                    "alpha2": 0.5, "raw_similarity": True}


def test_pretrain_resume_of_checkpoint_without_stored_flags_applies_them(dataset, tmp_path):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out),
            "--steps", "2", "--recon-every", "0"] + TINY_MODEL
    assert main(base) == 0
    edit_checkpoint(out / "model.npz", lambda meta: meta.pop("stage1_flags"))
    assert main(base[:-2] + ["--resume", str(out / "model.npz"), "--vocab-size", "8",
                             "--seed", "99", "--tau", "0.3"]) == 0
    _, _, meta = ae.load_model(out / "model.npz")
    assert (meta["stage1_flags"]["vocab_size"], meta["stage1_flags"]["tau"]) == (8, 0.3)


def test_pretrain_checkpoint_names_its_dataset_by_hash_not_path(dataset, tmp_path, monkeypatch):
    """The same run from another directory, through another path, writes the same bytes."""
    runs = []
    for cwd, data in ((dataset.parent, Path(dataset.name)), (tmp_path, dataset.resolve())):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"run{len(runs)}"
        assert main(["pretrain", "--dataset", str(data), "--out-dir", str(out), "--steps", "2",
                     "--recon-every", "0"] + TINY_MODEL) == 0
        runs.append((out / "model.npz").read_bytes())
    assert runs[0] == runs[1]
    _, _, meta = ae.load_model(tmp_path / "run0" / "model.npz")
    assert meta["dataset_sha256"] == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in dataset_paths(dataset)}
    assert "dataset" not in meta


def test_pretrain_resume_refuses_a_checkpoint_trained_on_other_data(dataset, tmp_path, capsys):
    other, out = tmp_path / "other", tmp_path / "run"
    shutil.copytree(dataset, other)
    edges = other / "edges.tsv"
    edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:-1]))
    base = ["pretrain", "--out-dir", str(out), "--steps", "2", "--recon-every", "0"] + TINY_MODEL
    assert main(base + ["--dataset", str(dataset)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    resume = base + ["--dataset", str(other), "--resume", str(out / "model.npz")]
    assert main(resume) == 1
    err = capsys.readouterr().err
    for data in (dataset, other):
        assert hashlib.sha256((data / "edges.tsv").read_bytes()).hexdigest() in err
    assert "edges.tsv" in err and "nodes.tsv" not in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # A checkpoint that does not store its dataset resumes on any data.
    edit_checkpoint(out / "model.npz", lambda meta: meta.pop("dataset_sha256"))
    assert main(resume) == 0


@pytest.mark.parametrize("command, task", [
    ("train", "nodecls"), ("train", "linkpred"), ("ablate", "nodecls")])
def test_stage2_divergence_exits_two_without_artifacts(dataset, embedded, tmp_path, capsys,
                                                       command, task):
    out = tmp_path / "run"
    args = [command, "--dataset", str(dataset), "--out-dir", str(out), "--task", task,
            "--repeats", "1", "--epochs", "5"]
    if command == "train":
        args += ["--embeddings", str(embedded), "--backbone", "mlp", "--lr", "1e300"]
    else:
        args += ["--steps", "1", "--train-lr", "1e300"] + TINY_MODEL
    with np.errstate(all="ignore"):
        assert main(args) == 2
    assert "diverged at step" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_rejects_missing_dataset(workdir, tmp_path):
    rc = main(["pretrain", "--dataset", str(tmp_path / "nope"),
               "--out-dir", str(tmp_path / "out")] + TINY_MODEL)
    assert rc == 1
    assert not (tmp_path / "out").exists()


def test_pretrain_rejects_zero_steps(dataset, tmp_path):
    rc = main(["pretrain", "--dataset", str(dataset), "--out-dir",
               str(tmp_path / "out"), "--steps", "0"] + TINY_MODEL)
    assert rc == 1


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_row_count_and_provenance(embedded):
    emb = load_embeddings(embedded)
    assert emb.num_rows == 48
    assert emb.dim == 16
    assert emb.provenance == "nodegae"


def test_embed_matches_in_process_encoder(embedded, dataset, pretrained):
    emb = load_embeddings(embedded)
    model, _, _ = ae.load_model(pretrained / "model.npz")
    graph = load_textgraph(*dataset_paths(dataset))
    row = ae.encode_node(model, model.tokens_for(graph.texts[0])).data
    assert np.array_equal(emb.matrix[0], row)


def test_embed_rerun_byte_identical(embedded, dataset, pretrained, tmp_path):
    again = tmp_path / "emb_again.txt"
    rc = main(["embed", "--dataset", str(dataset),
               "--checkpoint", str(pretrained / "model.npz"), "--out", str(again)])
    assert rc == 0
    assert again.read_bytes() == embedded.read_bytes()


def test_embed_baselines(dataset, tmp_path):
    rand = tmp_path / "rand.txt"
    shallow = tmp_path / "shallow.txt"
    assert main(["embed", "--dataset", str(dataset), "--baseline", "random",
                 "--dim", "12", "--out", str(rand), "--seed", "5"]) == 0
    assert main(["embed", "--dataset", str(dataset), "--baseline", "shallow",
                 "--dim", "12", "--out", str(shallow)]) == 0
    assert read(rand).split("\n")[0] == "48 12 random"
    assert read(shallow).split("\n")[0] == "48 12 shallow-baseline"


def test_embed_requires_checkpoint(dataset, tmp_path):
    rc = main(["embed", "--dataset", str(dataset), "--out", str(tmp_path / "e.txt")])
    assert rc == 1


def test_embed_missing_checkpoint_file(dataset, tmp_path):
    rc = main(["embed", "--dataset", str(dataset), "--checkpoint",
               str(tmp_path / "nope.npz"), "--out", str(tmp_path / "e.txt")])
    assert rc == 1


def test_embed_vocab_mismatch_exits_one(tmp_path, capsys):
    """A checkpoint from one corpus is rejected on a token-disjoint corpus."""
    root_a = tmp_path / "corpus_a"
    root_a.mkdir()
    graph_a = TextGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3)],
        texts=["red green blue", "green blue red", "blue red green", "red blue"])
    save_textgraph(graph_a, *dataset_paths(root_a))

    root_b = tmp_path / "corpus_b"
    root_b.mkdir()
    graph_b = TextGraph.from_edges(
        3, [(0, 1), (1, 2)], texts=["qqq zzz", "zzz www", "www qqq"])
    save_textgraph(graph_b, *dataset_paths(root_b))

    run = tmp_path / "run_a"
    rc = main(["pretrain", "--dataset", str(root_a), "--out-dir", str(run),
               "--steps", "2", "--batch-size", "4", "--recon-every", "0",
               "--d-enc", "8", "--d-dec", "8", "--enc-layers", "1",
               "--dec-layers", "1", "--heads", "2", "--proj-len", "2",
               "--ff-mult", "1", "--max-len", "8", "--vocab-size", "32"])
    assert rc == 0
    rc = main(["embed", "--dataset", str(root_b),
               "--checkpoint", str(run / "model.npz"),
               "--out", str(tmp_path / "e.txt")])
    assert rc == 1
    assert "vocabulary" in capsys.readouterr().err
    assert not (tmp_path / "e.txt").exists()


def test_embed_tampered_checkpoint_exits_two(dataset, pretrained, tmp_path, capsys):
    bad = tmp_path / "tampered.npz"
    shutil.copy(pretrained / "model.npz", bad)
    edit_checkpoint(bad, drop=["lm_head"])
    rc = main(["embed", "--dataset", str(dataset), "--checkpoint", str(bad),
               "--out", str(tmp_path / "e.txt")])
    assert rc == 2
    assert "lm_head" in capsys.readouterr().err


def test_embed_unreadable_checkpoint_exits_two(dataset, tmp_path, capsys):
    bad = tmp_path / "x.npz"
    bad.write_text("not an archive\n")
    rc = main(["embed", "--dataset", str(dataset), "--checkpoint", str(bad),
               "--out", str(tmp_path / "e.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and str(bad) in err
    assert not (tmp_path / "e.txt").exists()


def test_resume_of_checkpoint_missing_a_moment_exits_two(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    base = ["pretrain", "--dataset", str(dataset), "--out-dir", str(out), "--steps", "2",
            "--recon-every", "0"] + TINY_MODEL
    assert main(base) == 0
    edit_checkpoint(out / "model.npz", drop=["opt.m.lm_head"])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(base + ["--resume", str(out / "model.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "opt.m.lm_head" in err and "model.npz" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_embed_refuses_a_checkpoint_trained_on_other_data(dataset, pretrained, tmp_path,
                                                          capsys):
    other = tmp_path / "other"
    shutil.copytree(dataset, other)
    edges = other / "edges.tsv"
    edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:-1]))
    checkpoint = tmp_path / "model.npz"
    shutil.copy(pretrained / "model.npz", checkpoint)
    out = tmp_path / "e.txt"
    embed = ["embed", "--dataset", str(other), "--checkpoint", str(checkpoint),
             "--out", str(out)]
    assert main(embed) == 1
    err = capsys.readouterr().err
    for data in (dataset, other):
        assert hashlib.sha256((data / "edges.tsv").read_bytes()).hexdigest() in err
    assert "edges.tsv" in err and "nodes.tsv" not in err
    assert not out.exists()
    # A checkpoint that does not store its dataset embeds any data.
    edit_checkpoint(checkpoint, lambda meta: meta.pop("dataset_sha256"))
    assert main(embed) == 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_single_repeat_report(dataset, embedded, tmp_path):
    out = tmp_path / "tr"
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(embedded),
               "--out-dir", str(out), "--task", "nodecls", "--backbone", "mlp",
               "--repeats", "1", "--epochs", "12", "--patience", "12",
               "--seed", "1"])
    assert rc == 0
    header, rows = csv_rows(out / "report.csv")
    assert header == ["task", "backbone", "provenance", "repeat", "seed",
                      "metric", "value"]
    assert len(rows) == 3
    assert rows[0][:3] == ["nodecls", "mlp", "nodegae"]
    assert rows[1][3] == "mean" and rows[2][3] == "std"
    assert rows[2][6] == "0.0"
    assert rows[0][6] == rows[1][6]
    summary = read(out / "summary.txt")
    assert "metric: accuracy" in summary and "embeddings: nodegae" in summary


def test_train_epoch_log_row_count(dataset, embedded, tmp_path):
    out = tmp_path / "tr"
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(embedded),
               "--out-dir", str(out), "--task", "nodecls", "--backbone", "mlp",
               "--repeats", "2", "--epochs", "9", "--patience", "9",
               "--seed", "1"])
    assert rc == 0
    header, rows = csv_rows(out / "epochs.csv")
    assert header == ["repeat", "scope", "index", "split", "metric", "value"]
    assert len(rows) == 2 * 9 * 3
    assert {r[0] for r in rows} == {"0", "1"}
    assert {r[3] for r in rows} == {"train", "val", "test"}


def test_train_rerun_byte_identical(dataset, embedded, tmp_path):
    args = ["train", "--dataset", str(dataset), "--embeddings", str(embedded),
            "--task", "nodecls", "--backbone", "gcn", "--repeats", "2",
            "--epochs", "6", "--patience", "6", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    for name in ("report.csv", "epochs.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_failed_train_write_leaves_the_old_report_and_no_temp_files(dataset, embedded, tmp_path,
                                                                    capsys, disk_full):
    out = tmp_path / "tr"
    args = ["train", "--dataset", str(dataset), "--embeddings", str(embedded),
            "--out-dir", str(out), "--task", "nodecls", "--backbone", "mlp",
            "--repeats", "1", "--epochs", "4", "--patience", "4"]
    assert main(args + ["--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    disk_full(".summary.txt.", len(before["summary.txt"]) // 2)
    assert main(args + ["--seed", "2"]) == 2
    assert "No space left" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_train_linkpred_curve_file(dataset, embedded, tmp_path):
    out = tmp_path / "tl"
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(embedded),
               "--out-dir", str(out), "--task", "linkpred", "--backbone", "mlp",
               "--repeats", "1", "--epochs", "3", "--batch-edges", "32",
               "--lr", "0.01", "--log-every-iter", "--seed", "2"])
    assert rc == 0
    header, rows = csv_rows(out / "curve.csv")
    assert header == ["repeat", "iteration", "val_roc_auc"]
    assert len(rows) > 0
    assert [int(r[1]) for r in rows] == list(range(1, len(rows) + 1))
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0
    _, report = csv_rows(out / "report.csv")
    assert report[0][5] == "roc_auc"


def test_train_linkpred_mlp_scorer_runs(dataset, embedded, tmp_path):
    out = tmp_path / "tm"
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(embedded),
               "--out-dir", str(out), "--task", "linkpred", "--backbone", "mlp",
               "--link-scorer", "mlp", "--repeats", "1", "--epochs", "2",
               "--batch-edges", "32", "--seed", "2"])
    assert rc == 0
    _, rows = csv_rows(out / "report.csv")
    assert 0.0 <= float(rows[0][6]) <= 1.0


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_leaky_link_split_fails_before_training(dataset, embedded, tmp_path,
                                                monkeypatch, command):
    def leaky_split(graph, seed=0):
        split = build_link_split(graph, seed=seed)
        split.train_pos = np.concatenate([split.train_pos, split.val_pos[:1]])
        return split

    monkeypatch.setattr(cli, "build_link_split", leaky_split)
    out = tmp_path / "leak"
    args = [command, "--dataset", str(dataset), "--out-dir", str(out),
            "--task", "linkpred", "--repeats", "1", "--epochs", "1"]
    if command == "train":
        args += ["--embeddings", str(embedded)]
    else:
        args += ["--steps", "1"] + TINY_MODEL
    assert main(args) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("train", ["--link-scorer", "mlp"], ["--link-scorer"]),
    ("train", ["--batch-edges", "7"], ["--batch-edges"]),
    ("train", ["--link-seed", "3"], ["--link-seed"]),
    ("train", ["--log-every-iter"], ["--log-every-iter"]),
    ("train", ["--link-scorer", "mlp", "--batch-edges", "7", "--log-every-iter"],
     ["--batch-edges", "--link-scorer", "--log-every-iter"]),
    ("ablate", ["--link-scorer", "mlp"], ["--link-scorer"]),
    ("ablate", ["--batch-edges", "7"], ["--batch-edges"]),
    ("ablate", ["--link-seed", "3"], ["--link-seed"]),
])
def test_linkpred_flags_under_nodecls_exit_one_without_artifacts(dataset, embedded, tmp_path,
                                                                 capsys, command, flags, named):
    out = tmp_path / "o"
    args = [command, "--dataset", str(dataset), "--out-dir", str(out), "--task", "nodecls",
            "--repeats", "1", "--epochs", "1"] + flags
    if command == "train":
        args += ["--embeddings", str(embedded)]
    else:
        args += ["--steps", "1"] + TINY_MODEL
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --task nodecls ignores") and "link prediction only" in err
    assert all(flag in err for flag in named)
    assert not out.exists()


def count_operator_builds(monkeypatch, builders):
    """Count calls of the downstream operator builders and of train_message_graph."""
    from nodegae import downstream
    from nodegae.graphstore import LinkSplit

    calls = dict.fromkeys(list(builders) + ["train_message_graph"], 0)

    def counted(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    for builder in builders:
        counted(downstream, builder)
    counted(LinkSplit, "train_message_graph")
    return calls


@pytest.mark.parametrize("backbone, builder", [
    ("gcn", "normalized_adjacency"), ("sage", "mean_adjacency")])
@pytest.mark.parametrize("task", ["nodecls", "linkpred"])
def test_train_repeats_build_the_graph_operator_once(dataset, embedded, tmp_path, monkeypatch,
                                                    task, backbone, builder):
    calls = count_operator_builds(monkeypatch, [builder])
    assert main(["train", "--dataset", str(dataset), "--embeddings", str(embedded),
                 "--out-dir", str(tmp_path / "o"), "--task", task, "--backbone", backbone,
                 "--repeats", "5", "--epochs", "1"]) == 0
    assert calls == {builder: 1, "train_message_graph": int(task == "linkpred")}


@pytest.mark.parametrize("task", ["nodecls", "linkpred"])
def test_ablate_builds_each_backbones_graph_operator_once(dataset, tmp_path, monkeypatch, task):
    calls = count_operator_builds(monkeypatch, ["normalized_adjacency", "mean_adjacency"])
    assert main(["ablate", "--dataset", str(dataset), "--out-dir", str(tmp_path / "o"),
                 "--task", task, "--backbones", "gcn,sage", "--repeats", "2", "--epochs", "1",
                 "--steps", "1"] + TINY_MODEL) == 0
    assert calls == {"normalized_adjacency": 1, "mean_adjacency": 1,
                     "train_message_graph": 2 * int(task == "linkpred")}


def test_train_rejects_missing_embeddings(dataset, tmp_path):
    rc = main(["train", "--dataset", str(dataset), "--embeddings",
               str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert not (tmp_path / "o").exists()


def test_train_rejects_row_mismatch(dataset, tmp_path, capsys):
    small = tmp_path / "small.txt"
    assert main(["generate", "--out", str(tmp_path / "d10"), "--nodes", "10",
                 "--classes", "2", "--seed", "0"]) == 0
    assert main(["embed", "--dataset", str(tmp_path / "d10"), "--baseline",
                 "random", "--dim", "4", "--out", str(small)]) == 0
    capsys.readouterr()
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(small),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert not (tmp_path / "o").exists()
    assert "rows for a" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, fragment", MALFORMED_EMBEDDINGS)
def test_train_malformed_embeddings_exit_two_without_artifacts(dataset, tmp_path, capsys,
                                                              text, line, fragment):
    emb = tmp_path / "emb.txt"
    emb.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(emb),
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error:")
    assert f"emb.txt{line}" in err[0] and fragment in err[0]
    assert not out.exists()


def test_train_rejects_zero_repeats(dataset, embedded, tmp_path):
    rc = main(["train", "--dataset", str(dataset), "--embeddings", str(embedded),
               "--out-dir", str(tmp_path / "o"), "--repeats", "0"])
    assert rc == 1


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_reports_both_variants_and_delta(dataset, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--dataset", str(dataset), "--out-dir", str(out),
               "--task", "nodecls", "--backbones", "mlp,gcn", "--repeats", "2",
               "--steps", "20", "--epochs", "8", "--patience", "8",
               "--seed", "4"] + TINY_MODEL)
    assert rc == 0
    header, rows = csv_rows(out / "ablation.csv")
    assert header == ["backbone", "mean_with", "std_with", "mean_without",
                      "std_without", "delta"]
    assert [r[0] for r in rows] == ["mlp", "gcn"]
    for r in rows:
        with_mean, without_mean, delta = float(r[1]), float(r[3]), float(r[5])
        assert abs(delta - (with_mean - without_mean)) < 1e-15
    summary = read(out / "summary.txt")
    for backbone in ("mlp", "gcn"):
        assert f"{backbone} with-infonce:" in summary
        assert f"{backbone} without-infonce:" in summary
        assert f"{backbone} delta:" in summary
    assert read(out / "emb_with.txt").split("\n")[0] == "48 16 nodegae"
    assert read(out / "emb_without.txt").split("\n")[0] == "48 16 nodegae"


def test_failed_ablate_write_leaves_the_old_run_and_no_temp_files(dataset, tmp_path, capsys,
                                                                  disk_full):
    out = tmp_path / "abl"
    args = ["ablate", "--dataset", str(dataset), "--out-dir", str(out), "--task", "nodecls",
            "--backbones", "mlp", "--repeats", "1", "--steps", "2", "--epochs", "2"] + TINY_MODEL
    assert main(args + ["--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["ablation.csv", "emb_with.txt", "emb_without.txt", "summary.txt"]
    disk_full(".emb_without.txt.", len(before["emb_without.txt"]) // 2)
    assert main(args + ["--seed", "2"]) == 2
    assert "No space left" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs most of a second of every command's start-up;
    # scipy.sparse loads on first use (graph operators), and gelu's erf is
    # numpy code, so no command loads scipy.special.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, nodegae.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.stats', 'scipy.special', 'scipy.sparse')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_pretrain_and_embed_load_no_scipy_module(dataset, tmp_path):
    # Stage 1 runs on numpy alone: gelu's erf is a numpy port of Cephes erf.
    out = tmp_path / "run"
    rc, _, scipy_modules, err = fresh_main(
        ["pretrain", "--dataset", str(dataset), "--out-dir", str(out), "--steps", "4",
         "--recon-every", "4", "--recon-samples", "2", "--seed", "3"] + TINY_MODEL)
    assert rc == 0, err
    assert scipy_modules == "[]"
    rc, _, scipy_modules, err = fresh_main(
        ["embed", "--dataset", str(dataset), "--checkpoint", str(out / "model.npz"),
         "--out", str(tmp_path / "emb.txt")])
    assert rc == 0, err
    assert scipy_modules == "[]"


def test_pretrain_blow_up_exits_two_and_gelu_prints_no_warning(tmp_path):
    # At --lr 1e6 (--clip-norm 0 --warmup 0) the 64-node run stays finite, with
    # a total loss near 4e14 after 500 steps, and exits 0. At 1e60 the second
    # step feeds gelu inputs near 1e60 and then reaches a non-finite gradient
    # norm. The layernorm, matmul and softmax overflow warnings it prints must
    # not be joined by any from gelu: its erf clamps |x| to 6 before x^2 and
    # the polynomials could overflow.
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--nodes", "64", "--seed", "0"]) == 0
    rc, _, _, err = fresh_main(["pretrain", "--dataset", str(data), "--out-dir", str(out),
                                "--lr", "1e60", "--clip-norm", "0", "--warmup", "0",
                                "--steps", "5"])
    assert rc == 2
    assert "diverged at step" in err
    assert not out.exists()
    warned = [int(line) for line in re.findall(r"diffcore\.py:(\d+): RuntimeWarning", err)]
    assert warned, err
    for fn in (dc.gelu, dc._erf, dc._polevl, dc._p1evl):
        lines, first = inspect.getsourcelines(fn)
        assert not set(warned) & set(range(first, first + len(lines))), fn.__name__
