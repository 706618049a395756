"""Tests of the benchmark's own arithmetic, plus a tiny run of each workload.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_values  # noqa: E402


# --- percentiles and tails -------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    for n in (20, 40, 100, 200, 1000, 10000):
        pct = stats.tail_percentile(n)
        assert stats.samples_beyond(n, pct) >= stats.TAIL_MIN_BEYOND
        higher = [p for p in stats.TAIL_CANDIDATES if p > pct]
        assert all(stats.samples_beyond(n, p) < stats.TAIL_MIN_BEYOND for p in higher)


def test_summarize_reports_count_and_tail():
    summary = stats.summarize([float(i) for i in range(1, 101)])
    assert summary == {"median": 50.5, "n": 100, "tail_pct": 90.0, "tail": 90.0}
    assert stats.summarize([3.0, 1.0, 2.0])["tail"] is None


# --- failed operations -----------------------------------------------------

def test_failed_ops_ratio():
    assert stats.failed_ops_ratio(8, 0) == 0.0
    assert stats.failed_ops_ratio(8, 2) == 0.25
    assert stats.failed_ops_ratio(3, 3) == 1.0
    with pytest.raises(ValueError):
        stats.failed_ops_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ops_ratio(2, 3)


def test_checks_count_every_failure():
    checks = workloads.Checks()
    assert checks.expect(True, "fine")
    assert not checks.expect(False, "broken")
    checks.expect(False, "broken again")
    assert (checks.attempted, checks.failed) == (3, 2)
    assert checks.failures == ["broken", "broken again"]


# --- self time from nested spans -------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 5.0, 6.0, 0),
    ]
    assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_unites_overlapping_children():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0),
             ("c", 9.0, 12.0, 0)]
    # a and b cover [1, 7]; c is clipped to the parent's end.
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_merges_child_files(tmp_path):
    tracer = Tracer()
    tracer.run_id = "r1"
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    child = Tracer()
    child.wrap(lambda: None, "in_child")()
    child.write(tmp_path / "child.tsv")
    tracer.begin("parent_side")
    tracer.end()
    tracer.merge(tmp_path / "child.tsv", parent=2)
    assert tracer.spans[3][0] == "in_child" and tracer.spans[3][3] == 2
    assert tracer.spans[3][4] == "r1"


def test_layer_values_per_round_and_ops_per_step():
    spans = [
        ("autoencoder.pretrain_step", 0.0, 1.0, -1, "r1", 0),
        ("diffcore.op.add", 0.1, 0.2, 0, "r1", 0),
        ("diffcore.op.mul", 0.2, 0.4, 0, "r1", 0),
        ("diffcore.adam_step", 0.5, 0.6, 0, "r1", 0),
        ("graphstore.sample_positive", 0.6, 0.7, 0, "r1", 1),
        ("graphstore.sample_positive", 0.7, 0.8, 0, "r1", 0),
        ("diffcore.op.add", 2.0, 2.5, -1, "setup", 0),
    ]
    values = layer_values(spans, setup_reps=2, round_ids=["r1"])
    assert values["diffcore.ops_per_step"] == 2.0
    assert values["diffcore.op.add.calls"] == 1 + 0.5
    assert values["diffcore.op.mul.fwd_s"] == pytest.approx(0.2)
    assert values["autoencoder.pretrain_step.self_s"] == pytest.approx(1.0 - 0.6)
    assert values["graphstore.sample_positive.none_ratio"] == 0.5
    assert values["autoencoder.pretrain_step.ms_p50"] == pytest.approx(1000.0)


# --- the benchmark definition ----------------------------------------------

def test_benchmark_json_matches_layer_map():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m["name"] for m in layers]
    assert [m["unit"] for m in bench["per_layer"]] == [m["unit"] for m in layers]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for layer in layers:
        assert set(layer["moves"]) <= e2e
        assert set(layer["workloads"]) <= set(run.WORKLOADS)


# --- tiny runs of each workload --------------------------------------------

TINY_STAGE1 = workloads.Stage1Scale(
    nodes=48, steps=4, batch_size=4, recon_every=2, recon_samples=2, row_checks=2,
    model=dict(d_enc=16, d_dec=16, enc_layers=1, dec_layers=1, heads=2, proj_len=2,
               ff_mult=1, max_len=16))
TINY_STAGE2 = workloads.Stage2Scale(nodecls_nodes=256, linkpred_nodes=128,
                                    nodecls_epochs=5, linkpred_epochs=1, dim=8)
TINY_CLI = workloads.CliScale(nodes=128, pretrain_steps=2, nodecls_epochs=5,
                              linkpred_epochs=2)


def _tiny(name, tmp_path):
    kind, scale = {"stage1-512": (workloads.Stage1, TINY_STAGE1),
                   "stage2-4096": (workloads.Stage2, TINY_STAGE2),
                   "cli-512": (workloads.Cli, TINY_CLI)}[name]
    return kind(5, ROOT / "src", tmp_path / "work", scale)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_runs_clean_traced_and_untraced(name, tmp_path):
    checks = workloads.Checks()
    res = run.execute(_tiny(name, tmp_path), seconds=0.0, trace=True, checks=checks)
    assert checks.failures == []
    # Round 1 ran traced and reproduced round 0's outputs.
    assert len(res["plain"]) == 2 and len(res["traced"]) == 1
    assert checks.attempted > 1
    for out in res["plain"]:
        for key in ("fit_s", "infer_s", "final_loss"):
            assert out[key] > 0
    values = layer_values(res["tracer"].spans, run.SETUP_REPS, ["r1"])
    busy = {"stage1-512": ["autoencoder.pretrain_step.s", "graphstore.sample_positive.calls"],
            "stage2-4096": ["downstream.train_node_classifier.s",
                            "downstream.train_link_predictor.steps",
                            "downstream.shallow_embeddings.s"],
            "cli-512": ["cli.import.s", "cli.pretrain.s", "autoencoder.save_model.s",
                        "textcorpus.load_textgraph.s"]}[name]
    for key in busy + ["diffcore.ops_per_step", "diffcore.op.matmul.calls"]:
        assert values.get(key, 0.0) > 0, key


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stage1-512",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
