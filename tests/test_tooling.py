"""Checks that the benchmark harness under perfbench/ still fits the package.

The tier-1 suite does not run perfbench, so a renamed or deleted function
that perfbench traces would otherwise break only traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves_in_nodegae(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "stats"):  # perfbench's own modules, imported fresh
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        tracing = importlib.import_module("tracing")
    finally:
        for name in ("tracing", "stats"):
            sys.modules.pop(name, None)
    missing = []
    for module, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"nodegae.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"nodegae.{module}.{attr}")
    assert missing == []


REPO = Path(__file__).resolve().parents[1]


def test_every_bench_record_names_one_claim_the_benchmark_defines():
    """Each committed BENCH_*.json keeps the layout perf records share: its provenance
    fields, and one claim series on a declared workload and metric with >= 10 pairs."""
    import json

    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    records = sorted(REPO.glob("BENCH_*.json"))
    assert records
    for path in records:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        missing = {"label", "change", "parent_commit", "command", "machine",
                   "series"} - set(record)
        assert not missing, f"{path.name} lacks {sorted(missing)}"
        claims = [s for s in record["series"] if s.get("role") == "claim"]
        assert len(claims) == 1, f"{path.name} has {len(claims)} claim series"
        (claim,) = claims
        assert claim.get("workload") in workloads, path.name
        assert claim.get("claimed_metric") in metrics, path.name
        pairs = claim.get("pairs", [])
        assert len(pairs) >= 10, f"{path.name}: {len(pairs)} claim pairs"
        for pair in pairs:
            assert {"seed", "first", "parent", "change"} <= set(pair), path.name
