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
