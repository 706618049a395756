import errno
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, have no per-example
# time limit (CI machines may be loaded), and keep no example database.
settings.register_profile("nodegae", derandomize=True, deadline=None, database=None)
settings.load_profile("nodegae")


@pytest.fixture
def recorded_ops(monkeypatch):
    """Every tensor diffcore's ops create from here on, in order."""
    from nodegae import diffcore as dc

    seen = []
    record = dc._record

    def spy(*args):
        out = record(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(dc, "_record", spy)
    return seen


def saved_arrays(node):
    """The arrays node's backward closure holds beyond its output and its inputs.

    Walks the closure's cells, the tuples and lists in them, and the cells of
    the helper functions it calls, and drops every array that shares memory with the output's or a parent's
    data (so views of them are dropped too). An input that needs no gradient
    is no parent, so its data counts when the closure holds it. What is left
    is what the tape keeps alive only for this op's backward.
    """
    from nodegae import diffcore as dc

    own = [node.data] + [p.data for p in node._parents if p is not None]
    found, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, dc.DiffTensor):
            visit(obj.data)
        elif isinstance(obj, np.ndarray):
            if not any(np.shares_memory(obj, a) for a in own):
                found.append(obj)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                visit(cell.cell_contents)

    visit(node._backward_fn)
    return found


def edit_checkpoint(path, edit_meta=None, drop=()):
    """Rewrite the checkpoint npz at path: edit_meta(meta) changes its __meta__
    block in place, and the "t:<name>" entry of each name in drop goes."""
    gone = {"t:" + name for name in drop}
    with np.load(path, allow_pickle=False) as bundle:
        payload = {k: bundle[k] for k in bundle.files if k not in gone}
    meta = json.loads(str(payload["__meta__"]))
    if edit_meta is not None:
        edit_meta(meta)
    payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(path, **payload)


class _FullDisk:
    """A binary file that stores its first ``budget`` bytes, then raises ENOSPC."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        data = memoryview(data).cast("B")
        self.fh.write(data[:self.budget])
        self.fh.flush()
        self.budget -= min(self.budget, len(data))
        if not self.budget:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def disk_full(monkeypatch):
    """fill(marker, budget): the next writes of textcorpus.replace_files to a temp
    file whose name holds marker store budget bytes, then raise as on a full disk."""
    from nodegae import textcorpus as tc

    def fill(marker, budget):
        def faulty_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return _FullDisk(fh, budget) if marker in str(path) else fh

        monkeypatch.setattr(tc, "open", faulty_open, raising=False)

    return fill
