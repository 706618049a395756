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


def saved_arrays(out, inputs=()):
    """What out's backward closure keeps alive, beyond the data of ``inputs``.

    Walks the closure's cells, the tuples and lists in them, and the cells of
    the helper functions it calls. Every array found is listed unless it
    shares memory with one of the inputs' data (so views of them are dropped
    too), and every DiffTensor is listed as itself, since it keeps its data.
    The graph holds no value, so this is all the tape keeps for this op.
    """
    return _closure_arrays(out._node.backward_fn, [t.data for t in inputs])


def _closure_arrays(backward_fn, given):
    from nodegae import diffcore as dc

    found, seen = [], set()
    # A stack, not a recursive helper: a closure that calls itself is a
    # reference cycle, which would keep found's arrays alive until gc runs.
    stack = [backward_fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dc.DiffTensor):
            found.append(obj)
        elif isinstance(obj, np.ndarray):
            if not any(np.shares_memory(obj, a) for a in given):
                found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(reversed(obj))
        elif callable(obj):
            cells = getattr(obj, "__closure__", None) or ()
            stack.extend(cell.cell_contents for cell in reversed(cells))
    return found


def kept_bytes(loss):
    """Bytes that the closures on loss's tape keep alive, parameters' data included.

    Each buffer counts once, however many closures keep it or views of it:
    an array that views another counts as the array that owns the memory.
    """
    from nodegae import diffcore as dc

    owners = {}
    for node in dc._topo_order(loss):
        if isinstance(node, dc.Node) and node.backward_fn is not None:
            for a in _closure_arrays(node.backward_fn, []):
                a = a.data if isinstance(a, dc.DiffTensor) else a
                while isinstance(a.base, np.ndarray):
                    a = a.base
                owners[id(a)] = a.nbytes
    return sum(owners.values())


def kept_inputs(out, inputs):
    """Positions of the inputs whose data, or a view of it, out's backward closure keeps."""
    saved = [a for a in saved_arrays(out) if isinstance(a, np.ndarray)]
    return [i for i, t in enumerate(inputs) if any(np.shares_memory(a, t.data) for a in saved)]


def grid_attention(x, kv, wq, wk, wv, heads, biases=()):
    """dc.attention of (B, Tq, d_in) queries: x as the rows of the mask that covers its
    whole (B, Tq) grid, the output viewed as (B, Tq, d) again. kv is x itself, for
    self-attention on those rows, or a (B, Tk, d_kv) memory."""
    from nodegae import diffcore as dc

    b, tq, d_in = x.shape
    rows = dc.reshape(x, (b * tq, d_in))
    out = dc.attention(rows, rows if kv is x else kv, wq, wk, wv, heads, biases,
                       np.ones((b, tq), dtype=bool))
    return dc.reshape(out, (b, tq, wq.shape[1]))


def edit_checkpoint(path, edit_meta=None, drop=(), add=None, keep_meta=True):
    """Rewrite the checkpoint npz at path: edit_meta(meta) changes its __meta__
    block in place, the "t:<name>" entry of each name in drop goes, and each
    name: array of add becomes a "t:<name>" entry. keep_meta=False drops the
    __meta__ entry itself."""
    gone = {"t:" + name for name in drop}
    with np.load(path, allow_pickle=False) as bundle:
        payload = {k: bundle[k] for k in bundle.files if k not in gone}
    payload.update({"t:" + name: array for name, array in (add or {}).items()})
    meta = json.loads(str(payload["__meta__"]))
    if edit_meta is not None:
        edit_meta(meta)
    if keep_meta:
        payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    else:
        del payload["__meta__"]
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
