import sys
from pathlib import Path

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
