"""The names the benchmark's tracer looks up must stay in the package.

``perfbench/spans.py`` wraps package functions by name (``process.step``,
``kernels.first_passage_batch``, ``RngStream.substream``, ...), so deleting
or renaming one breaks ``perfbench/run.py --trace 1``.  This test imports
the tracer the way ``perfbench/test_perfbench.py`` does, enters and leaves
it without running anything, and checks that every patched attribute is
restored.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    sys.modules.pop("spans", None)


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_the_tracer_finds_and_restores_every_name_it_patches(spans):
    with spans.Tracer() as tracer:
        patched = list(tracer._patches)
        for owner, name, original in patched:
            assert _current(owner, name) is not original, name
    assert len(patched) > 50
    for owner, name, original in patched:
        assert _current(owner, name) is original, name
