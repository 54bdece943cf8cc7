"""The names the benchmark's tracer looks up must stay in the package.

``perfbench/spans.py`` wraps package functions by name (``process.step``,
``kernels.first_passage_batch``, ``RngStream.substream``, ...), so deleting
or renaming one breaks ``perfbench/run.py --trace 1``.  This test imports
the tracer the way ``perfbench/test_perfbench.py`` does, enters and leaves
it without running anything, and checks that every patched attribute is
restored.

It also checks that every name ``deathlab/__init__.py`` exports has a
caller: some other module of the package refers to it, apart from its own
``def`` or ``class``.  So does every public method and property of an
exported class: some module of the package reads it as an attribute.  A
name the tracer patches (``process.step``, whose calls it counts) is
exempt.
"""

import ast
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deathlab"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _members():
    # "Class.member" for each public method or property of an exported class
    exported = set(_exports())
    return sorted(
        f"{node.name}.{item.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    )


@pytest.fixture(scope="module")
def called(spans):
    # the names read, and those read as an attribute, outside __init__.py
    # (a def or class statement binds its name without a Name node); each
    # set also holds every name the tracer patches
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    with spans.Tracer() as tracer:
        patched = {name for _, name, _ in tracer._patches}
    return names | attributes | patched, attributes | patched


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as monkeypatch:
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


@pytest.mark.parametrize("name", _exports() + _members())
def test_every_export_has_a_caller_in_the_package(called, name):
    names, attributes = called
    owner, _, member = name.rpartition(".")
    if owner:
        assert member in attributes, f"{name} is public but nothing in the package reads it"
    else:
        assert name in names, f"{name} is exported but nothing in the package calls it"
