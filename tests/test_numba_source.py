"""A check on the numba build's source that runs without numba.

``kernels._build_backend`` compiles its kernels with ``@njit`` where numba
is installed; elsewhere nothing compiles them.  This test walks their
syntax tree and holds every call to what numba's nopython mode compiles
and the kernels already use: another kernel, a ``math`` function,
``gen.random``, a listed numpy constructor, or one of a few builtins.  It
is a proxy, not a compile: it does not see types.
"""

import ast
import inspect
import math
import textwrap

from deathlab import kernels

NUMPY_CONSTRUCTORS = {"empty", "zeros", "full", "arange", "int64"}
BUILTINS = {"int", "float", "min", "max", "range", "abs"}


def _tree(function):
    return ast.parse(textwrap.dedent(inspect.getsource(function))).body[0]


def compiled_kernels() -> dict:
    """name -> syntax tree of each function ``_build_backend`` compiles:
    its ``@wrap`` definitions and the module functions it passes to
    ``wrap(...)``, under the name it gives them."""
    found = {}
    for node in _tree(kernels._build_backend).body:
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(d, ast.Name) and d.id == "wrap" for d in node.decorator_list
        ):
            found[node.name] = node
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "wrap"
        ):
            (target,) = node.targets
            (source,) = node.value.args
            found[target.id] = _tree(getattr(kernels, source.id))
    return found


def _allowed(func, kernel_names) -> bool:
    if isinstance(func, ast.Name):
        return func.id in kernel_names or func.id in BUILTINS
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner, name = func.value.id, func.attr
        if owner == "math":
            return callable(getattr(math, name, None))
        if owner == "np":
            return name in NUMPY_CONSTRUCTORS
        return (owner, name) == ("gen", "random")
    return False


def disallowed_calls(found: dict) -> list[str]:
    """Each call in a compiled kernel that is not on the allowlist, as
    "kernel: call"."""
    return [
        f"{name}: {ast.unparse(node)}"
        for name, tree in found.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and not _allowed(node.func, found)
    ]


def test_every_kernel_is_walked():
    exported = {name for name in vars(kernels.get_backend(False)) if name != "name"}
    assert exported | {"_level", "_landing", "_hold", "_conditional_deaths"} <= set(compiled_kernels())


def test_kernels_call_only_what_numba_compiles():
    assert disallowed_calls(compiled_kernels()) == []


def test_a_call_off_the_allowlist_is_named():
    tree = ast.parse("def kernel(gen, x):\n    return np.unique(x) + len(x) + gen.integers(3)\n").body[0]
    assert sorted(disallowed_calls({"kernel": tree})) == [
        "kernel: gen.integers(3)", "kernel: len(x)", "kernel: np.unique(x)"
    ]
