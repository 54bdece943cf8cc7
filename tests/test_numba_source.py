"""A check on the numba build's source that runs without numba.

``kernels._build_backend`` compiles its kernels with ``@njit`` where numba
is installed; elsewhere nothing compiles them.  This test walks their
syntax tree and holds every call to what numba's nopython mode compiles
and the kernels already use: another kernel, a ``math`` function,
``gen.random``, a listed numpy constructor, or one of a few builtins.  It
also holds what the kernels of the uncompiled build read from outside
their arguments to what numba freezes into a compiled kernel: a captured
variable is a numpy array or another compiled kernel, a global is
``math``, ``np``, an int or a float.  It is a proxy, not a compile: it
does not see the types of locals.
"""

import ast
import dis
import inspect
import math
import textwrap

import numpy as np

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
    helpers = {"_level", "_landing", "_thin", "_hold", "_conditional_deaths", "_single_death"}
    assert exported | helpers <= set(compiled_kernels())


def test_kernels_call_only_what_numba_compiles():
    assert disallowed_calls(compiled_kernels()) == []


def test_a_call_off_the_allowlist_is_named():
    tree = ast.parse("def kernel(gen, x):\n    return np.unique(x) + len(x) + gen.integers(3)\n").body[0]
    assert sorted(disallowed_calls({"kernel": tree})) == [
        "kernel: gen.integers(3)", "kernel: len(x)", "kernel: np.unique(x)"
    ]


def captured_kernels() -> dict:
    """name -> function of each kernel of the uncompiled build: the
    exported ones and, through their closures, every function they
    capture, under the name they capture it by."""
    found = {}
    todo = [(name, f) for name, f in vars(kernels._build_backend(False)).items() if callable(f)]
    while todo:
        name, f = todo.pop()
        if name not in found:
            found[name] = f
            todo += [(var, value) for var, value in _captures(f) if inspect.isfunction(value)]
    return found


def _captures(f):
    return [(var, cell.cell_contents) for var, cell in zip(f.__code__.co_freevars, f.__closure__ or ())]


def _global_ok(value) -> bool:
    return value is math or value is np or type(value) in (int, float)


def capture_faults(functions: dict, kernel_names) -> list[str]:
    """Each captured variable that is neither a numpy array nor a kernel
    named in ``kernel_names``, and each global read that is not ``math``,
    ``np``, an int or a float, as "kernel: what"."""
    faults = []
    for name, f in functions.items():
        for var, value in _captures(f):
            if not (isinstance(value, np.ndarray) or (var in kernel_names and inspect.isfunction(value))):
                faults.append(f"{name}: captures {var} ({type(value).__name__})")
        for ins in dis.get_instructions(f):
            if ins.opname == "LOAD_GLOBAL" and ins.argval in f.__globals__:
                if not _global_ok(f.__globals__[ins.argval]):
                    faults.append(f"{name}: reads {ins.argval} ({type(f.__globals__[ins.argval]).__name__})")
    return faults


def test_every_compiled_kernel_is_reached_through_the_closures():
    assert set(captured_kernels()) == set(compiled_kernels())


def test_kernels_capture_only_arrays_kernels_and_numbers():
    assert capture_faults(captured_kernels(), compiled_kernels()) == []


LISTED = [1.0]


def test_a_capture_off_the_rule_is_named():
    table, helper = [1.0], abs

    def kernel(x):
        return table[0] + helper(x) + LISTED[0] + math.floor(x) + np.int64(x) + kernels.HOLD_CAP

    assert capture_faults({"kernel": kernel}, set()) == [
        "kernel: captures helper (builtin_function_or_method)",
        "kernel: captures table (list)",
        "kernel: reads LISTED (list)",
        "kernel: reads kernels (module)",
    ]
