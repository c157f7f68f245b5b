import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cavitytd
from cavitytd import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(cavitytd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"cavitytd.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from cavitytd.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def _raised_names() -> set[str]:
    """Names of the exceptions that a `raise` statement in the package raises."""
    names = set()
    for path in Path(cavitytd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    # CavityError is the base callers catch; every other error type must
    # have a raiser, or it is dead API.
    declared = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.CavityError)
        and obj.__module__ == errors.__name__ and obj is not errors.CavityError
    }
    assert declared
    assert sorted(declared - _raised_names()) == []


# Definitions no command reaches that stay on purpose, with the reason.
UNCALLED = {
    # FrequencySolver.solve_load: a benchmark seam.  bench/tracer.py wraps it
    # to count CQ contour nodes, and the tests' all-at-once CQ reference
    # calls it.
    "freq.solve_load",
    # trace.passivity_defect and trace.restrict: the coupled boundary form of
    # restricted aperture traces, the reference of acceptance criterion 03
    # and of the frequency certificate's test (tests/test_diagnostics.py).
    "trace.passivity_defect",
    "trace.restrict",
}


def test_every_definition_has_a_caller():
    # A def or class is in use when a module of the package other than
    # __init__.py names it (an ast.Name or ast.Attribute); being exported
    # keeps nothing alive.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(cavitytd.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
    }
    used, defined = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((module, node.name))
    uncalled = {f"{module}.{name}" for module, name in defined if name not in used}
    assert sorted(uncalled - UNCALLED) == []
    assert sorted(UNCALLED - uncalled) == []


# Imports no code of their module reads that stay on purpose, with the reason.
UNREAD_IMPORTS = {
    # cli.assemble_all: a benchmark seam.  bench/tracer.py wraps the name in
    # cli's namespace to time assembly as the fem.assemble span.
    "cli.assemble_all",
    # cli.save_solution_csv: a benchmark seam.  bench/tracer.py wraps the
    # name as an io.csv span; solve-freq's solution files are written by the
    # forked process of writer.py, whose spans the tracer does not see.
    "cli.save_solution_csv",
}


def test_every_import_is_used():
    # An imported name is in use when its module reads it: an ast.Name,
    # which is also the base of every attribute chain such as np.zeros.
    unused = set()
    for path in Path(cavitytd.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "annotations" and bound not in read:
                        unused.add(f"{path.stem}.{bound}")
    assert sorted(unused - UNREAD_IMPORTS) == []
    assert sorted(UNREAD_IMPORTS - unused) == []


# Dataclass fields no module of the package reads that stay on purpose,
# with the reason.
UNREAD_FIELDS = {
    # The march's per-step state norm: public record of the time solution,
    # read by the tests and the README's API example.
    "cq.TimeSolution.state_norm",
    # The two sides of the stability estimate: public API of
    # diagnostics.stability_check, read by the tests; solve-time records
    # only their ratio.
    "diagnostics.StabilityRecord.lhs",
    "diagnostics.StabilityRecord.rhs",
    # Reaches manifest.json through asdict in RunManifest.write.
    "io.RunManifest.mesh_stats",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        fn = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(fn, ast.Name) and fn.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # A field is in use when some module of the package reads an attribute
    # of its name (an ast.Attribute in load context); a field only ever
    # written is state nothing reads.  Matching is by name, so a field
    # shares the reads of every other field of its name.
    read, fields = set(), set()
    for path in Path(cavitytd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields |= {
                    (f"{path.stem}.{node.name}", stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
    assert fields
    unread = {f"{owner}.{name}" for owner, name in fields if name not in read}
    assert sorted(unread - UNREAD_FIELDS) == []
    assert sorted(UNREAD_FIELDS - unread) == []
