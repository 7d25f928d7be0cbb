"""The error hierarchy: two bases by what the caller does, and no stale error
name on a raise or except path that no other test runs."""

import ast
import builtins
import inspect
import pathlib

import pytest

import nanorod
from nanorod import errors
from nanorod.errors import ConvergenceError, DomainError, NanorodError

BASES = (NanorodError, DomainError, ConvergenceError)
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if inspect.isclass(cls) and issubclass(cls, NanorodError) and cls not in BASES]
SOURCES = sorted(pathlib.Path(nanorod.__file__).parent.glob("*.py"))


def test_two_bases_under_the_package_base():
    assert NanorodError.__subclasses__() == [DomainError, ConvergenceError]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_sits_under_exactly_one_base(cls):
    assert issubclass(cls, DomainError) != issubclass(cls, ConvergenceError)


def test_convergence_errors_and_the_breakdown_base():
    convergence = {cls.__name__ for cls in ERROR_CLASSES if issubclass(cls, ConvergenceError)}
    assert convergence == {"NoFoldError", "NoConvergenceError"}
    assert errors.ConstitutiveSingularityError.__bases__ == (errors.RegimeError,)


def _module_bindings(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _error_names(tree):
    """(line, name) of the class named by every raise and except clause: the
    called name of `raise X(...)`, the name of `raise X`, each name of
    `except (X, Y)`; for a dotted name, its first part."""
    exprs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exprs.append(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            exprs.extend(node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])
    for expr in exprs:
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        yield expr.lineno, expr.id


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_raised_and_caught_names_resolve(path):
    tree = ast.parse(path.read_text())
    known = _module_bindings(tree) | set(dir(builtins))
    stale = [f"{path.name}:{line} {name}" for line, name in _error_names(tree) if name not in known]
    assert not stale
