"""Static checks on the package source: no unused module-level import, no
private module-level function that nothing calls and no function parameter
that the function never reads. Standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wavefuse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names(tree):
    """Every name the module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _referenced_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_every_private_function_has_a_caller():
    trees = {path.name: _parse(path) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        used |= _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    uncalled = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not uncalled, f"private functions with no caller: {uncalled}"


def test_every_parameter_is_read():
    unread = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{path.name}:{node.name}({p.arg})" for p in params if p.arg not in read]
    assert not unread, f"parameters never read: {unread}"
