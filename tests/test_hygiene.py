"""Static checks on the package source: no unused module-level import, no
private module-level function that nothing calls, no public one that nothing
outside its module names, no function parameter that the function never
reads, no module-level constant that nothing reads, no image check below the
exported API, and no line over 100 characters; and that the test oracles import only the standard library and
numpy. Standard library only."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wavefuse"
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


def _named(tree):
    """Every name the module reads or imports from another module."""
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return _referenced_names(tree) | imported


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
    used = set().union(*map(_named, trees.values()))
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


def test_every_public_function_is_named_elsewhere():
    # A public helper that only its own module calls is dead API; the cmd_*
    # handlers are reached through the CLI's dispatch table.
    others = [p for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")]
    paths = [p for p in [*SRC.glob("*.py"), *others] if p != Path(__file__).resolve()]
    trees = {p: _parse(p) for p in paths}
    names = {p: _named(tree) for p, tree in trees.items()}
    unnamed = []
    for path in SRC.glob("*.py"):
        named = set().union(*(n for other, n in names.items() if other != path))
        unnamed += [
            f"{path.name}:{node.name}"
            for node in trees[path].body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith(("_", "cmd_"))
            and node.name not in named
        ]
    assert not unnamed, f"public functions named nowhere outside their module: {unnamed}"


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


def _scripts(tree):
    """The string constants in the module that parse as Python: the scripts
    that tests run in a child process."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except (SyntaxError, ValueError):
                pass


def test_every_module_constant_is_read():
    # An UPPER_CASE module-level name in the package must be read, as a bare
    # name or an attribute, somewhere in the package or its tests, child
    # scripts included.
    trees = [_parse(p) for d in (SRC, ROOT / "tests") for p in d.glob("*.py")]
    trees += [script for tree in trees for script in _scripts(tree)]
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{target.id}"
        for path in SRC.glob("*.py")
        for node in _parse(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
        and target.id not in read
    ]
    assert not unread, f"module-level constants never read: {unread}"


def test_only_exported_functions_check_images():
    # Each function in wavefuse.__all__ that takes images checks them at most
    # once; the functions below the exported API trust their callers.
    init = _parse(SRC / "__init__.py")
    (exported,) = (
        ast.literal_eval(n.value)
        for n in init.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["__all__"]
    )
    checks = {}
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef):
                calls = [
                    n for n in ast.walk(node)
                    if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "check_images"
                ]
                if calls:
                    checks[f"{path.name}:{node.name}"] = len(calls)
    below = [name for name in checks if name.split(":")[1] not in exported]
    assert not below, f"functions outside wavefuse.__all__ that call check_images: {below}"
    twice = [name for name, n in checks.items() if n > 1]
    assert not twice, f"functions that call check_images more than once: {twice}"


def test_no_line_over_100_characters():
    long = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert not long, f"lines over 100 characters: {long}"


def test_oracles_import_nothing_from_the_library():
    # The oracles check the library only while they share no code with it, as
    # README says; wavefuse, or conftest (which imports it), would break that.
    tree = _parse(ROOT / "tests" / "oracles.py")
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += ["." * n.level + (n.module or "") for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)]
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = [m for m in modules if m.split(".")[0] not in allowed]
    assert not foreign, f"tests/oracles.py imports {foreign}"
