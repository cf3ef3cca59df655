"""Every exported name resolves: stale ``__all__`` entries break star imports
and anything that walks a module's exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import align_lab

MODULES = ["align_lab"] + [f"align_lab.{m.name}"
                           for m in pkgutil.iter_modules(align_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), name


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all_entries(tree))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _all_entries(tree: ast.Module) -> list[str]:
    """The names a module lists in its top-level ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


SOURCES = sorted(Path(align_lab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# read by tests alone: the rank reference that the probe's and cj3's
# stacked-rank results are compared against
TEST_ONLY = {("subspaces.py", "numerical_rank")}


def test_every_definition_is_read():
    # a module-level function or class that no module of the package reads
    # by name, attribute or import is dead code; an ``__all__`` entry is not
    # a read, so public API must be imported by ``align_lab/__init__.py``
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = [f"{name}: {node.name} (line {node.lineno})"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read and (name, node.name) not in TEST_ONLY]
    assert not dead, f"definitions nothing reads: {dead}"


def test_star_import_works():
    namespace: dict = {}
    exec("from align_lab import *", namespace)
    assert set(align_lab.__all__) <= set(namespace)


def test_readme_python_blocks_run():
    # the quick start uses only public names, so a deleted or renamed
    # export fails here instead of in a reader's first session
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
