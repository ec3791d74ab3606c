"""Every public function, class and method of the package has a production use,
and only `runtime` imports the modules that set up the process.

The package's source is read with `ast` and nothing in it is imported or
changed.  A public name passes when it is referenced by name somewhere in
`src/vekua_lab/` outside its own definition, when it is an identity check
registered through `_check`, when the benchmark's traced run resolves it
(perfbench/ is only read), or when it is on the allowlist below.  A name
that only tests reach fails: delete it with its tests, or give it a caller.
"""

import ast
import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vekua_lab")
PERFBENCH = os.path.join(ROOT, "perfbench")

# module (or "__init__" for the names the package re-exports) -> reason
ALLOWED = {
    "__init__": "names the package re-exports are its public API",
}


def _trees():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def _public_definitions(trees):
    """(module, qualified name, node) of every public top-level function or class
    and every public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and not node.name.startswith("_"):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield module, f"{node.name}.{item.name}", item


def _references(trees):
    """Ids of the nodes that use each name over the package: bare names and
    attributes for module-level definitions, attributes alone for methods."""
    names, attributes = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add(id(node))
    return names, attributes


def _registered(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_check"
               for d in getattr(node, "decorator_list", ()))


def _exports(trees):
    """(module, name) of every name `__init__` imports from a package module."""
    return {(stmt.module, alias.name) for stmt in trees["__init__"].body
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
            for alias in stmt.names}


@pytest.fixture(scope="module")
def traced():
    """Qualified names the benchmark's traced run resolves, read as
    test_bench_contract.py reads them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        mp.setattr(sys, "dont_write_bytecode", True)
        layers, tracer = importlib.import_module("layers"), importlib.import_module("tracer")
    return ({f"{module}.{function}" for module, function, _, _ in layers.FUNCTIONS}
            | {f"{module}.{cls}.{method}" for module, cls, method, _, _ in layers.METHODS}
            | set(tracer.ENTRY_NAMES))


def test_every_public_name_has_a_production_use(traced):
    trees = _trees()
    assert {"cli", "fields", "harness", "integral_ops", "kernels", "pde", "vekua"} <= set(trees)
    names, attributes = _references(trees)
    exports = _exports(trees)
    unused = []
    for module, name, node in _public_definitions(trees):
        uses = attributes.get(node.name, set())
        if "." not in name:
            uses = uses | names.get(node.name, set())
        if (uses - {id(n) for n in ast.walk(node)} or _registered(node)
                or f"{module}.{name}" in traced or module in ALLOWED
                or (module, name) in exports):
            continue
        unused.append(f"{module}.{name}")
    assert not unused, f"public names with no production use: {unused}"


# modules through which the package sets up its process: threads, pools and
# C-library calls
PROCESS_MODULES = {"ctypes", "threading", "concurrent.futures"}


def test_only_runtime_imports_process_modules():
    # the process policy lives in `runtime` alone
    importers = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {node.module}
            else:
                continue
            if any(name == p or name.startswith(p + ".") for name in imported
                   for p in PROCESS_MODULES):
                importers.add(module)
    assert importers == {"runtime"}
