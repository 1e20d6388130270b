"""Layout rules for the package source."""

import ast
import importlib
import os
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "k3pencil")


def _used_names(node) -> Counter:
    """Identifiers that node reads: names, attributes and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _package_trees() -> dict:
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def _tracer() -> types.ModuleType:
    """perfbench/tracer.py compiled from its source, so nothing is written
    under perfbench/."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    tracer = types.ModuleType("tracer")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), tracer.__dict__)
    return tracer


def test_private_helpers_are_used():
    """Every module-level _private function or class of the package is
    referenced somewhere in the package other than its own body, so a helper
    whose last caller is gone does not linger."""
    trees = _package_trees()
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if used[node.name] - _used_names(node)[node.name] == 0:
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, f"unreferenced private helpers: {unused}"


def _public_definitions(tree):
    """(node, qualified name) of each public module-level function or class
    and each public method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, defs[:2]) and not sub.name.startswith("_"):
                        yield sub, f"{node.name}.{sub.name}"


def test_public_names_have_a_caller():
    """Every public function, class and method of the package is read
    somewhere in the package other than its own body, or is wrapped by
    perfbench/tracer.py (its SPANS and COUNTERS), so code that only tests
    call does not linger in the package."""
    trees = _package_trees()
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    tracer = _tracer()
    traced = {
        (f"{layer}.py", name)
        for table in (tracer.SPANS, tracer.COUNTERS)
        for layer, names in table.items()
        for name in names
    }
    unused = []
    for module, tree in trees.items():
        for node, qualname in _public_definitions(tree):
            if (module, qualname) in traced:
                continue
            if used[node.name] - _used_names(node)[node.name] == 0:
                unused.append(f"{module}:{node.lineno} {qualname}")
    assert not unused, f"public names that nothing in the package reads: {unused}"


def test_traced_names_resolve():
    """Every function that perfbench/tracer.py wraps (its SPANS and COUNTERS)
    resolves in its k3pencil.<layer> module by the tracer's own _resolve, so a
    deleted or renamed traced function fails here rather than in a traced
    benchmark run."""
    tracer = _tracer()
    missing = []
    for table in (tracer.SPANS, tracer.COUNTERS):
        for layer, names in table.items():
            module = importlib.import_module(f"k3pencil.{layer}")
            for name in names:
                try:
                    tracer._resolve(module, name)
                except (AttributeError, KeyError):
                    missing.append(f"{layer}.{name}")
    assert not missing, f"traced names missing from k3pencil: {missing}"
