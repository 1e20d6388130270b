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


def test_private_helpers_are_used():
    """Every module-level _private function or class of the package is
    referenced somewhere in the package other than its own body, so a helper
    whose last caller is gone does not linger."""
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    used = Counter()
    for tree in trees.values():
        used += _used_names(tree)
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


def test_traced_names_resolve():
    """Every function that perfbench/tracer.py wraps (its SPANS and COUNTERS)
    resolves in its k3pencil.<layer> module by the tracer's own _resolve, so a
    deleted or renamed traced function fails here rather than in a traced
    benchmark run.  The tracer is compiled from its source, so nothing is
    written under perfbench/."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    tracer = types.ModuleType("tracer")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), tracer.__dict__)
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
