"""The package's layers import each other without a cycle."""

import ast
import os
from graphlib import CycleError, TopologicalSorter

import pytest

import multicurve


def _import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, at any depth
    (function bodies included), read with ast."""
    pkg = os.path.dirname(os.path.abspath(multicurve.__file__))
    names = {f[:-3] for f in os.listdir(pkg) if f.endswith(".py")}
    graph = {}
    for name in names:
        with open(os.path.join(pkg, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multicurve."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps |= {a.name.split(".")[1] for a in node.names if a.name.startswith("multicurve.")}
        graph[name] = deps & names
    return graph


def test_the_import_graph_is_acyclic():
    graph = _import_graph()
    assert {"modules", "ext", "normal_form", "linalg"} <= set(graph)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_the_factorization_lives_below_ext():
    graph = _import_graph()
    assert "ext" not in graph["modules"] | graph["normal_form"]
    assert "modules" in graph["ext"]
