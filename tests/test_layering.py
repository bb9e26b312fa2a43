"""The package's layers import each other without a cycle, and the F_p
echelon layer has one client: the definitional index check."""

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


# the F_p echelon layer, and the only functions outside linalg that may name it
F_P_LAYER = {"Subspace", "from_rref", "_fp_basis"}
F_P_CLIENTS = {"_fp_basis", "_filtration", "_indices_by_definition_single", "basis_vectors"}


def _fp_layer_uses(node, inside=False):
    """(line, name) of each use of an F_p-layer name outside F_P_CLIENTS."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside or node.name in F_P_CLIENTS
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if isinstance(node, ast.alias):
        name = node.name
    found = [(node.lineno, name)] if name in F_P_LAYER and not inside else []
    for child in ast.iter_child_nodes(node):
        found += _fp_layer_uses(child, inside)
    return found


def test_only_the_definitional_check_reads_the_fp_layer():
    pkg = os.path.dirname(os.path.abspath(multicurve.__file__))
    uses = {}
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py") and f != "linalg.py":
            with open(os.path.join(pkg, f), encoding="utf-8") as fh:
                found = _fp_layer_uses(ast.parse(fh.read()))
            if found:
                uses[f] = found
    assert not uses, f"F_p layer named outside {sorted(F_P_CLIENTS)}: {uses}"
