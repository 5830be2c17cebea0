"""The benchmark's per-layer metrics read package functions by name: a
removed, renamed or private function drops its metric from the result line."""

import ast
import importlib
import inspect
from pathlib import Path

METRICS = Path(__file__).resolve().parent.parent / "bench" / "metrics.py"
TABLES = {"SOLVE", "PROX", "VALUE", "PROBES", "NEEDS"}


def traced_functions() -> set[str]:
    """The ``layer.function`` names of ``NEEDS`` in ``bench/metrics.py``,
    from its source alone: only the assignments of the name tables run."""
    tree = ast.parse(METRICS.read_text())
    tables = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in TABLES for t in node.targets)
    ]
    namespace: dict = {}
    exec(compile(ast.Module(body=tables, type_ignores=[]), str(METRICS), "exec"), namespace)
    return {name for names in namespace["NEEDS"].values() for name in names}


def test_every_traced_name_is_a_public_function_of_its_layer():
    names = traced_functions()
    assert "solver.prox_gradient_solve" in names and len(names) >= 10
    for name in sorted(names):
        layer, function = name.split(".")
        module = importlib.import_module(f"stabcert.{layer}")
        obj = getattr(module, function, None)
        assert not function.startswith("_"), name
        assert inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name
