"""Span tracing of the stabcert layers, installed from outside the package.

:func:`install` wraps every public function of the layer modules, in every
``stabcert.*`` namespace that holds it (``cli``, ``stability`` and the
package ``__init__`` import functions by name, so patching the defining
module alone would miss those calls), plus ``numpy.linalg.svd`` and
``numpy.linalg.eigh``.  Each wrapped call records a span: name, start, end,
parent span and operation id.  SVD and ``eigh`` calls are counted on the
innermost open span.  Spans stay in memory in flat arrays until the run
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "solver", "stability", "groupnorm", "nuclear", "linalg")
ROOT = "bench.op"

# Counters read off return values at the layer boundary.
_RESULT_FIELDS = {
    "solver.prox_gradient_solve": ("iterations", "converged"),
    "stability.qg_audit": ("samples", "used"),
}


class Tracer:
    """Flat, append-only span store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.svd = array("i")
        self.eigh = array("i")
        self.info: dict[int, tuple] = {}
        self.cur = -1
        self.cur_op = -1
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.cur)
        self.op.append(self.cur_op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.svd.append(0)
        self.eigh.append(0)
        self.cur = idx
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.cur = self.parent[idx]

    @contextmanager
    def operation(self, op_index: int):
        """Root span of one benchmark operation."""
        self.cur_op = op_index
        idx = self.open(self.name_id(ROOT))
        try:
            yield
        finally:
            self.close(idx)
            self.cur_op = -1

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "svd": np.frombuffer(self.svd, dtype=np.intc).astype(np.int64),
            "eigh": np.frombuffer(self.eigh, dtype=np.intc).astype(np.int64),
        }


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    fields = _RESULT_FIELDS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if fields is not None:
            tracer.info[idx] = tuple(getattr(out, f) for f in fields)
        return out

    return wrapper


def _counting(tracer: Tracer, column: str, fn):
    counts = getattr(tracer, column)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.cur >= 0:
            counts[tracer.cur] += 1
        return fn(*args, **kwargs)

    return wrapper


def public_functions(module) -> dict:
    """Functions a layer module defines under a public name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def _namespaces():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "stabcert" or key.startswith("stabcert."))
    ]


@contextmanager
def install(tracer: Tracer, expected=()):
    """Wrap the layer functions for the duration of the block.

    ``expected`` lists ``layer.function`` names the metrics read; those not
    found are recorded in ``tracer.missing`` instead of failing.  On exit
    every patched attribute is restored to the original object.
    """
    wrappers: dict[int, object] = {}
    found = set()
    for layer in LAYERS:
        module = sys.modules.get(f"stabcert.{layer}")
        if module is None:
            continue
        for fname, fn in public_functions(module).items():
            wrappers[id(fn)] = _wrap(tracer, f"{layer}.{fname}", fn)
            found.add(f"{layer}.{fname}")
    tracer.missing = sorted(set(expected) - found)
    patched = []
    try:
        for mod in _namespaces():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, val))
        for attr, column in (("svd", "svd"), ("eigh", "eigh")):
            orig = getattr(np.linalg, attr)
            setattr(np.linalg, attr, _counting(tracer, column, orig))
            patched.append((np.linalg, attr, orig))
        yield tracer
    finally:
        for mod, attr, val in reversed(patched):
            setattr(mod, attr, val)


# ---------------------------------------------------------------------------
# analysis


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Calls are nested and single threaded, so children of one span do not
    overlap and their durations add.
    """
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def inside(parent: np.ndarray, name: np.ndarray, targets) -> np.ndarray:
    """Whether each span has an ancestor whose name id is in ``targets``."""
    targets = set(targets)
    flag = np.zeros(parent.size, dtype=bool)
    par = parent.tolist()
    nm = name.tolist()
    for i, p in enumerate(par):
        if p >= 0 and (flag[p] or nm[p] in targets):
            flag[i] = True
    return flag


def inclusive(parent: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per-span totals of ``own`` over the span and all its descendants."""
    total = own.astype(np.int64).copy()
    par = parent.tolist()
    for i in range(len(par) - 1, -1, -1):
        p = par[i]
        if p >= 0:
            total[p] += total[i]
    return total
