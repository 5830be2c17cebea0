"""Seeded instance banks for the stabcert benchmark.

Each workload is a list of :class:`Instance` objects in pass order.  An
instance carries a JSON-ready problem document (the program receives only
that file) plus the bookkeeping the correctness checks need: whether its
verdict must be negative, and for scale copies the instance it was scaled
from.  Generation uses numpy only, so the inputs do not depend on any code
under test.

Sizes within a family are a fixed, seed-shuffled schedule; only the random
entries, the planted solutions and the order change with the seed.  That
keeps the per-seed mix of cheap and costly operations the same, so the
percentiles of one seed compare with those of another.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

COMMANDS = ("certify", "tilt", "perturb", "audit")
NO_MULTISTART = ("certify", "audit")
# Scaled-down copies are left out: every down factor tried (1e-1, 1e-2,
# 1e-3) hits the known absolute-stopping defect on some seeds, and the
# benchmark runs only operations that succeed.  Scaling up costs the solver
# extra iterations under the same defect, so a scale-coherent stopping rule
# still shows here.
SCALE_FACTORS = (1e3,)


@dataclass(frozen=True)
class Instance:
    """One problem file and the operations the benchmark runs on it."""

    iid: str
    family: str
    kind: str  # "group" or "nuclear"
    problem: dict
    commands: tuple[str, ...]
    audit_samples: int
    probe_samples: int
    op_seed: int
    degenerate: bool = False
    origin: str | None = None  # scale copies: the c = 1 instance
    scale: float = 1.0


@dataclass(frozen=True)
class Family:
    """``count`` instances of one generator, run with ``commands``."""

    name: str
    make: Callable  # (rng, slot, count) -> (kind, problem, degenerate)
    count: int
    commands: tuple[str, ...]
    audit_samples: tuple[int, int] = (200, 200)
    probe_samples: int = 2


# ---------------------------------------------------------------------------
# problem documents


def _group_doc(phi, b, mu, groups) -> dict:
    return {
        "schema_version": "1",
        "phi": phi.tolist(),
        "b": b.tolist(),
        "mu": float(mu),
        "reg": {"kind": "group", "groups": [[i + 1 for i in g] for g in groups]},
    }


def _nuclear_doc(phi, b, mu, n1, n2) -> dict:
    return {
        "schema_version": "1",
        "phi": phi.tolist(),
        "b": b.tolist(),
        "mu": float(mu),
        "reg": {"kind": "nuclear", "shape": [n1, n2]},
    }


def scaled_copy(problem: dict, c: float) -> dict:
    """``(b, mu) -> (c b, c mu)``: the exact solution scales by ``c``."""
    doc = dict(problem)
    doc["b"] = [c * v for v in problem["b"]]
    doc["mu"] = c * problem["mu"]
    return doc


# ---------------------------------------------------------------------------
# generators


def _schedule(lo: int, hi: int, slot: int, count: int) -> int:
    """Evenly spread integer in ``[lo, hi]`` for ``slot`` of ``count``."""
    return lo + int((slot + 0.5) * (hi - lo + 1) / count)


def _partition(rng, n: int) -> list[list[int]]:
    groups, left = [], n
    perm = rng.permutation(n)
    pos = 0
    while left:
        s = int(rng.integers(1, min(3, left) + 1))
        groups.append([int(i) for i in perm[pos : pos + s]])
        pos += s
        left -= s
    return groups


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spectral_design(rng, m: int, n: int, lo: float) -> np.ndarray:
    """m x n design with singular values evenly spaced in ``[lo, 1]``."""
    k = min(m, n)
    s = np.linspace(1.0, lo, k)
    return (_orthogonal(rng, m)[:, :k] * s) @ _orthogonal(rng, n)[:, :k].T


def _group_lam_max(phi, b, groups) -> float:
    """The smallest ``mu`` whose solution is zero."""
    corr = phi.T @ b
    return max(float(np.linalg.norm(corr[g])) for g in groups)


def _nuclear_lam_max(phi, b, n1, n2) -> float:
    return float(np.linalg.norm((phi.T @ b).reshape(n1, n2), 2))


# Planted instances are put at unit scale: ``b`` is divided by the smallest
# ``mu`` whose solution is zero, so ``mu`` is the drawn ratio.  Left
# unscaled, a draw with a tiny ``phi^T b`` (one row, all blocks zero) is in
# effect a scaled-down instance and hits the known absolute-stopping defect.
def _planted_group(rng, phi, groups, ratio):
    x = np.zeros(phi.shape[1])
    for g in groups:
        if rng.random() < 0.5:
            x[g] = rng.standard_normal(len(g))
    b = phi @ x + 0.3 * rng.standard_normal(phi.shape[0])
    return b / _group_lam_max(phi, b, groups), ratio


def group_small(rng, slot, count):
    """Acceptance-bank sizes: 2..8 unknowns, 1..6 rows, blocks of 1..3."""
    n = _schedule(2, 8, slot, count)
    m = 1 + (slot * 5) % 6
    groups = _partition(rng, n)
    phi = rng.standard_normal((m, n)) / math.sqrt(m)
    b, mu = _planted_group(rng, phi, groups, rng.uniform(0.2, 0.7))
    return "group", _group_doc(phi, b, mu, groups), False


def group_wide(rng, slot, count):
    """Tens of blocks on a well-conditioned tall design."""
    n = _schedule(30, 90, slot, count)
    groups = _partition(rng, n)
    phi = _spectral_design(rng, n + n // 2, n, 0.3)
    b, mu = _planted_group(rng, phi, groups, rng.uniform(0.2, 0.5))
    return "group", _group_doc(phi, b, mu, groups), False


def group_degenerate(rng, slot, count):
    """Equal columns under singleton blocks: minimizers form a segment."""
    n = _schedule(2, 5, slot, count)
    m = 1 + slot % 3
    col = rng.standard_normal(m)
    col /= np.linalg.norm(col)
    phi = np.column_stack([col] * n)
    mu = float(rng.uniform(0.5, 1.5))
    b = float(rng.uniform(1.5, 3.0)) * mu * col
    return "group", _group_doc(phi, b, mu, [[i] for i in range(n)]), True


def group_audit(rng, slot, count):
    """Small-to-medium group instances for the growth audit."""
    n = _schedule(4, 24, slot, count)
    m = max(1, int(round(n * (0.5 + (slot % 4) * 0.25))))
    groups = _partition(rng, n)
    phi = rng.standard_normal((m, n)) / math.sqrt(m)
    b, mu = _planted_group(rng, phi, groups, rng.uniform(0.2, 0.7))
    return "group", _group_doc(phi, b, mu, groups), False


def _planted_nuclear(rng, phi, n1, n2, ratio):
    k = min(n1, n2)
    r = int(rng.integers(1, k + 1))
    x = rng.standard_normal((n1, r)) @ rng.standard_normal((r, n2))
    b = phi @ x.ravel() + 0.3 * rng.standard_normal(phi.shape[0])
    return b / _nuclear_lam_max(phi, b, n1, n2), ratio


def nuclear_small(rng, slot, count):
    """Acceptance-bank sizes: 2x2 to 3x3 unknowns, 2..n+1 rows."""
    n1 = 2 + slot % 2
    n2 = 2 + (slot // 2) % 2
    n = n1 * n2
    m = 2 + (slot * 3) % n
    phi = rng.standard_normal((m, n)) / math.sqrt(m)
    b, mu = _planted_nuclear(rng, phi, n1, n2, rng.uniform(0.2, 0.7))
    return "nuclear", _nuclear_doc(phi, b, mu, n1, n2), False


def nuclear_wide(rng, slot, count):
    """Up to 10 x 10 unknowns on a well-conditioned square design."""
    n1 = _schedule(5, 10, slot, count)
    n2 = _schedule(5, 10, (slot * 7) % count, count)
    n = n1 * n2
    phi = _spectral_design(rng, n, n, 0.3)
    b, mu = _planted_nuclear(rng, phi, n1, n2, rng.uniform(0.2, 0.5))
    return "nuclear", _nuclear_doc(phi, b, mu, n1, n2), False


def nuclear_degenerate(rng, slot, count):
    """Design blind to a traceless direction of the dual unit block."""
    n = 2 + slot % 2
    u = _orthogonal(rng, n)
    v = _orthogonal(rng, n)
    s = np.zeros((n, n))
    s[0, 0], s[1, 1] = 1.0, -1.0
    kernel = (u @ s @ v.T).ravel() / math.sqrt(2.0)
    basis = np.linalg.qr(
        np.column_stack([kernel, rng.standard_normal((n * n, n * n - 1))])
    )[0]
    phi = basis[:, 1:].T
    mu = float(rng.uniform(0.5, 1.5))
    xbar = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.T
    b = phi @ xbar.ravel() + mu * (phi @ (u @ v.T).ravel())
    return "nuclear", _nuclear_doc(phi, b, mu, n, n), True


def nuclear_audit(rng, slot, count):
    """Small-to-medium nuclear instances for the growth audit."""
    n1 = _schedule(2, 5, slot, count)
    n2 = _schedule(2, 5, (slot * 3) % count, count)
    n = n1 * n2
    m = max(2, int(round(n * (0.75 + (slot % 3) * 0.25))))
    phi = rng.standard_normal((m, n)) / math.sqrt(m)
    b, mu = _planted_nuclear(rng, phi, n1, n2, rng.uniform(0.2, 0.7))
    return "nuclear", _nuclear_doc(phi, b, mu, n1, n2), False


# ---------------------------------------------------------------------------
# workloads

# Shares are chosen so that no family boundary sits at a command's p50 or
# p90: the wide family is ~1/6 of certify and audit ops, so their p90 falls
# inside it.  Wide and degenerate instances stay off the multistart probes:
# wide ones would dominate the pass, and tilts on a non-unique solution
# converge sublinearly (seconds per op).  Audit-workload probes use one
# sample, so the audits themselves carry most of that workload's time.
WORKLOADS: dict[str, tuple[tuple[Family, ...], int]] = {
    "group-bank": (
        (
            Family("small", group_small, 360, COMMANDS),
            Family("degenerate", group_degenerate, 90, NO_MULTISTART),
            Family("wide", group_wide, 100, NO_MULTISTART, (100, 100)),
        ),
        44,
    ),
    "nuclear-bank": (
        (
            Family("small", nuclear_small, 300, COMMANDS),
            Family("degenerate", nuclear_degenerate, 75, NO_MULTISTART),
            Family("wide", nuclear_wide, 85, NO_MULTISTART, (100, 100)),
        ),
        38,
    ),
    "audit": (
        (
            Family("group", group_audit, 120, COMMANDS, (250, 1000), 1),
            Family("nuclear", nuclear_audit, 180, COMMANDS, (250, 1000), 1),
        ),
        0,
    ),
}


def _audit_schedule(lo: int, hi: int, slot: int, count: int) -> int:
    """Log-spaced sample counts in ``[lo, hi]``, one per slot."""
    if lo == hi:
        return lo
    return int(round(lo * (hi / lo) ** ((slot + 0.5) / count)))


def build(workload: str, seed: int, shrink: int = 1) -> list[Instance]:
    """Instances of ``workload`` for ``seed``, in pass order.

    ``shrink`` divides every family count (at least one instance each); it
    exists for the benchmark's own smoke tests.
    """
    families, scale_originals = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    keyed = []
    for order, fam in enumerate(families):
        count = max(1, fam.count // shrink)
        slots = rng.permutation(count)
        samples = rng.permutation(
            [_audit_schedule(*fam.audit_samples, s, count) for s in range(count)]
        )
        for k in range(count):
            kind, problem, degenerate = fam.make(rng, int(slots[k]), count)
            inst = Instance(
                iid=f"{fam.name}-{k:03d}",
                family=fam.name,
                kind=kind,
                problem=problem,
                commands=fam.commands,
                audit_samples=int(samples[k]),
                probe_samples=fam.probe_samples,
                op_seed=int(rng.integers(0, 2**31)),
                degenerate=degenerate,
            )
            keyed.append(((k + 0.5) / count, order, inst))
    # Scale copies of small instances spread over the pass, certify only;
    # each sorts right after its original so that verdict is known first.
    small = [t for t in keyed if t[2].family == "small"]
    wanted = max(1, scale_originals // shrink) if scale_originals else 0
    originals = small[:: max(1, len(small) // max(wanted, 1))][:wanted]
    for key, order, orig in originals:
        for j, c in enumerate(SCALE_FACTORS):
            copy = Instance(
                iid=f"scale-{orig.iid}-{'down' if c < 1 else 'up'}",
                family="scale",
                kind=orig.kind,
                problem=scaled_copy(orig.problem, c),
                commands=("certify",),
                audit_samples=0,
                probe_samples=0,
                op_seed=orig.op_seed,
                origin=orig.iid,
                scale=c,
            )
            keyed.append((key, order + 0.5 + j * 0.1, copy))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [t[2] for t in keyed]
