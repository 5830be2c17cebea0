"""Metric definitions and their computation from timings and spans.

Every metric the benchmark can report is listed in :data:`END_TO_END` or
:data:`PER_LAYER` with its unit and better direction; ``BENCHMARK.json``
selects the ones a run prints on its result line.
"""

from __future__ import annotations

import math

import numpy as np

from spans import ROOT, inclusive, inside, self_times

END_TO_END = {
    "setup_s": ("s", "lower"),
    "certify_ms_p50": ("ms", "lower"),
    "certify_ms_p90": ("ms", "lower"),
    "tilt_ms_p50": ("ms", "lower"),
    "tilt_ms_p90": ("ms", "lower"),
    "perturb_ms_p50": ("ms", "lower"),
    "perturb_ms_p90": ("ms", "lower"),
    "audit_ms_p50": ("ms", "lower"),
    "audit_ms_p90": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "fail_frac": ("frac", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "cli.parse_us": ("us", "lower"),
    "cli.serialize_us": ("us", "lower"),
    "cli.self_share": ("frac", "lower"),
    "solver.solves": ("count", "lower"),
    "solver.iters_per_solve": ("iter", "lower"),
    "solver.converged_frac": ("frac", "higher"),
    "solver.us_per_iter": ("us", "lower"),
    "solver.self_share": ("frac", "lower"),
    "solver.prox_per_iter": ("1/iter", "lower"),
    "solver.value_per_iter": ("1/iter", "lower"),
    "solver.setup_svd_per_solve": ("count", "lower"),
    "groupnorm.prox_calls": ("count", "lower"),
    "groupnorm.prox_us": ("us", "lower"),
    "groupnorm.value_calls": ("count", "lower"),
    "groupnorm.value_us": ("us", "lower"),
    "groupnorm.distance_us": ("us", "lower"),
    "groupnorm.classify_us": ("us", "lower"),
    "groupnorm.self_share": ("frac", "lower"),
    "nuclear.prox_calls": ("count", "lower"),
    "nuclear.prox_us": ("us", "lower"),
    "nuclear.value_us": ("us", "lower"),
    "nuclear.distance_us": ("us", "lower"),
    "nuclear.self_share": ("frac", "lower"),
    "nuclear.simsvd_calls": ("count", "lower"),
    "nuclear.simsvd_us": ("us", "lower"),
    "nuclear.simsvd_svds": ("count", "lower"),
    "nuclear.svd_per_simsvd": ("count", "lower"),
    "linalg.restricted_min_singular_us": ("us", "lower"),
    "linalg.orthonormalize_us": ("us", "lower"),
    "linalg.orthonormalize_calls": ("count", "lower"),
    "linalg.psd_project_calls": ("count", "lower"),
    "linalg.self_share": ("frac", "lower"),
    "stability.certify_us": ("us", "lower"),
    "stability.svd_per_certify": ("count", "lower"),
    "stability.snap_us": ("us", "lower"),
    "stability.audit_us_per_sample": ("us", "lower"),
    "stability.audit_used_frac": ("frac", "higher"),
    "stability.probe_solves_per_op": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

SOLVE = "solver.prox_gradient_solve"
PROX = ("groupnorm.prox_group", "nuclear.prox_nuclear")
VALUE = ("groupnorm.group_norm", "nuclear.nuclear_norm")
PROBES = ("stability.tilt_probe", "stability.empirical_lipschitz")

# Functions each per-layer metric reads; a metric whose function no longer
# exists is reported as absent.
NEEDS = {
    "cli.parse_us": ("cli.parse_problem",),
    "cli.serialize_us": ("cli.dumps_canonical",),
    "solver.solves": (SOLVE,),
    "solver.iters_per_solve": (SOLVE,),
    "solver.converged_frac": (SOLVE,),
    "solver.us_per_iter": (SOLVE,),
    "solver.prox_per_iter": (SOLVE,) + PROX,
    "solver.value_per_iter": (SOLVE,) + VALUE,
    "solver.setup_svd_per_solve": (SOLVE,),
    "groupnorm.prox_calls": ("groupnorm.prox_group",),
    "groupnorm.prox_us": ("groupnorm.prox_group",),
    "groupnorm.value_calls": ("groupnorm.group_norm",),
    "groupnorm.value_us": ("groupnorm.group_norm",),
    "groupnorm.distance_us": ("groupnorm.inverse_subdiff_distance",),
    "groupnorm.classify_us": ("groupnorm.classify_groups",),
    "nuclear.prox_calls": ("nuclear.prox_nuclear",),
    "nuclear.prox_us": ("nuclear.prox_nuclear",),
    "nuclear.value_us": ("nuclear.nuclear_norm",),
    "nuclear.distance_us": ("nuclear.inverse_subdiff_distance",),
    "nuclear.simsvd_calls": ("nuclear.simultaneous_svd",),
    "nuclear.simsvd_us": ("nuclear.simultaneous_svd",),
    "nuclear.simsvd_svds": ("nuclear.simultaneous_svd",),
    "nuclear.svd_per_simsvd": ("nuclear.simultaneous_svd",),
    "linalg.restricted_min_singular_us": ("linalg.restricted_min_singular",),
    "linalg.orthonormalize_us": ("linalg.orthonormalize",),
    "linalg.orthonormalize_calls": ("linalg.orthonormalize",),
    "linalg.psd_project_calls": ("linalg.psd_project",),
    "stability.certify_us": ("stability.certify",),
    "stability.svd_per_certify": ("stability.certify",),
    "stability.snap_us": ("stability.snap_to_graph",),
    "stability.audit_us_per_sample": ("stability.qg_audit",),
    "stability.audit_used_frac": ("stability.qg_audit",),
    "stability.probe_solves_per_op": (SOLVE,) + PROBES,
}

EXPECTED_FUNCTIONS = sorted({f for fs in NEEDS.values() for f in fs})


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` unless at least ten
    samples lie beyond it (a p90 needs 100 samples, a p50 needs 20)."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < 10:
        return None
    return float(sorted(values)[max(rank, 1) - 1])


def end_to_end(latencies: dict, passed: int, attempted: int, op_seconds: float) -> dict:
    """Latency percentiles per command plus throughput and failures.

    Returns ``name -> (value, samples)``; a percentile without enough
    samples beyond it is left out.
    """
    out = {}
    for command, values in latencies.items():
        ms = [1e3 * v for v in values]
        for tag, q in (("p50", 0.5), ("p90", 0.9)):
            value = percentile(ms, q)
            if value is not None:
                out[f"{command}_ms_{tag}"] = (value, len(ms))
    out["ops_per_s"] = (passed / op_seconds, passed)
    out["fail_frac"] = ((attempted - passed) / attempted, attempted)
    return out


def _share(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def per_layer(tracer) -> tuple[dict, dict]:
    """Per-layer metrics and exact counters of one traced pass.

    Returns ``(metrics, counters)``.  A metric is ``None`` when a function
    it reads is gone or was never called.  ``counters`` holds only exact
    integers: call counts per function, SVD and ``eigh`` totals, solver
    iterations and converged solves.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    self_t = self_times(parent, a["start"], a["end"])
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(fn):
        return name == ids[fn] if fn in ids else np.zeros(name.size, dtype=bool)

    def mean_us(fn):
        m = sel(fn)
        return float(dur[m].mean() * 1e6) if m.any() else None

    def calls(*fns):
        return int(sum(int(sel(f).sum()) for f in fns))

    layer_of = np.array([n.split(".")[0] for n in tracer.names] or [""], dtype=object)
    span_layer = layer_of[name] if name.size else np.array([], dtype=object)
    total = float(dur[sel(ROOT)].sum())

    def self_share(layer):
        return _share(float(self_t[span_layer == layer].sum()), total)

    solve_idx = np.flatnonzero(sel(SOLVE))
    iters = sum(tracer.info[i][0] for i in solve_idx.tolist())
    converged = sum(bool(tracer.info[i][1]) for i in solve_idx.tolist())
    solves = int(solve_idx.size)
    in_solve = inside(parent, name, [ids[SOLVE]] if SOLVE in ids else [])
    in_probe = inside(parent, name, [ids[p] for p in PROBES if p in ids])
    svd_incl = inclusive(parent, a["svd"])
    audit_idx = np.flatnonzero(sel("stability.qg_audit")).tolist()
    audit_samples = sum(tracer.info[i][0] for i in audit_idx)
    audit_used = sum(tracer.info[i][1] for i in audit_idx)
    simsvd = sel("nuclear.simultaneous_svd")
    certify = sel("stability.certify")
    probe_calls = calls(*PROBES)

    m = {
        "cli.parse_us": mean_us("cli.parse_problem"),
        "cli.serialize_us": mean_us("cli.dumps_canonical"),
        "cli.self_share": self_share("cli"),
        "solver.solves": solves,
        "solver.iters_per_solve": _share(iters, solves),
        "solver.converged_frac": _share(converged, solves),
        "solver.us_per_iter": _share(float(dur[solve_idx].sum() * 1e6), iters),
        "solver.self_share": self_share("solver"),
        "solver.prox_per_iter": _share(
            sum(int((sel(f) & in_solve).sum()) for f in PROX), iters
        ),
        "solver.value_per_iter": _share(
            sum(int((sel(f) & in_solve).sum()) for f in VALUE), iters
        ),
        "solver.setup_svd_per_solve": _share(int(a["svd"][solve_idx].sum()), solves),
        "groupnorm.prox_calls": calls("groupnorm.prox_group"),
        "groupnorm.prox_us": mean_us("groupnorm.prox_group"),
        "groupnorm.value_calls": calls("groupnorm.group_norm"),
        "groupnorm.value_us": mean_us("groupnorm.group_norm"),
        "groupnorm.distance_us": mean_us("groupnorm.inverse_subdiff_distance"),
        "groupnorm.classify_us": mean_us("groupnorm.classify_groups"),
        "groupnorm.self_share": self_share("groupnorm"),
        "nuclear.prox_calls": calls("nuclear.prox_nuclear"),
        "nuclear.prox_us": mean_us("nuclear.prox_nuclear"),
        "nuclear.value_us": mean_us("nuclear.nuclear_norm"),
        "nuclear.distance_us": mean_us("nuclear.inverse_subdiff_distance"),
        "nuclear.self_share": self_share("nuclear"),
        "nuclear.simsvd_calls": int(simsvd.sum()),
        "nuclear.simsvd_us": mean_us("nuclear.simultaneous_svd"),
        "nuclear.simsvd_svds": int(svd_incl[simsvd].sum()),
        "nuclear.svd_per_simsvd": _share(int(svd_incl[simsvd].sum()), int(simsvd.sum())),
        "linalg.restricted_min_singular_us": mean_us("linalg.restricted_min_singular"),
        "linalg.orthonormalize_us": mean_us("linalg.orthonormalize"),
        "linalg.orthonormalize_calls": calls("linalg.orthonormalize"),
        "linalg.psd_project_calls": calls("linalg.psd_project"),
        "linalg.self_share": self_share("linalg"),
        "stability.certify_us": mean_us("stability.certify"),
        "stability.svd_per_certify": _share(int(svd_incl[certify].sum()), int(certify.sum())),
        "stability.snap_us": mean_us("stability.snap_to_graph"),
        "stability.audit_us_per_sample": _share(
            float(dur[audit_idx].sum() * 1e6), audit_samples
        ),
        "stability.audit_used_frac": _share(audit_used, audit_samples),
        "stability.probe_solves_per_op": _share(
            int((sel(SOLVE) & in_probe).sum()), probe_calls
        ),
    }
    missing = set(tracer.missing)
    for key, fns in NEEDS.items():
        if missing.intersection(fns):
            m[key] = None
    counters = {
        "calls": {n: calls(n) for n in sorted(ids)},
        "svd": int(a["svd"].sum()),
        "eigh": int(a["eigh"].sum()),
        "iterations": int(iters),
        "converged": int(converged),
    }
    return m, counters
