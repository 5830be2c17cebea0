"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each check prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite is green exactly when every
criterion passes.
"""

import time
from typing import NamedTuple

import numpy as np

from helpers import (
    degenerate_group_instance,
    degenerate_nuclear_instance,
    group_ray_distance_oracle,
    is_subgradient_nuclear,
    mutual_projection_residual,
    nuclear_cone_distance_oracle,
    p_count,
    random_group_graph_pair,
    random_group_instance,
    random_nuclear_graph_pair,
    random_nuclear_instance,
    random_orthogonal,
    random_partition,
    solution_spread,
)
from stabcert.errors import StabcertError
from stabcert.groupnorm import (
    GroupPartition,
    block_norms,
    classify_groups,
    inverse_subdiff_distance,
    relative_approx_group,
    subgrad_residual,
)
from stabcert.nuclear import (
    NuclearShape,
    inverse_subdiff_distance as nuclear_distance,
    nuclear_norm,
    relative_approx_nuclear,
    simultaneous_svd,
    tangent_subspace_basis,
)
from stabcert.solver import (
    ProblemSpec,
    multistart_solve,
    prox_gradient_solve,
)
from stabcert.stability import (
    certify,
    qg_audit,
    second_quotient_probe,
    snap_to_graph,
    tilt_probe,
)

PHI = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
PAIRS = GroupPartition(3, ((0, 1), (2,)))


def _verdict(num: int, name: str, failures: list, detail: str) -> None:
    ok = not failures
    extra = "" if ok else " | " + "; ".join(failures[:4])
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}{extra}")
    assert ok, f"criterion {num} ({name}): {failures}"


# ---------------------------------------------------------------------------
# shared instance bank for criteria 6 and 7


class BankEntry(NamedTuple):
    kind: str
    spec: ProblemSpec
    x: np.ndarray
    spread: float
    cert: object


_BANK: list | None = None


def instance_bank() -> list:
    """100 group + 50 nuclear instances with multistart spreads and certificates.

    Both families mix generic random designs with deliberately rank-deficient
    ones (duplicated columns, annihilated traceless directions) so that the
    scatter branch of the coherence check is exercised, not vacuous.
    """
    global _BANK
    if _BANK is not None:
        return _BANK
    rng = np.random.default_rng(2026)
    entries = []

    def build(spec, kind):
        res = prox_gradient_solve(spec)
        starts = [np.zeros(spec.n)] + [
            rng.standard_normal(spec.n) * (1.0 + np.linalg.norm(res.x))
            for _ in range(4)
        ]
        spread = solution_spread(multistart_solve(spec, starts))
        xs, _, _ = snap_to_graph(spec.reg, res.x, res.y)
        cert = certify(spec, np.asarray(xs, dtype=float).ravel())
        entries.append(BankEntry(kind, spec, res.x, spread, cert))

    for _ in range(90):
        build(random_group_instance(rng), "group")
    for _ in range(10):
        build(degenerate_group_instance(rng)[0], "group")
    for _ in range(45):
        build(random_nuclear_instance(rng), "nuclear")
    for _ in range(5):
        build(degenerate_nuclear_instance(rng)[0], "nuclear")
    _BANK = entries
    return entries


def test_criterion_1_reference_instance_reproduction():
    t0 = time.perf_counter()
    failures = []
    spec = ProblemSpec(PHI, np.array([2.0, -1.0]), 1.0, PAIRS)
    res = prox_gradient_solve(spec)
    if np.linalg.norm(res.x - np.array([0.0, 1.0, 0.0])) > 1e-6:
        failures.append(f"solution off target: {res.x}")
    cert = certify(spec, res.x)
    if not cert.holds:
        failures.append("certificate does not hold")
    if abs(cert.margin - 1.0) > 1e-6:
        failures.append(f"margin {cert.margin} not 1.0 +- 1e-6")
    span = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mpr = mutual_projection_residual(cert.classification.v_basis, span)
    if mpr > 1e-8:
        failures.append(f"subspace span residual {mpr:.2e}")

    grid = (-1.4, -1.2, -1.0, -0.8)
    xs = {}
    for b2 in grid:
        g = prox_gradient_solve(ProblemSpec(PHI, np.array([2.0, b2]), 1.0, PAIRS))
        xs[b2] = g.x
        target = max(-b2 - 1.0, 0.0)
        if abs(g.x[2] - target) > 1e-6:
            failures.append(f"x3({b2}) = {g.x[2]}, want {target}")
    ratios = [
        float(np.linalg.norm(xs[b] - xs[a])) / (b - a)
        for a, b in zip(grid, grid[1:])
    ]
    if not 0.99 <= max(ratios) <= 1.01:
        failures.append(f"grid Lipschitz ratio {max(ratios)}")

    elapsed = time.perf_counter() - t0
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.1f}s > 5s")
    _verdict(
        1,
        "reference instance",
        failures,
        f"margin {cert.margin:.9f}, grid ratio {max(ratios):.9f}, {elapsed:.2f}s",
    )


def test_criterion_2_group_quadratic_growth_audit():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1002)
    min_slack = np.inf
    drawn = 0
    for _ in range(1000):
        part = random_partition(rng, int(rng.integers(1, 11)))
        xbar, ybar = random_group_graph_pair(rng, part)
        rep = qg_audit(
            part,
            xbar,
            ybar,
            samples=10,
            radius=float(rng.uniform(0.5, 4.0)),
            seed=int(rng.integers(2**31)),
        )
        drawn += rep.samples
        min_slack = min(min_slack, rep.min_slack)
    if drawn != 10000:
        failures.append(f"drew {drawn} samples, want 10000")
    if min_slack < -1e-9:
        failures.append(f"min slack {min_slack:.3e} < -1e-9")
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    _verdict(
        2,
        "group growth audit",
        failures,
        f"min slack {min_slack:.3e} over {drawn} samples, {elapsed:.1f}s",
    )


def test_criterion_3_nuclear_quadratic_growth_audit():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1003)
    min_slack = np.inf
    drawn = 0
    for _ in range(500):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        xbar, ybar = random_nuclear_graph_pair(rng, n1, n2)
        rep = qg_audit(
            NuclearShape(n1, n2),
            xbar,
            ybar,
            samples=20,
            radius=float(rng.uniform(0.5, 3.0)),
            seed=int(rng.integers(2**31)),
        )
        drawn += rep.samples
        # min over both tracked constants
        min_slack = min(min_slack, rep.min_slack)
    if drawn != 10000:
        failures.append(f"drew {drawn} samples, want 10000")
    if min_slack < -1e-9:
        failures.append(f"min slack {min_slack:.3e} < -1e-9")
    elapsed = time.perf_counter() - t0
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    _verdict(
        3,
        "nuclear growth audit",
        failures,
        f"min slack {min_slack:.3e} over {drawn} samples (both constants), {elapsed:.1f}s",
    )


def test_criterion_4_distance_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(1004)
    worst_group = 0.0
    for _ in range(500):
        part = random_partition(rng, int(rng.integers(1, 5)))
        xg, ybar = random_group_graph_pair(rng, part)
        x = rng.standard_normal(part.n) * float(rng.uniform(0.2, 3.0))
        fast = inverse_subdiff_distance(x, classify_groups(xg, ybar, part))
        slow = group_ray_distance_oracle(x, ybar, part, iters=400)
        worst_group = max(worst_group, abs(fast - slow))
    if worst_group > 1e-6:
        failures.append(f"group oracle gap {worst_group:.3e}")

    worst_nuclear = 0.0
    for _ in range(500):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        xg, yg = random_nuclear_graph_pair(rng, n1, n2)
        dec = simultaneous_svd(xg, yg)
        a = rng.standard_normal((n1, n2)) * float(rng.uniform(0.2, 3.0))
        fast = nuclear_distance(a, dec)
        slow = nuclear_cone_distance_oracle(a, dec, iters=150)
        worst_nuclear = max(worst_nuclear, abs(fast - slow))
    if worst_nuclear > 1e-6:
        failures.append(f"nuclear oracle gap {worst_nuclear:.3e}")
    _verdict(
        4,
        "distance oracles",
        failures,
        f"max gap group {worst_group:.2e}, nuclear {worst_nuclear:.2e}, 500+500 instances",
    )


def test_criterion_5_relative_approximation_identities():
    failures = []
    rng = np.random.default_rng(1005)

    worst_identity = worst_member = worst_sub = 0.0
    count = 0
    while count < 500:
        part = random_partition(rng, int(rng.integers(2, 9)))
        x, y = random_group_graph_pair(rng, part, p_active=0.4, p_boundary=0.8)
        info = classify_groups(x, y, part)
        shrinkable = [j for j in info.K if j not in info.I]
        if not shrinkable:
            continue
        y2 = y.copy()
        for pos, j in enumerate(shrinkable):
            if pos == 0 or rng.random() < 0.5:
                y2[part.index_arrays[j]] *= float(rng.uniform(0.3, 0.95))
        lam, yhat, ytilde = relative_approx_group(x, y2, part, info.K)
        worst_identity = max(
            worst_identity,
            float(np.linalg.norm(lam * yhat + (1 - lam) * ytilde - y2)),
        )
        norms = block_norms(yhat, part)
        worst_member = max(worst_member, max(abs(norms[j] - 1.0) for j in info.K))
        worst_sub = max(worst_sub, subgrad_residual(x, yhat, part))
        worst_sub = max(worst_sub, subgrad_residual(x, ytilde, part))
        count += 1
    if worst_identity > 1e-10:
        failures.append(f"group identity residual {worst_identity:.3e}")
    if worst_member > 1e-8:
        failures.append(f"group membership residual {worst_member:.3e}")
    if worst_sub > 1e-8:
        failures.append(f"group subgradient residual {worst_sub:.3e}")
    g_detail = (
        f"group id {worst_identity:.1e}/mem {worst_member:.1e}/sub {worst_sub:.1e}"
    )

    worst_identity = worst_sub = 0.0
    member_bad = 0
    count = 0
    while count < 500:
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        k = min(n1, n2)
        p_ref = int(rng.integers(1, k + 1))
        q = int(rng.integers(0, p_ref))
        r = int(rng.integers(0, q + 1))
        u = random_orthogonal(rng, n1)
        v = random_orthogonal(rng, n2)
        sig = np.sort(rng.uniform(0.3, 3.0, r))[::-1]
        shrunk = np.sort(rng.uniform(0.955, 0.995, p_ref - q))[::-1]
        tail = np.sort(rng.uniform(0.0, 0.95, k - p_ref))[::-1]
        dy = np.concatenate([np.ones(q), shrunk, tail])
        x = (u[:, :r] * sig) @ v[:, :r].T if r else np.zeros((n1, n2))
        y = (u[:, :k] * dy) @ v[:, :k].T
        lam, yhat, ytilde = relative_approx_nuclear(x, y, p_ref)
        worst_identity = max(
            worst_identity,
            float(np.linalg.norm(lam * yhat + (1 - lam) * ytilde - y)),
        )
        if p_count(yhat) != p_ref or p_count(ytilde) != q:
            member_bad += 1
        for cand in (yhat, ytilde):
            chk = is_subgradient_nuclear(x, cand, tol=1e-8)
            if not chk.ok:
                worst_sub = max(worst_sub, chk.spectral_gap, chk.fenchel_gap)
        count += 1
    if worst_identity > 1e-10:
        failures.append(f"nuclear identity residual {worst_identity:.3e}")
    if member_bad:
        failures.append(f"{member_bad} nuclear unit-count mismatches")
    if worst_sub > 0.0:
        failures.append(f"nuclear subgradient residual {worst_sub:.3e}")
    _verdict(
        5,
        "relative approximations",
        failures,
        g_detail + f"; nuclear id {worst_identity:.1e}, 500+500 instances",
    )


def test_criterion_6_certificate_empirics_coherence():
    t0 = time.perf_counter()
    failures = []
    bank = instance_bank()
    certified = scattered = 0
    for entry in bank:
        cert = entry.cert
        margin_ok = cert.holds and np.isfinite(cert.margin) and cert.margin >= 0.1
        if margin_ok:
            certified += 1
            rep = tilt_probe(
                entry.spec, entry.x, radius_v=1e-4, samples=8, seed=11, starts=3
            )
            if rep.multivaluedness_spread > 1e-6:
                failures.append(
                    f"{entry.kind} certified but tilt spread {rep.multivaluedness_spread:.2e}"
                )
            if entry.kind == "group":
                bound = 10.0 * entry.spec.mu / cert.margin**2
            else:
                # nuclear growth modulus enters the tilt bound alongside the margin
                xn = nuclear_norm(entry.spec.reg.as_matrix(entry.x))
                g = cert.gamma
                inv_growth = (
                    2.0 * xn * (1.0 + (1.0 + g) ** 2) / (1.0 - g * g) if xn > 0 else 0.0
                )
                bound = 10.0 * (entry.spec.mu / cert.margin**2 + inv_growth)
            if rep.max_ratio > bound:
                failures.append(
                    f"{entry.kind} tilt ratio {rep.max_ratio:.2f} above bound {bound:.2f}"
                )
        if entry.spread >= 1e-3:
            scattered += 1
            if cert.holds:
                failures.append(
                    f"{entry.kind} scattered (spread {entry.spread:.2e}) yet certified"
                )
    if certified < 20:
        failures.append(f"only {certified} certified instances, sweep too weak")
    if scattered < 10:
        failures.append(f"only {scattered} scattered instances, sweep too weak")
    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.0f}s > 300s")
    _verdict(
        6,
        "certificate coherence",
        failures,
        f"{certified} certified / {scattered} scattered over 150 instances, "
        f"0 contradictions required, {elapsed:.1f}s",
    )


def test_criterion_7_second_order_quotient_probes():
    failures = []
    bank = instance_bank()
    eligible = [
        e
        for e in bank
        if e.cert.holds and np.isfinite(e.cert.margin) and e.cert.margin >= 0.1
    ]
    chosen = [e for e in eligible if e.kind == "group"][:12]
    chosen += [e for e in eligible if e.kind == "nuclear"][:8]
    if len(chosen) != 20:
        failures.append(f"only {len(chosen)} certified instances available")
    rng = np.random.default_rng(1007)
    t_grid = (1e-2, 1e-3, 1e-4)
    min_excess = np.inf
    for entry in chosen:
        if entry.kind == "group":
            basis = entry.cert.classification.v_basis
        else:
            basis = tangent_subspace_basis(entry.cert.classification)
        d = basis.shape[1]
        floor = 0.5 * entry.cert.margin**2 / entry.spec.mu
        for _ in range(50):
            c = rng.standard_normal(d)
            c /= np.linalg.norm(c)
            w = basis @ c
            for t in t_grid:
                q = second_quotient_probe(entry.spec, entry.x, np.zeros(entry.spec.n), w, t)
                min_excess = min(min_excess, q - floor)
                if q < floor:
                    failures.append(
                        f"{entry.kind} quotient {q:.3e} below floor {floor:.3e} at t={t}"
                    )
    # five constructed failures: flat directions must show no quadratic growth
    rng2 = np.random.default_rng(1077)
    flat_instances = [degenerate_group_instance(rng2) for _ in range(3)]
    flat_instances += [degenerate_nuclear_instance(rng2) for _ in range(2)]
    worst_flat = 0.0
    for spec, xbar in flat_instances:
        xvec = np.asarray(xbar, dtype=float).ravel()
        cert = certify(spec, xvec)
        if cert.holds or cert.witness is None:
            failures.append("constructed degenerate instance unexpectedly certified")
            continue
        for t in t_grid:
            q = second_quotient_probe(spec, xvec, np.zeros(spec.n), cert.witness, t)
            worst_flat = max(worst_flat, abs(q) / t)
            if abs(q) > 10.0 * t:
                failures.append(f"witness quotient {q:.3e} not flat at t={t}")
    _verdict(
        7,
        "second-order probes",
        failures,
        f"20 certified x 50 directions x 3 steps, min excess {min_excess:.3e}; "
        f"5 witnesses, max |quotient|/t {worst_flat:.2e}",
    )


def test_criterion_8_simultaneous_svd_contract():
    failures = []
    rng = np.random.default_rng(1008)
    worst_rx = worst_ry = 0.0
    count_mismatch = 0
    for _ in range(500):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 11))
        x, y = random_nuclear_graph_pair(rng, n1, n2)
        dec = simultaneous_svd(x, y)
        scale_x = 1.0 + np.linalg.norm(x)
        scale_y = 1.0 + np.linalg.norm(y)
        worst_rx = max(worst_rx, float(np.linalg.norm(dec.reconstruct_x() - x)) / scale_x)
        worst_ry = max(worst_ry, float(np.linalg.norm(dec.reconstruct_y() - y)) / scale_y)
        sx = np.linalg.svd(x, compute_uv=False)
        sy = np.linalg.svd(y, compute_uv=False)
        r_direct = int(np.sum(sx > 1e-9 * max(sx[0], 1e-300)))
        p_direct = int(np.sum(sy >= 1.0 - 1e-7))
        if dec.r != r_direct or dec.p != p_direct:
            count_mismatch += 1
    if worst_rx > 1e-8:
        failures.append(f"x reconstruction residual {worst_rx:.3e}")
    if worst_ry > 1e-8:
        failures.append(f"y reconstruction residual {worst_ry:.3e}")
    if count_mismatch:
        failures.append(f"{count_mismatch} rank/unit-count mismatches")
    _verdict(
        8,
        "simultaneous factorization",
        failures,
        f"500 pairs up to 8x10, residuals x {worst_rx:.1e} / y {worst_ry:.1e}",
    )
