"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# ---------------------------------------------------------------------------
# percentile rule


def test_percentile_needs_ten_samples_beyond():
    assert metrics.percentile(list(range(99)), 0.9) is None
    assert metrics.percentile(list(range(100)), 0.9) == 89.0
    assert metrics.percentile(list(range(19)), 0.5) is None
    assert metrics.percentile(list(range(20)), 0.5) == 9.0
    assert metrics.percentile([], 0.5) is None


def test_end_to_end_leaves_out_thin_percentiles():
    out = metrics.end_to_end({"certify": [0.001] * 100, "tilt": [0.002] * 50}, 140, 150, 2.0)
    assert out["certify_ms_p90"] == (1.0, 100)
    assert "tilt_ms_p90" not in out
    assert out["tilt_ms_p50"] == (2.0, 50)
    assert out["ops_per_s"] == (70.0, 140)
    assert out["fail_frac"] == (10 / 150, 150)


# ---------------------------------------------------------------------------
# speed scaling


def test_gauge_scales_by_samples_near_the_interval():
    gauge = speed.Gauge()
    gauge.times = [0.0, 1.0, 1.2, 5.0]
    gauge.seconds = [1e-3, 2e-3, 4e-3, 1e-3]
    ref = speed.REFERENCE_S
    assert gauge.factor(1.0, 1.1) == pytest.approx(ref / 3e-3)
    assert gauge.factor(0.4, 0.45) == pytest.approx(ref / 1e-3)
    # no sample within the window: the nearest one
    assert gauge.factor(3.8, 3.9) == pytest.approx(ref / 1e-3)
    assert gauge.factor(2.0, 2.1) == pytest.approx(ref / 4e-3)


# ---------------------------------------------------------------------------
# span arithmetic


def _tree():
    #  0 root [0, 10]
    #  ├─ 1 a [1, 4]
    #  │   └─ 2 b [2, 3]
    #  └─ 3 a [5, 9]
    #      ├─ 4 b [5, 6]
    #      └─ 5 c [7, 8.5]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5])
    name = np.array([0, 1, 2, 1, 2, 3])
    return parent, start, end, name


def test_self_time_subtracts_children():
    parent, start, end, _ = _tree()
    got = spans.self_times(parent, start, end)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    # self times of a tree add up to the root's duration
    assert got.sum() == pytest.approx(10.0)


def test_inside_and_inclusive():
    parent, _, _, name = _tree()
    assert spans.inside(parent, name, [1]).tolist() == [False, False, True, False, True, True]
    own = np.array([1, 0, 2, 1, 3, 0])
    assert spans.inclusive(parent, own).tolist() == [7, 2, 2, 4, 3, 0]


# ---------------------------------------------------------------------------
# wrappers


def _snapshot():
    import stabcert  # noqa: F401
    import stabcert.cli  # noqa: F401

    names = {}
    for key, mod in list(sys.modules.items()):
        if key == "stabcert" or key.startswith("stabcert."):
            names.update({(key, a): v for a, v in vars(mod).items()})
    names.update({("numpy.linalg", a): getattr(np.linalg, a) for a in ("svd", "eigh")})
    return names


def test_install_wraps_every_namespace_and_restores():
    import stabcert
    from stabcert import cli, stability
    from stabcert.groupnorm import GroupPartition
    from stabcert.solver import ProblemSpec, prox_gradient_solve

    spec = ProblemSpec(
        np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]]),
        np.array([2.0, -1.0]),
        1.0,
        GroupPartition(3, ((0, 1), (2,))),
    )
    before = _snapshot()
    tracer = spans.Tracer()
    with spans.install(tracer, ["solver.prox_gradient_solve", "solver.gone"]):
        assert stabcert.certify is not before[("stabcert", "certify")]
        assert stabcert.certify is stability.certify
        assert cli.certify is stability.certify
        assert cli.parse_problem is not before[("stabcert.cli", "parse_problem")]
        with tracer.operation(0):
            res = prox_gradient_solve(spec)
            stabcert.certify(spec, res.x)
    assert tracer.missing == ["solver.gone"]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # prox_gradient_solve was imported by name here before install, so only
    # the package-level certify call was traced.
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == spans.ROOT
    assert "stability.certify" in names
    assert "groupnorm.classify_groups" in names
    assert "solver.prox_gradient_solve" not in names
    assert sum(tracer.svd) >= 1


def test_per_layer_reads_counters_off_spans():
    from stabcert import cli

    problem = workloads.group_small(np.random.default_rng(0), 3, 10)[1]
    tracer = spans.Tracer()
    with spans.install(tracer, metrics.EXPECTED_FUNCTIONS):
        with tracer.operation(0):
            spec, _ = cli.load_problem_dict(problem)
            res = sys.modules["stabcert.solver"].prox_gradient_solve(spec)
    m, counters = metrics.per_layer(tracer)
    assert m["solver.solves"] == 1
    assert counters["iterations"] == res.iterations
    assert m["solver.setup_svd_per_solve"] == 1
    assert m["nuclear.prox_calls"] == 0 and m["nuclear.prox_us"] is None
    assert counters["calls"]["groupnorm.prox_group"] == m["groupnorm.prox_calls"]


# ---------------------------------------------------------------------------
# inputs and checks


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_build_is_seeded(workload):
    a = workloads.build(workload, 5, shrink=20)
    b = workloads.build(workload, 5, shrink=20)
    c = workloads.build(workload, 6, shrink=20)
    assert [i.problem for i in a] == [i.problem for i in b]
    assert [i.problem for i in a] != [i.problem for i in c]
    seen = set()
    for inst in a:
        if inst.origin is not None:
            assert inst.origin in seen
        seen.add(inst.iid)


def _cert(holds, margin=1.0, witness=None, x=(1.0, 2.0)):
    return {
        "error": None,
        "certificate": {"holds": holds, "margin": margin, "witness": witness},
        "solve": {"x": list(x)},
    }


def _inst(**kw):
    base = dict(
        iid="i", family="small", kind="group", problem={}, commands=(),
        audit_samples=0, probe_samples=0, op_seed=0,
    )
    base.update(kw)
    return workloads.Instance(**base)


def test_checks_flag_wrong_answers_and_errors():
    deg = _inst(degenerate=True)
    assert checks.check(deg, "certify", _cert(True), {}).wrong
    assert checks.check(deg, "certify", _cert(False), {}).wrong
    assert checks.check(deg, "certify", _cert(False, 0.0, [1.0, 0.0]), {}) is None
    err = checks.check(_inst(), "certify", {"error": {"code": "NotASolutionError"}}, {})
    assert err == checks.Failure("error NotASolutionError", False)

    copy = _inst(iid="c", origin="o", scale=1e3)
    orig = _cert(True)
    assert checks.check(copy, "certify", _cert(True, x=(1e3, 2e3)), {"o": orig}) is None
    assert checks.check(copy, "certify", _cert(False, x=(1e3, 2e3)), {"o": orig}).wrong
    assert checks.check(copy, "certify", _cert(True, x=(1e3, 2.1e3)), {"o": orig}) == (
        checks.Failure("x / c off the original by 1.000e-01", False)
    )
    assert checks.check(copy, "certify", _cert(True, x=(1e3, None)), {"o": orig}).wrong

    tilt = {"error": None, "perturbation": {"max_ratio": 1.0, "multivaluedness_spread": 1e-3}}
    assert checks.check(_inst(), "tilt", tilt, {"i": _cert(True, 0.5)}).wrong
    assert checks.check(_inst(), "tilt", tilt, {"i": _cert(True, 0.05)}) is None
    assert checks.check(_inst(), "tilt", tilt, {"i": _cert(True, None)}) is None
    tilt["perturbation"]["multivaluedness_spread"] = None
    assert checks.check(_inst(), "tilt", tilt, {}).wrong
    audit = {"error": None, "audit": {"min_slack": -1.0, "passed": False}}
    assert checks.check(_inst(), "audit", audit, {}).wrong


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for entry in doc["end_to_end"]:
        assert metrics.END_TO_END[entry["name"]] == (entry["unit"], entry["better"])
    for entry in doc["per_layer"]:
        assert metrics.PER_LAYER[entry["name"]] == (entry["unit"], entry["better"])


# ---------------------------------------------------------------------------
# smoke runs


def _run(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_traced_twice(workload, tmp_path):
    details = []
    for i in range(2):
        out = tmp_path / str(i)
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", "1", "--shrink", "25", "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["metrics"]["solver.solves"]["unit"] == "count"
        details.append(json.loads((out / f"{workload}-s3-t1.json").read_text()))
        assert (out / f"spans-{workload}-s3.npz").is_file()
    assert details[0]["exact_digest"] == details[1]["exact_digest"]
    assert details[0]["failing_ops"] == details[1]["failing_ops"]
    assert "setup_s" in details[0]["end_to_end"]
    assert not (ROOT / ".bench_work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "audit", "--seed", "0", "--seconds", "1",
                "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
