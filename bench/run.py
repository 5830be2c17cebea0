"""stabcert benchmark: one closed-loop client issuing CLI commands in-process.

Usage (from the repository root)::

    python3 bench/run.py --workload group-bank --seed 0 --seconds 30 --trace 0

The run pins the BLAS to one thread, imports ``stabcert`` from ``src/``,
writes the seeded instance bank as problem files, and then calls
``stabcert.cli.run(argv)`` back to back with stdout captured: certify,
tilt-probe, perturb and qg-audit for instance *i*, then for *i + 1*.  One
whole pass over the bank runs first, then more until ``--seconds`` are up;
families are interleaved along a pass, so a pass cut at the deadline keeps
the mix.  Each call is timed from outside, scaled to a reference machine
speed (``speed.py``), and its report is checked.

With ``--trace 1`` one untraced pass runs, then two traced passes, over
the leading third of the bank; the per-layer metrics come from the traced
passes, whose exact counters must agree.  Details (environment, sample counts, failing op ids, exact
counters) go to ``.bench_out/``; the last line of stdout is the result.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Before numpy loads: a plain single-threaded baseline whose reduction
# order, and so iteration and call counts, repeat exactly.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
STARTS = 2
# A traced run covers this leading share of a pass (families are
# interleaved along it), so that its three passes fit the time limit.
TRACE_SHARE = 1 / 3


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--shrink", type=int, default=1, help="divide every family size (smoke tests)"
    )
    p.add_argument(
        "--out-dir", default=str(ROOT / ".bench_out"), help="detail and span files"
    )
    return p.parse_args(argv)


def load_stabcert():
    """Import ``stabcert`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "stabcert" / "__init__.py").is_file():
        raise SetupError(f"no stabcert package under {src}")
    sys.path.insert(0, str(src))
    import stabcert
    from stabcert import cli

    if Path(stabcert.__file__).resolve().parent != (src / "stabcert").resolve():
        raise SetupError(f"imported stabcert from {stabcert.__file__}, not {src}")
    return stabcert, cli


def load_selection(workload: str) -> dict:
    """The metric names ``BENCHMARK.json`` puts on the result line."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in [w["name"] for w in doc["workloads"]]:
        raise SetupError(f"unknown workload {workload!r}")
    return {0: [m["name"] for m in doc["end_to_end"]], 1: [m["name"] for m in doc["per_layer"]]}


def git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git repository (the search
    stops at the checkout, so an enclosing repository is not reported)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(stabcert, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "stabcert": stabcert.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# operations


def command_argv(inst, command: str, path: str) -> list[str]:
    if command == "certify":
        return ["certify", path]
    seed = ["--seed", str(inst.op_seed)]
    if command in ("tilt", "perturb"):
        name = "tilt-probe" if command == "tilt" else "perturb"
        return [name, path, "--samples", str(inst.probe_samples), "--starts", str(STARTS)] + seed
    conjecture = ["--conjecture"] if inst.kind == "nuclear" else []
    return ["qg-audit", path, "--samples", str(inst.audit_samples)] + seed + conjecture


def make_ops(instances, docs, workdir: Path) -> list[tuple]:
    """Write the encoded problem files; return ``(op_id, inst, command,
    argv)`` in round-robin order over instances."""
    ops = []
    for inst, doc in zip(instances, docs):
        path = workdir / f"{inst.iid}.json"
        path.write_text(doc)
        for command in inst.commands:
            argv = command_argv(inst, command, str(path))
            ops.append((f"{inst.iid}.{command}", inst, command, argv))
    return ops


def call(cli, argv):
    """Time one in-process CLI call; returns ``(seconds, report, exception)``."""
    buf = io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli.run(argv)
    except Exception as err:  # the op failed; the run goes on and counts it
        exc = err
    dt = time.perf_counter() - t0
    report = None
    if exc is None:
        try:
            report = json.loads(buf.getvalue())
        except json.JSONDecodeError as err:
            exc = err
    return dt, report, exc


def run_pass(cli, ops, tracer=None, deadline=None, gauge=None) -> list[dict]:
    """Run the ops in order, all of them or until ``deadline``; returns one
    record per op run.  With a ``gauge``, samples the machine's speed
    between ops."""
    records = []
    certified: dict = {}
    for index, (op_id, inst, command, argv) in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        if tracer is None:
            dt, report, exc = call(cli, argv)
        else:
            with tracer.operation(index):
                dt, report, exc = call(cli, argv)
        if gauge is not None:
            gauge.tick()
        if exc is not None:
            failure = checks.Failure(f"exception {type(exc).__name__}: {exc}", False)
            report = {"error": {"code": type(exc).__name__}}
            outcome = ("exception", type(exc).__name__)
        else:
            failure = checks.check(inst, command, report, certified)
            outcome = checks.verdict(command, report)
        if command == "certify":
            certified[inst.iid] = report
        records.append(
            {
                "op": op_id,
                "command": command,
                "start": start,
                "seconds": dt,
                "failure": failure,
                "outcome": outcome,
            }
        )
    return records


def setup(cli, args, workdir: Path) -> tuple[list[tuple], float]:
    """Build the bank, write its files and warm up one op per command.

    Returns the ops and the seconds the set-up took without the file
    writes: those are page-cache I/O that no program change moves, and they
    swung from 0.01 to 0.5 s between set-ups of one run on a shared disk.
    Each warm-up runs on the smallest problem (then fewest audit samples) of
    the family that opens the pass, so its cost varies little with the seed.
    """
    t0 = time.perf_counter()
    instances = workloads.build(args.workload, args.seed, args.shrink)
    docs = [json.dumps(inst.problem) for inst in instances]
    t1 = time.perf_counter()
    workdir.mkdir(parents=True)
    ops = make_ops(instances, docs, workdir)
    t2 = time.perf_counter()

    def cost(op):
        inst = op[1]
        return len(inst.problem["b"]) * len(inst.problem["phi"][0]), inst.audit_samples

    opening = [op for op in ops if op[1].family == instances[0].family]
    for command in workloads.COMMANDS:
        candidates = [op for op in opening if op[2] == command]
        if candidates:
            call(cli, min(candidates, key=cost)[3])
    return ops, (t1 - t0) + (time.perf_counter() - t2)


def by_command(records, key: str) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r["command"], []).append(r[key])
    return out


def by_op(records) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r["op"], []).append(r)
    return out


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        selection = load_selection(args.workload)
        stabcert, cli = load_stabcert()
    except (OSError, ValueError, KeyError, ImportError, SetupError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    t_import = time.perf_counter() - T_START
    # A terminated run still removes its problem files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        return measure(args, selection, stabcert, cli, t_import, work, Path(args.out_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()


def measure(args, selection, stabcert, cli, t_import, work: Path, out_dir: Path) -> int:
    # Each set-up is scaled by kernel samples taken right before and after
    # it, the import by the first of them.
    gauge = speed.Gauge()
    gauge.burst()
    t_import_scaled = t_import * gauge.factor(T_START, T_START + t_import)
    setup_times, setup_scaled = [], []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops, seconds = setup(cli, args, work / f"rep{rep}")
        t1 = time.perf_counter()
        gauge.burst()
        setup_times.append(seconds)
        setup_scaled.append(seconds * gauge.factor(t0, t1))
    setup_raw = t_import + statistics.median(setup_times)
    setup_s = t_import_scaled + statistics.median(setup_scaled)
    if args.trace:
        ops = ops[: math.ceil(len(ops) * TRACE_SHARE)]

    # Untraced passes give the end-to-end numbers.
    pass_walls, passes = [], []
    deadline = time.perf_counter() + (0.0 if args.trace else args.seconds)
    while not passes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, ops, deadline=deadline if passes else None, gauge=gauge))
        pass_walls.append(time.perf_counter() - t0)
    untraced = [r for recs in passes for r in recs]
    for r in untraced:
        r["scaled"] = r["seconds"] * gauge.factor(r["start"], r["start"] + r["seconds"])
    passed = sum(r["failure"] is None for r in untraced)
    e2e, raw = (
        metrics.end_to_end(by_command(untraced, key), passed, len(untraced),
                           sum(r[key] for r in untraced))
        for key in ("scaled", "seconds")
    )
    e2e["setup_s"] = (setup_s, SETUP_REPEATS)
    raw["setup_s"] = (setup_raw, SETUP_REPEATS)
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)

    problems = []
    first = [r["outcome"] for r in passes[0]]
    if any([r["outcome"] for r in recs] != first[: len(recs)] for recs in passes[1:]):
        problems.append("verdicts differ between untraced passes")

    layer, counters, trace_walls = {}, [], []
    if args.trace:
        tracers = []
        for _ in range(2):
            tracer = spans.Tracer()
            with spans.install(tracer, metrics.EXPECTED_FUNCTIONS):
                t0 = time.perf_counter()
                records = run_pass(cli, ops, tracer)
                trace_walls.append(time.perf_counter() - t0)
            tracers.append(tracer)
            passes.append(records)
            if [r["outcome"] for r in records] != first:
                problems.append("verdicts differ between traced and untraced passes")
        per_pass = [metrics.per_layer(t) for t in tracers]
        counters = [c for _, c in per_pass]
        if counters[0] != counters[1]:
            problems.append("exact counters differ between the two traced passes")
        for key in metrics.PER_LAYER:
            a, b = (m.get(key) for m, _ in per_pass)
            layer[key] = None if a is None or b is None else (a if a == b else (a + b) / 2)
        layer["trace.overhead_frac"] = statistics.mean(trace_walls) / pass_walls[0] - 1.0
        write_spans(out_dir / f"spans-{args.workload}-s{args.seed}.npz", tracers)

    every = [r for recs in passes for r in recs]
    failing = {r["op"]: r["failure"] for r in every if r["failure"] is not None}
    wrong = sorted(op for op, f in failing.items() if f.wrong)
    if wrong:
        problems.append(f"wrong answers: {wrong}")

    env = environment(stabcert, args)
    digest = hashlib.sha256(
        json.dumps(
            {"counters": counters[:1], "outcomes": first, "failing": sorted(failing)},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    detail = {
        "environment": env,
        "passes": len(pass_walls),
        "pass_seconds": pass_walls,
        "traced_pass_seconds": trace_walls,
        "setup_seconds": {"import": t_import, "repeats": setup_times},
        "speed": {
            "reference_kernel_s": speed.REFERENCE_S,
            "kernel_samples": len(gauge.seconds),
            "kernel_s_quartiles": statistics.quantiles(gauge.seconds, n=4),
        },
        "end_to_end_raw": {k: v for k, (v, _) in sorted(raw.items())},
        "end_to_end": {
            k: {"value": v, "unit": metrics.END_TO_END[k][0], "samples": n}
            for k, (v, n) in sorted(e2e.items())
        },
        "per_layer": {
            k: None if v is None else {"value": v, "unit": metrics.PER_LAYER[k][0]}
            for k, v in layer.items()
        },
        "failing_ops": {op: f.reason for op, f in sorted(failing.items())},
        "op_ms": {
            op: 1e3 * statistics.median(r["scaled"] for r in recs)
            for op, recs in by_op(untraced).items()
        },
        "problems": problems,
        "exact_counters": counters[:1],
        "exact_digest": digest,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print_summary(env, detail, args.trace)

    if args.trace:
        table, values = metrics.PER_LAYER, layer
    else:
        table, values = metrics.END_TO_END, {k: v for k, (v, _) in e2e.items()}
    result = {
        "correct": not problems,
        "attempted": len(every),
        "failed": sum(r["failure"] is not None for r in every),
        "metrics": {
            k: {"value": values[k], "unit": table[k][0]}
            for k in selection[args.trace]
            if values.get(k) is not None
        },
    }
    print(json.dumps(result))
    return 0


def write_spans(path: Path, tracers) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for i, tracer in enumerate(tracers):
        for key, arr in tracer.arrays().items():
            arrays[f"pass{i}_{key}"] = arr
        arrays[f"pass{i}_names"] = np.array(tracer.names)
    np.savez_compressed(path, **arrays)


def print_summary(env: dict, detail: dict, trace: int) -> None:
    print(
        f"# {env['workload']} seed={env['seed']} passes={detail['passes']} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} nproc={env['nproc']} "
        f"commit={env['git_commit']}"
    )
    for k, m in detail["end_to_end"].items():
        print(f"{k:>24} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    if trace:
        for k, m in detail["per_layer"].items():
            shown = "absent" if m is None else f"{m['value']:.6g} {m['unit']}"
            print(f"{k:>36} {shown}")
        print(f"# exact digest {detail['exact_digest']}")
    for op, reason in detail["failing_ops"].items():
        print(f"# failed {op}: {reason}")
    for problem in detail["problems"]:
        print(f"# PROBLEM {problem}")


if __name__ == "__main__":
    sys.exit(main())
