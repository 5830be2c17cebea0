"""Run every workload on the default and the held-out seed; keep the results.

Usage (from the repository root)::

    python3 bench/record.py

For each workload: an untraced and a traced run on seed 0 and on seed 1,
and a second traced run on seed 0, each in a fresh process.  Prints every
end-to-end and per-layer metric with unit and sample count, checks that
the two traced seed-0 runs agree on exact counters, verdicts and failing
op ids, and writes all detail records to ``bench/baseline.json``.  Each
run measures for ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def run(workload: str, seed: int, trace: int, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((out_dir / f"{workload}-s{seed}-t{trace}.json").read_text())
    return result, detail


def main() -> int:
    selection = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_out" / "record"
    runs, ok = [], True
    for workload in [w["name"] for w in selection["workloads"]]:
        traced = []
        for seed, trace in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (DEFAULT_SEED, 1),
                            (DEFAULT_SEED, 1), (HELD_OUT_SEED, 1)):
            out_dir = scratch / f"{workload}-s{seed}-t{trace}-{len(runs)}"
            result, detail = run(workload, seed, trace, selection["run_seconds"], out_dir)
            kept = {k: v for k, v in detail.items() if k != "op_ms"}
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "result": result, "detail": kept})
            print(f"## {workload} seed={seed} trace={trace} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            table = detail["per_layer"] if trace else detail["end_to_end"]
            for name, m in table.items():
                shown = "absent" if m is None else f"{m['value']:.6g} {m['unit']}"
                count = f" (n={m['samples']})" if m and "samples" in m else ""
                print(f"  {name:>36} {shown}{count}")
            for op, reason in detail["failing_ops"].items():
                print(f"  failed {op}: {reason}")
            ok &= bool(result["correct"])
            if trace and seed == DEFAULT_SEED:
                traced.append(detail)
        a, b = traced
        same = (a["exact_digest"] == b["exact_digest"]
                and a["failing_ops"] == b["failing_ops"])
        print(f"## {workload}: two traced seed-{DEFAULT_SEED} runs agree: {same}")
        ok &= same
    (HERE / "baseline.json").write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
