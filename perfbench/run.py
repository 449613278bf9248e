"""scroll benchmark: one workload at one seed, measured for a fixed time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-gaussian --seed 0 --seconds 20 --trace 0

The script generates the workload's input files from ``--seed``, then
runs operations one at a time, each in a fresh ``worker.py`` process (as
each ``scroll run`` is), checks every operation's output, writes a result file
under ``perfbench/.work/results/`` and prints each metric with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

Exit status is 0 when a result was printed, 1 when a worker failed and
2 when the checkout holds no ``src/scroll`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: A run must end within 180 s; no worker may outlive this many seconds of it.
RUN_LIMIT_S = 170


def blas_threads(nproc: int) -> int:
    """The BLAS thread count to run with: the caller's setting, capped at ``nproc``."""
    raw = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return min(int(raw), nproc) if raw.isdigit() and int(raw) > 0 else nproc


def environment(nproc: int, threads: int, loadavg) -> dict:
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np), "scipy": blas(scipy)},
        "blas_threads": threads,
        "loadavg_at_start": list(loadavg),
    }


def run_worker(workload, cfg_path: Path, op_id: int, traced: bool, env: dict,
               timeout: float) -> dict:
    """One operation in a fresh worker process; its record as the worker prints it."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
        "--op", workload.op, "--shuffles", str(workload.shuffles), "--op-id", str(op_id),
    ]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(workload, cfg_path: Path, seconds: int, trace: int, env: dict) -> list[dict]:
    """The closed loop: operations one after another until the next would end late.

    Each operation runs in a fresh process, as each ``scroll run`` does;
    speed also differs between processes (memory layout), so this samples
    that too. With ``trace``, untraced and traced operations alternate and
    at least one of each runs.
    """
    ops, cycles = [], []
    deadline = time.perf_counter() + seconds
    limit = time.perf_counter() + RUN_LIMIT_S
    while True:
        start = time.perf_counter()
        traced = bool(trace) and len(ops) % 2 == 1
        ops.append(run_worker(workload, cfg_path, len(ops), traced, env,
                              timeout=max(1.0, limit - start)))
        cycles.append(time.perf_counter() - start)
        late = time.perf_counter() + statistics.median(cycles) > deadline
        if late and len(ops) >= 1 + trace:
            return ops


def check_ops(ops: list[dict], expected: str | None) -> None:
    """Mark each operation ``ok`` or give its ``problems``.

    Every operation must reproduce ``expected`` (the reference digest at
    the default seed) or, without one, the first untraced operation's
    digest, so traced and untraced operations must agree.
    """
    if expected is None:
        expected = next(
            (op["output"]["digest"] for op in ops if "output" in op and not op["traced"]),
            None,
        )
    for op in ops:
        if "error" in op:
            op["problems"] = [op["error"]]
        else:
            op["problems"] = checks.problems(op["output"], expected)
        op["ok"] = not op["problems"]


def end_to_end(ops: list[dict]) -> dict:
    outputs = [op["output"] for op in ops if op["ok"]]
    return {
        "run_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op.get("cpu_s", op["wall_s"]) for op in ops),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "setup_s": statistics.median(op["setup_s"] for op in ops),
        "adapted_accuracy": checks.quality(outputs[0]) if outputs else 0.0,
        "ok_frac": len(outputs) / len(ops),
    }


def per_layer(ops: list[dict], names: list[str]) -> dict:
    """Median over the traced operations of each per-layer metric."""
    traced = [op for op in ops if "layers" in op]
    out = {
        name: statistics.median(op["layers"][name] for op in traced) if traced else 0.0
        for name in names if name != "trace.overhead_s"
    }
    walls = {t: [op["wall_s"] for op in ops if op["traced"] is t] for t in (False, True)}
    out["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False])
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "scroll" / "__init__.py").is_file():
        print(f"no scroll sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"

    generated = write_inputs(workload, args.seed, WORK / "data" / f"seed{args.seed}", ROOT)
    cfg_path = WORK / "data" / f"seed{args.seed}" / f"{workload.name}.json"
    cfg_path.write_text(json.dumps(generated["config"], indent=2))

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    ops = run_ops(workload, cfg_path, args.seconds, args.trace, env)
    if args.trace:
        spans = [span for op in ops for span in op.pop("spans", [])]
        (results_dir / f"{tag}_spans.json").write_text(json.dumps(spans))
    reference = json.loads((HERE / "reference.json").read_text())
    check_ops(ops, reference[workload.name] if args.seed == DEFAULT_SEED else None)

    if args.trace:
        listed = spec["per_layer"]
        values = per_layer(ops, [m["name"] for m in listed])
    else:
        values, listed = end_to_end(ops), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = sum(not op["ok"] for op in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc, threads, loadavg),
        "inputs": generated["inputs"], "config": generated["config"],
        "ops": ops, "result": result,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} operations, {failed} failed; inputs {generated['inputs']}")
    print(f"environment: {record['environment']}")
    for op in ops:
        if op["problems"]:
            print(f"failed operation: {op['problems']}")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
