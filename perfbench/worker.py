"""Runs one benchmark operation in a fresh process, as ``scroll run`` would.

Started by ``run.py`` with the checkout root as working directory::

    python3 perfbench/worker.py --config CFG.json --op execute [--shuffles N] \
        [--op-id N] [--trace]

It imports scroll and parses the config (timed as set-up), makes one
timed call into the harness and prints one JSON line: the set-up seconds,
the wall and CPU seconds of the call, its output digest and checked facts
and the process's peak RSS. With ``--trace`` it adds the
call's per-layer metrics and its spans, tagged with ``--op-id``. An
operation that raises is reported with ``error`` and exit status 0, so
the caller counts it as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing


def _import_scroll(root: Path):
    sys.path.insert(0, str(root / "src"))
    import scroll

    if Path(scroll.__file__).resolve().parent != (root / "src" / "scroll").resolve():
        raise SystemExit(f"imported scroll from {scroll.__file__}, not from {root / 'src'}")
    return scroll


def _operation(harness, op: str, cfg, shuffles: int) -> dict:
    """One timed call into the harness, looked up at call time so tracing sees it."""
    wall, cpu = time.perf_counter(), time.process_time()
    if op == "execute":
        result = harness.execute(cfg).report.to_dict()
    else:
        result = harness.buffer_study(cfg, shuffles)[1]
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    output = checks.run_output(result) if op == "execute" else checks.study_output(result)
    return {"wall_s": wall, "cpu_s": cpu, "output": output}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--op", choices=("execute", "buffer_study"), required=True)
    ap.add_argument("--shuffles", type=int, default=0)
    ap.add_argument("--op-id", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    scroll = _import_scroll(Path.cwd())
    harness = sys.modules["scroll.harness"]
    with open(args.config) as fh:
        cfg = scroll.ExperimentConfig.from_dict(json.load(fh))
    setup_s = time.perf_counter() - started

    tracer = tracing.Tracer(args.op_id)
    saved = tracing.install(tracer) if args.trace else []
    started = time.perf_counter()
    try:
        record = _operation(harness, args.op, cfg, args.shuffles)
    except Exception as exc:  # an operation that raises is counted as failed
        traceback.print_exc()
        record = {"error": repr(exc), "wall_s": time.perf_counter() - started}
    finally:
        tracing.uninstall(saved)
    record["traced"] = args.trace
    record["setup_s"] = setup_s
    if args.trace:
        if "error" not in record:
            record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = [dataclasses.astuple(s) for s in tracer.spans]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
