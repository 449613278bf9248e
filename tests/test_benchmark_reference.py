"""The benchmark workloads at their default seed give the committed output digests.

``perfbench/reference.json`` holds the digest of every workload's output
at seed 0: a run report without ``timing``, or the buffer study's summary.
A change that moves one of them fails the benchmark's output check, so it
is caught here first, in-process, from the benchmark's own input generator
and checks. Nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scroll import ExperimentConfig
from scroll.harness import buffer_study, execute

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name):
    """``perfbench/<name>.py`` as a module of its own name, with no bytecode written there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


workloads = _bench_module("workloads")
checks = _bench_module("checks")
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_output_matches_the_reference_digest(name, tmp_path, monkeypatch):
    w = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    inputs = workloads.write_inputs(w, seed, tmp_path / f"perfbench/.work/data/seed{seed}", tmp_path)
    monkeypatch.chdir(tmp_path)  # the config's paths are relative to the checkout root
    cfg = ExperimentConfig.from_dict(inputs["config"])
    if w.op == "execute":
        output = checks.run_output(execute(cfg).report.to_dict())
    else:
        output = checks.study_output(buffer_study(cfg, w.shuffles)[1])
    assert output["digest"] == REFERENCE[name]
