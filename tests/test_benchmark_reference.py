"""The benchmark workloads give the committed output digests at every seed 0-9.

``perfbench/reference.json`` holds the digest of every workload's output
at seed 0: a run report without ``timing``, or the buffer study's summary.
A change that moves one of them fails the benchmark's output check, so it
is caught here first, in-process, from the benchmark's own input generator
and checks. Nothing under ``perfbench/`` is written.

``output_digests.json`` beside this file pins seeds 1-9 the same way, and
also the ``SCST``, ``SCBF`` and ``SCAD`` checkpoint bytes of every run.
Under ``checkpoints`` it pins the report and ``SCAD`` bytes of
stream-gaussian at the default seed with ``intermediate_evals``: the path
of ridge, an exemplar buffer and checkpoints, which no workload runs.
The ridge solve keeps every product at these widths on one BLAS thread,
so the ``SCAD`` bytes do not depend on the OpenBLAS thread count. Under
``curves`` it pins the training curve that ``scroll run --checkpoint``
writes at the default seed: adapt-head's (``full_head``) and that of the
checkpointed stream-gaussian run (``adapter``).
Regenerate the file, from a commit whose outputs are known to be right,
with ``PYTHONPATH=src python tests/test_benchmark_reference.py``.
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from scroll import ExperimentConfig, save_buffer, save_predictor, save_state
from scroll.cli import main
from scroll.harness import buffer_study, execute

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
PINNED_SEEDS = range(1, 10)
CHECKPOINTS = [2000, 4000]
#: The ``intermediate_evals`` of each workload whose training curve is pinned.
CURVES = {"adapt-head": None, "stream-gaussian": CHECKPOINTS}


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


def _file_digest(save, obj, path: Path) -> str:
    save(obj, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outputs(name: str, seed: int, root: Path, intermediate_evals=None) -> dict:
    """Digests of one workload's output at ``seed``, its inputs written under ``root``.

    ``output`` is the digest the benchmark checks; a run adds its ``SCST``
    and ``SCAD`` bytes, and ``SCBF`` bytes when it keeps a buffer.
    ``intermediate_evals``, when given, goes into the run's config.
    """
    w = workloads.WORKLOADS[name]
    inputs = workloads.write_inputs(w, seed, root / f"perfbench/.work/data/seed{seed}", root)
    if intermediate_evals is not None:
        inputs["config"]["intermediate_evals"] = intermediate_evals
    cwd = os.getcwd()
    os.chdir(root)  # the config's paths are relative to the checkout root
    try:
        cfg = ExperimentConfig.from_dict(inputs["config"])
        if w.op != "execute":
            return {"output": checks.study_output(buffer_study(cfg, w.shuffles)[1])["digest"]}
        outcome = execute(cfg)
    finally:
        os.chdir(cwd)
    found = {
        "output": checks.run_output(outcome.report.to_dict())["digest"],
        "SCST": _file_digest(save_state, outcome.state, root / "state.scst"),
        "SCAD": _file_digest(save_predictor, outcome.predictor, root / "predictor.scad"),
    }
    if outcome.buffer is not None:
        found["SCBF"] = _file_digest(save_buffer, outcome.buffer, root / "buffer.scbf")
    return found


def checkpoint_outputs(root: Path) -> dict:
    """The report and ``SCAD`` digests of stream-gaussian at the default seed with checkpoints."""
    found = outputs("stream-gaussian", workloads.DEFAULT_SEED, root, CHECKPOINTS)
    return {key: found[key] for key in ("output", "SCAD")}


def curve_digest(name: str, root: Path) -> str:
    """The sha256 of the ``.curve`` that ``scroll run --checkpoint`` writes for ``name``."""
    w = workloads.WORKLOADS[name]
    inputs = workloads.write_inputs(w, workloads.DEFAULT_SEED, root / "perfbench/.work/data", root)
    if CURVES[name] is not None:
        inputs["config"]["intermediate_evals"] = CURVES[name]
    config = root / "config.json"
    config.write_text(json.dumps(inputs["config"]))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["run", "--config", str(config), "--checkpoint", str(root / "run")]) == 0
    finally:
        os.chdir(cwd)
    return hashlib.sha256((root / "run.curve").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_output_matches_the_reference_digest(name, tmp_path):
    assert outputs(name, workloads.DEFAULT_SEED, tmp_path)["output"] == REFERENCE[name]


@pytest.mark.parametrize("seed", PINNED_SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_and_checkpoints_match_the_pinned_digests(name, seed, tmp_path):
    pinned = json.loads(DIGESTS.read_text())[name][str(seed)]
    assert outputs(name, seed, tmp_path) == pinned


def test_checkpointed_stream_matches_the_pinned_digests(tmp_path):
    assert checkpoint_outputs(tmp_path) == json.loads(DIGESTS.read_text())["checkpoints"]


@pytest.mark.parametrize("name", sorted(CURVES))
def test_training_curve_matches_the_pinned_digest(name, tmp_path):
    assert curve_digest(name, tmp_path) == json.loads(DIGESTS.read_text())["curves"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {
            name: {str(seed): outputs(name, seed, Path(tmp) / f"{name}-{seed}")
                   for seed in PINNED_SEEDS}
            for name in sorted(workloads.WORKLOADS)
        }
        pinned["checkpoints"] = checkpoint_outputs(Path(tmp) / "checkpoints")
        pinned["curves"] = {name: curve_digest(name, Path(tmp) / f"curve-{name}")
                            for name in sorted(CURVES)}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
