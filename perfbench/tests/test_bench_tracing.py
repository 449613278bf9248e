"""Tests of the benchmark's own machinery: spans, output checks, inputs."""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scroll import ExperimentConfig, load_embeddings  # noqa: E402

harness = importlib.import_module("scroll.harness")


def span(sid, name, start, end, parent):
    return tracing.Span(sid, name, start, end, parent, op=0)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span(0, "root", 0.0, 10.0, None),
        span(1, "a", 1.0, 3.0, 0),
        span(2, "a.inner", 1.5, 2.5, 1),   # grandchild: already inside "a"
        span(3, "b", 2.0, 4.0, 0),         # overlaps "a": [1, 4] counted once
        span(4, "c", 6.0, 7.0, 0),
        span(5, "d", 9.5, 11.0, 0),        # clipped to the root's end
    ]
    assert tracing.self_time(spans, spans[0]) == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert tracing.self_time(spans, spans[1]) == pytest.approx(1.0)
    assert tracing.self_time(spans, spans[2]) == pytest.approx(1.0)


def test_layer_metrics_take_harness_self_time_from_the_root_span():
    tracer = tracing.Tracer()
    tracer.spans = [
        span(0, "harness.execute", 0.0, 5.0, None),
        span(1, "replay.update", 0.5, 2.5, 0),
        span(2, "replay.update", 3.0, 4.0, 0),
    ]
    tracer.counts = {"adapt.steps": 4}
    layers = tracing.layer_metrics(tracer)
    assert layers["replay.update_s"] == pytest.approx(3.0)
    assert layers["replay.update_calls"] == 2
    assert layers["harness.execute_s"] == pytest.approx(5.0)
    assert layers["harness.self_s"] == pytest.approx(2.0)
    assert layers["adapt.step_us"] == 0.0  # steps without an adapt span


def _report():
    return {
        "version": "0.1.0",
        "config": {"buffer": {"capacity": 4}},
        "accuracy": {"stage_one": 0.5, "adapted": 0.75},
        "buffer": {"total_stored": 4, "digest": "abc"},
        "intermediate": [{"t": 1, "stage_one_accuracy": 0.25, "adapted_accuracy": 0.5}],
        "timing": {"total_s": 1.0},
    }


def test_output_check_rejects_a_tampered_report():
    report = _report()
    reference = checks.run_output(report)["digest"]
    assert checks.problems(checks.run_output(report), reference) == []

    report["timing"]["total_s"] = 2.0  # wall-clock fields are not compared
    assert checks.problems(checks.run_output(report), reference) == []

    tampered = _report()
    tampered["accuracy"]["adapted"] = 0.76
    assert checks.problems(checks.run_output(tampered), reference)

    out_of_range = _report()
    out_of_range["intermediate"][0]["adapted_accuracy"] = 1.5
    assert checks.problems(checks.run_output(out_of_range), None)

    short = _report()
    short["buffer"]["total_stored"] = 3
    assert checks.problems(checks.run_output(short), None)


def test_output_check_rejects_a_study_where_reservoir_wins():
    summary = [
        {"b1": 20, "b2": 20, "strategy": "exemplar", "mean_distance": 0.1, "var_distance": 0.01},
        {"b1": 20, "b2": 20, "strategy": "reservoir", "mean_distance": 0.2, "var_distance": 0.02},
    ]
    good = checks.study_output(summary)
    assert checks.problems(good, None) == []
    assert checks.quality(good) == 1.0
    summary[0] = {**summary[0], "mean_distance": 0.3}
    bad = checks.study_output(summary)
    assert checks.problems(bad, good["digest"])
    assert checks.quality(bad) == 0.5


def _tiny_inputs(tmp_path, name):
    w = workloads.WORKLOADS[name]
    w = dataclasses.replace(w, classes=4, dim=8, per_class=12, shuffles=2)
    made = workloads.write_inputs(w, 3, tmp_path, tmp_path)
    cfg = made["config"]
    for split in ("train_path", "test_path"):
        cfg["data"][split] = str(tmp_path / cfg["data"][split])
    if name == "stream-gaussian":
        cfg["buffer"]["capacity"] = 8
        cfg["adapt"]["epochs"] = 2
        cfg["intermediate_evals"] = [5]
    if name == "ncc-wide":
        cfg["schedule"]["batch_size"] = 8
        cfg["intermediate_evals"] = [2, 4]
    return w, ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("name", ["stream-gaussian", "ncc-wide", "buffer-study"])
def test_traced_and_untraced_operations_agree(tmp_path, name):
    w, cfg = _tiny_inputs(tmp_path, name)

    def operation():
        if w.op == "execute":
            return checks.run_output(harness.execute(cfg).report.to_dict())
        return checks.study_output(harness.buffer_study(cfg, w.shuffles)[1])

    plain = operation()
    original = harness.execute
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = operation()
    finally:
        tracing.uninstall(saved)
    assert harness.execute is original
    assert traced["digest"] == plain["digest"]

    layers = tracing.layer_metrics(tracer)
    assert layers["embeddings.bytes_read"] == sum(
        p.stat().st_size for p in tmp_path.glob("*.bin")
    )
    if w.op == "execute":
        assert layers["schedules.batches"] == layers["learners.update_calls"] > 0
        assert layers["learners.predict_calls"] > 0
    else:
        assert layers["replay.update_calls"] > 0
        assert layers["harness.buffer_study_s"] > layers["replay.update_s"] > 0


def test_inputs_are_a_function_of_the_seed_and_load_as_scrl(tmp_path):
    w = workloads.WORKLOADS["adapt-head"]
    a = workloads.write_inputs(w, 7, tmp_path / "a", tmp_path)
    b = workloads.write_inputs(w, 7, tmp_path / "b", tmp_path)
    c = workloads.write_inputs(w, 8, tmp_path / "c", tmp_path)
    read = lambda made, split: (tmp_path / made["config"]["data"][split]).read_bytes()
    assert read(a, "train_path") == read(b, "train_path")
    assert read(a, "train_path") != read(c, "train_path")
    table, mapping = load_embeddings(tmp_path / a["config"]["data"]["test_path"])
    assert (table.n_samples, table.dim, table.class_count) == (1000, 64, 10)
    assert a["inputs"]["test_bytes"] == len(read(a, "test_path"))
    assert np.allclose(np.linalg.norm(table.vectors, axis=1), 1.0, atol=1e-6)
