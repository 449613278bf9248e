import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scroll
from scroll import load_predictor, load_state, normalize, load_embeddings
from scroll.cli import main


@pytest.fixture()
def workspace(tmp_path):
    spec = {
        "class_count": 4, "dim": 12, "samples_per_class": 20,
        "cluster_spread": 0.05, "shift_strength": 0.0, "seed": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "demo")]) == 0
    cfg = {
        "seed": 1,
        "data": {
            "train_path": str(tmp_path / "demo_train.bin"),
            "test_path": str(tmp_path / "demo_test.bin"),
            "format": "binary",
        },
        "schedule": {"kind": "class_split", "classes_per_batch": 2, "seed": 4},
        "classifier": {"kind": "ridge", "lambda": 1.0},
        "buffer": {"capacity": 16, "strategy": "exemplar", "seed": 5},
        "adapt": {"mode": "adapter", "epochs": 2, "seed": 6},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path


class TestRunCommand:
    def test_run_writes_report_and_checkpoints(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        rc = main([
            "run", "--config", str(cfg_path),
            "--report", str(tmp_path / "report.json"),
            "--checkpoint", str(tmp_path / "ck.bin"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["accuracy"]["stage_one"] <= 1.0
        assert report["config_hash"]
        state = load_state(tmp_path / "ck.bin")
        assert state.seen == 80
        predictor = load_predictor(str(tmp_path / "ck.bin") + ".predictor")
        train, _ = load_embeddings(tmp_path / "demo_train.bin", "binary")
        train = normalize(train)
        preds = predictor.predict_batch(train.vectors)
        assert preds.shape == (80,)

    def test_identical_runs_identical_reports_minus_timing(self, workspace):
        tmp_path, cfg_path = workspace
        outs = []
        for name in ("r1.json", "r2.json"):
            assert main(["run", "--config", str(cfg_path),
                         "--report", str(tmp_path / name)]) == 0
            doc = json.loads((tmp_path / name).read_text())
            doc.pop("timing")
            outs.append(json.dumps(doc, sort_keys=True).encode())
        assert outs[0] == outs[1]

    def test_missing_config_is_validation_error(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1

    def test_invalid_config_field_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {}, "schedule": {"kind": "single_batch"}}))
        assert main(["run", "--config", str(bad)]) == 1

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        cfg = {
            "data": {"train_path": str(tmp_path / "none.bin"),
                     "test_path": str(tmp_path / "none.bin"), "format": "binary"},
            "schedule": {"kind": "single_batch"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_bad_arguments_are_validation_errors(self):
        assert main(["run"]) == 1
        assert main(["frobnicate"]) == 1

    def test_overflowing_ridge_system_is_runtime_error(self, workspace, capsys):
        # lam * seen overflows to inf; the solve must fail, not give a zero head.
        tmp_path, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["classifier"]["lambda"] = 1e308
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 2
        assert "not finite" in capsys.readouterr().err


def csv_config(tmp_path, train_rows, train_labels, test_rows, test_labels):
    for name, rows, labels in (("train", train_rows, train_labels),
                               ("test", test_rows, test_labels)):
        lines = ["f0,f1,label"] + [f"{a!r},{b!r},{y}" for (a, b), y in zip(rows, labels)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    cfg = {
        "data": {"train_path": str(tmp_path / "train.csv"),
                 "test_path": str(tmp_path / "test.csv"), "format": "csv"},
        "schedule": {"kind": "single_batch"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


class TestFileInput:
    def test_differing_label_sets_is_runtime_error(self, tmp_path, capsys):
        rows = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
        cfg_path = csv_config(tmp_path, rows, [0, 1, 2], [rows[0], rows[2]], [0, 2])
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "different label sets" in capsys.readouterr().err

    def test_huge_csv_row_is_normalized(self, tmp_path):
        train = [(1e200, 1e200), (1.0, 1.1), (1e200, -1e200), (1.0, -1.1)]
        test = [(2.0, 2.1), (2.0, -2.1)]
        cfg_path = csv_config(tmp_path, train, [0, 0, 1, 1], test, [0, 1])
        report = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["accuracy"]["stage_one"] == 1.0


class TestImports:
    def test_package_and_cli_import_numpy_but_not_scipy(self):
        code = (
            "import sys, scroll, scroll.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(scroll.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_blas_threads_are_not_set_in_the_environment(self):
        # Stage two stays on one BLAS thread by its block size, not by
        # setting the thread count for the whole process.
        code = (
            "import os, scroll; from scroll import ExperimentConfig, execute; "
            "cfg = ExperimentConfig.from_dict({'data': {'synthetic': {'class_count': 3, "
            "'dim': 8, 'samples_per_class': 120}}, 'schedule': {'kind': 'single_batch'}, "
            "'buffer': {'capacity': 300}, 'adapt': {'mode': 'full_head', 'epochs': 1}}); "
            "execute(cfg); "
            "print(sorted(k for k in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS') if k in os.environ))"
        )
        src = str(Path(scroll.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestSweepCommand:
    def test_sweep_reports_spread(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        rc = main([
            "sweep", "--config", str(cfg_path), "--schedules", "3",
            "--kinds", "split,random", "--report", str(tmp_path / "sweep.json"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert len(doc["schedules"]) == 3
        assert doc["stage_one_spread"] == 0.0


class TestBufferStudyCommand:
    def test_study_writes_summary_and_raw(self, workspace):
        tmp_path, cfg_path = workspace
        rc = main([
            "buffer-study", "--config", str(cfg_path), "--shuffles", "2",
            "--out", str(tmp_path / "summary.csv"),
            "--raw", str(tmp_path / "raw.csv"),
        ])
        assert rc == 0
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "buffer_size,batch_size,strategy,mean_distance,var_distance"
        assert len(summary) == 1 + 4 * 2
        raw = (tmp_path / "raw.csv").read_text().strip().splitlines()
        assert raw[0] == "class,strategy,seed,distance"


class TestSynthCommand:
    def test_synth_round_trips_through_run(self, workspace):
        tmp_path, _ = workspace
        train, mapping = load_embeddings(tmp_path / "demo_train.bin", "binary")
        assert train.class_count == 4
        assert mapping == {i: i for i in range(4)}
        assert train.normalized

    def test_bad_spec_is_validation_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"class_count": 1, "dim": 4, "samples_per_class": 2}))
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 1
