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

    def test_checkpoint_writes_the_training_curve(self, workspace):
        tmp_path, cfg_path = workspace
        ck = str(tmp_path / "ck.bin")
        assert main(["run", "--config", str(cfg_path), "--checkpoint", ck]) == 0
        lines = Path(ck + ".curve").read_text().splitlines()
        assert lines[0] == "epoch,loss,buffer_acc"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2]  # "epochs": 2
        for line in lines[1:]:
            _, loss, acc = map(float, line.split(","))
            assert loss > 0.0 and 0.0 <= acc <= 1.0

    def test_checkpoint_without_adaptation_writes_no_curve(self, workspace):
        tmp_path, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["adapt"]["mode"] = "none"
        cfg_path.write_text(json.dumps(cfg))
        ck = str(tmp_path / "ck.bin")
        assert main(["run", "--config", str(cfg_path), "--checkpoint", ck]) == 0
        assert Path(ck + ".predictor").exists()
        assert not Path(ck + ".curve").exists()

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

    def test_config_that_is_not_utf8_is_validation_error(self, tmp_path, capsys):
        # A leading 0xff byte once escaped as a UnicodeDecodeError traceback.
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + json.dumps({"schedule": {"kind": "single_batch"}}).encode())
        capsys.readouterr()
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON in {bad}") and "Traceback" not in err

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


def run_with(cfg_path, capsys, **edits):
    """Run the workspace config with ``section={field: value}`` edits applied.

    A top-level field is edited as ``field=value``. Returns the exit code
    and standard error.
    """
    cfg = json.loads(cfg_path.read_text())
    for key, value in edits.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(["run", "--config", str(cfg_path)])
    return code, capsys.readouterr().err


class TestBadConfigValues:
    """Each value once escaped as a traceback or ran with a silently truncated value."""

    @staticmethod
    def assert_validation_error(result, field):
        code, err = result
        assert code == 1
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_fractional_adapt_epochs(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, adapt={"epochs": 2.5})
        self.assert_validation_error(result, "adapt.epochs")

    def test_fractional_schedule_batch_size(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys,
                          schedule={"kind": "random_iid", "batch_size": 2.5})
        self.assert_validation_error(result, "schedule.batch_size")

    def test_string_buffer_capacity(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, buffer={"capacity": "6"})
        self.assert_validation_error(result, "buffer.capacity")

    def test_fractional_adapt_bottleneck(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, adapt={"bottleneck": 1.5})
        self.assert_validation_error(result, "adapt.bottleneck")

    def test_fractional_top_level_seed(self, workspace, capsys):
        _, cfg_path = workspace
        self.assert_validation_error(run_with(cfg_path, capsys, seed=1.5), "seed")

    def test_intermediate_evals_not_a_list(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, intermediate_evals=5)
        self.assert_validation_error(result, "intermediate_evals")

    def test_int_data_paths(self, workspace, capsys):
        # Path 0 once opened stdin: the run read its training table from
        # there and then closed file descriptor 0.
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, data={"train_path": 0, "test_path": 0})
        self.assert_validation_error(result, "data.train_path")

    def test_list_data_path(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, data={"test_path": ["a"]})
        self.assert_validation_error(result, "data.test_path")

    @pytest.mark.parametrize("sigma", [1e-155, 1e-200])
    def test_gaussian_sigma_too_small(self, workspace, capsys, sigma):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, schedule={"kind": "gaussian", "sigma": sigma})
        self.assert_validation_error(result, "sigma")


class TestBufferHeaderRange:
    """A buffer seed or capacity past ``SCBF``'s 64-bit header fields once
    ran to the end, wrote the state checkpoint, then died in ``save_buffer``
    with a ``struct.error`` traceback."""

    @pytest.mark.parametrize("field, value", [
        ("seed", 2**63), ("seed", -(2**63) - 1), ("capacity", 2**64),
    ])
    def test_stops_before_streaming_and_writes_no_checkpoint(
        self, workspace, capsys, field, value
    ):
        tmp_path, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["buffer"][field] = value
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["run", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "ck.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and f"{field} must" in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("ck.bin*")) == []


class TestBadFloatConfigValues:
    """Float fields once gave a traceback, ran a bool as 1.0, ran a non-finite
    value to a late runtime failure, or failed without naming the field."""

    assert_validation_error = staticmethod(TestBadConfigValues.assert_validation_error)

    def test_string_ridge_lambda(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, classifier={"lambda": "1"})
        self.assert_validation_error(result, "classifier.lambda")

    def test_bool_ridge_lambda(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, classifier={"lambda": True})
        self.assert_validation_error(result, "classifier.lambda")

    def test_bool_adapt_eps(self, workspace, capsys):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, adapt={"eps": True})
        self.assert_validation_error(result, "adapt.eps")

    @pytest.mark.parametrize("literal", ["1e309", "1" + "0" * 400], ids=["inf", "huge_int"])
    def test_ridge_lambda_literal_beyond_float_range(self, workspace, capsys, literal):
        # JSON reads 1e309 as inf and must fail before the stream, not after
        # it; a 401-digit int once overflowed in the finiteness check.
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["classifier"]["lambda"] = "LAMBDA"
        cfg_path.write_text(json.dumps(cfg).replace('"LAMBDA"', literal))
        capsys.readouterr()
        result = main(["run", "--config", str(cfg_path)]), capsys.readouterr().err
        self.assert_validation_error(result, "classifier.lambda")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_adapt_lr_head(self, workspace, capsys, value):
        _, cfg_path = workspace
        result = run_with(cfg_path, capsys, adapt={"lr_head": value})
        self.assert_validation_error(result, "adapt.lr_head")

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("adapt", "lr_head", "0.1"),
            ("adapt", "temperature", "5"),
            ("schedule", "sigma", "0.1"),
            ("schedule", "peak_spacing", "1"),
        ],
    )
    def test_string_float_field(self, workspace, capsys, section, field, value):
        _, cfg_path = workspace
        edit = {field: value}
        if section == "schedule":
            edit["kind"] = "gaussian"
        result = run_with(cfg_path, capsys, **{section: edit})
        self.assert_validation_error(result, f"{section}.{field}")

    def test_string_synthetic_cluster_spread(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "class_count": 2, "dim": 4, "samples_per_class": 2, "cluster_spread": "0.1",
        }))
        capsys.readouterr()
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        result = code, capsys.readouterr().err
        self.assert_validation_error(result, "synthetic.cluster_spread")


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

    def test_csv_cell_that_is_not_utf8_is_runtime_error(self, tmp_path, capsys):
        # A 0xff byte in a cell once escaped as a UnicodeDecodeError traceback.
        rows = [(1.0, 0.0), (0.0, 1.0)]
        cfg_path = csv_config(tmp_path, rows, [0, 1], rows, [0, 1])
        train = tmp_path / "train.csv"
        train.write_bytes(train.read_bytes().replace(b"1.0,0.0", b"1.0,\xff", 1))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CSV file is not valid text") and "Traceback" not in err

    def test_huge_csv_row_is_normalized(self, tmp_path):
        train = [(1e200, 1e200), (1.0, 1.1), (1e200, -1e200), (1.0, -1.1)]
        test = [(2.0, 2.1), (2.0, -2.1)]
        cfg_path = csv_config(tmp_path, train, [0, 0, 1, 1], test, [0, 1])
        report = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["accuracy"]["stage_one"] == 1.0


def synthetic_run(tmp_path, capsys, **spec):
    """Run a small synthetic config with ``spec`` edits; return exit code and stderr."""
    cfg = {
        "data": {"synthetic": {"class_count": 3, "dim": 4, "samples_per_class": 5, **spec}},
        "schedule": {"kind": "single_batch"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    return main(["run", "--config", str(cfg_path)]), capsys.readouterr().err


class TestExtremeSyntheticSpecs:
    """Each spec once printed numpy overflow warnings, and the first two then
    failed on a zero-norm row of a table flagged as normalized."""

    def test_huge_cluster_spread_runs(self, tmp_path, capsys):
        assert synthetic_run(tmp_path, capsys, cluster_spread=1e200) == (0, "")

    def test_huge_shift_strength_runs(self, tmp_path, capsys):
        assert synthetic_run(tmp_path, capsys, shift_strength=1e308) == (0, "")

    def test_spread_beyond_float_range_is_runtime_error(self, tmp_path, capsys):
        code, err = synthetic_run(tmp_path, capsys, cluster_spread=1e308)
        assert code == 2 and err.startswith("error: non-finite value in row")


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
