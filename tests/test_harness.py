import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from scroll import (
    ConfigError,
    ConsumeOnceStream,
    DataError,
    EmbeddingTable,
    ExperimentConfig,
    NccState,
    NoClassError,
    RidgeState,
    StreamReuseError,
    buffer_study,
    execute,
    intermediate_predictor,
    robustness_sweep,
    run,
    save_embeddings,
    write_study_summary,
)
from scroll.harness import (
    DataConfig, _evaluate, _stage_one, _state_deviation, _stream, _sweep_schedule_specs,
)
from scroll.learners import RIDGE_BLOCK_ROWS
from scroll.schedules import build_schedule


def config_dict(**overrides):
    base = {
        "seed": 5,
        "data": {
            "synthetic": {
                "class_count": 10, "dim": 64, "samples_per_class": 100,
                "cluster_spread": 0.05, "shift_strength": 0.0, "seed": 1,
            }
        },
        "schedule": {"kind": "class_split", "classes_per_batch": 2, "seed": 3},
        "classifier": {"kind": "ridge", "lambda": 1.0},
        "buffer": {"capacity": 0},
    }
    base.update(overrides)
    return base


def small_config(**overrides):
    d = config_dict(**overrides)
    d["data"]["synthetic"].update({"class_count": 4, "dim": 16, "samples_per_class": 25})
    return ExperimentConfig.from_dict(d)


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(config_dict(
            buffer={"capacity": 50, "strategy": "reservoir", "seed": 9},
            adapt={"mode": "full_head", "epochs": 3},
        ))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config"):
            ExperimentConfig.from_dict(config_dict(extra=1))

    def test_missing_data_rejected(self):
        d = config_dict()
        del d["data"]
        with pytest.raises(ConfigError, match="missing 'data'"):
            ExperimentConfig.from_dict(d)

    def test_default_adapt_mode_follows_capacity(self):
        memory_free = ExperimentConfig.from_dict(config_dict())
        assert memory_free.adapt.mode == "none"
        replay = ExperimentConfig.from_dict(config_dict(buffer={"capacity": 40}))
        assert replay.adapt.mode == "adapter"


    @pytest.mark.parametrize("path", [
        ("seed",), ("buffer", "capacity"), ("buffer", "seed"), ("intermediate_evals", 0),
        ("schedule", "seed"), ("schedule", "classes_per_batch"),
        ("adapt", "epochs"), ("adapt", "batch_size"), ("adapt", "threshold"),
        ("adapt", "bottleneck"), ("adapt", "seed"),
        ("data", "synthetic", "class_count"), ("data", "synthetic", "dim"),
        ("data", "synthetic", "samples_per_class"), ("data", "synthetic", "seed"),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_integer_fields_reject_bools_floats_and_strings(self, path):
        field = ".".join(str(key) for key in path[-2:] if key not in ("data", 0))
        for bad in (True, 3.0, "3"):
            d = config_dict(buffer={"capacity": 40}, adapt={"mode": "adapter"},
                            intermediate_evals=[1])
            node = d
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
            with pytest.raises(ConfigError, match=f"^{field}( entry)? must be an integer"):
                ExperimentConfig.from_dict(d)

    def test_integer_fields_accept_numpy_integers(self):
        d = config_dict(buffer={"capacity": 40})
        cfg = dataclasses.replace(
            ExperimentConfig.from_dict(d), seed=np.int64(2), buffer_capacity=np.uint16(30),
            intermediate_evals=(np.int32(1),),
        )
        assert cfg.buffer_capacity == 30 and cfg.intermediate_evals == (1,)
        adapt_cfg = dataclasses.replace(cfg.adapt, epochs=np.int64(2), bottleneck=np.int8(3))
        assert adapt_cfg.bottleneck == 3


class TestConsumeOnce:
    def test_second_iteration_fails(self):
        stream = ConsumeOnceStream(iter([1, 2, 3]))
        assert list(stream) == [1, 2, 3]
        with pytest.raises(StreamReuseError):
            iter(stream)


class TestRun:
    def test_memory_free_ridge_is_accurate(self):
        # Oracle for the data: nearest class mean on this spread is perfect,
        # so a well-posed linear solve must reach at least 0.95.
        report = run(ExperimentConfig.from_dict(config_dict(
            schedule={"kind": "single_batch"},
        )))
        assert report.accuracy["stage_one"] >= 0.95
        assert report.accuracy["adapted"] == report.accuracy["stage_one"]

    def test_split_granularity_does_not_change_accuracy(self):
        acc = []
        for c in (2, 5):
            report = run(ExperimentConfig.from_dict(config_dict(
                schedule={"kind": "class_split", "classes_per_batch": c, "seed": 3},
            )))
            acc.append(report.accuracy["stage_one"])
        assert acc[0] == acc[1]

    def test_report_accuracy_matches_recount(self):
        cfg = small_config(buffer={"capacity": 20}, adapt={"mode": "adapter", "epochs": 2})
        outcome = execute(cfg)
        preds = outcome.predictor.predict_batch(outcome.test.vectors)
        recount = float(np.mean(preds == outcome.test.labels))
        assert outcome.report.accuracy["adapted"] == recount
        per_class = outcome.report.per_class_accuracy["adapted"]
        for y in range(outcome.test.class_count):
            mask = outcome.test.labels == y
            assert per_class[y] == pytest.approx(float(np.mean(preds[mask] == y)))

    def test_per_class_accuracy_is_the_masked_mean_bit_for_bit(self):
        # A duck-typed split: class 4 is absent and reports nan, as a mean
        # over no rows does.
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, 997)
        preds = np.where(rng.random(997) < 0.6, labels, rng.integers(0, 5, 997))
        split = SimpleNamespace(vectors=preds, labels=labels, class_count=5)
        accuracy, per_class = _evaluate(lambda xs: xs, split)
        assert accuracy == float(np.mean(preds == labels))
        for y in range(4):
            assert per_class[y] == float(np.mean(preds[labels == y] == y))
        assert np.isnan(per_class[4]) and len(per_class) == 5

    def test_reports_are_deterministic_excluding_timing(self):
        cfg = small_config(buffer={"capacity": 24}, adapt={"mode": "adapter", "epochs": 2})
        a, b = run(cfg).to_dict(), run(cfg).to_dict()
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_buffer_section_present_with_capacity(self):
        cfg = small_config(buffer={"capacity": 12, "strategy": "exemplar", "seed": 2},
                           adapt={"mode": "none"})
        report = run(cfg)
        assert report.buffer is not None
        counts = report.buffer["per_class_counts"]
        assert sum(counts.values()) == 12
        assert set(report.buffer["moment_distances"]) == set(counts)

    def test_intermediate_positions_validated(self):
        cfg = small_config(intermediate_evals=[99])
        with pytest.raises(ConfigError, match="exceeds"):
            run(cfg)


def write_csv(path, rows, labels):
    dim = len(rows[0])
    lines = [",".join([f"f{j}" for j in range(dim)] + ["label"])]
    lines += [",".join([repr(float(v)) for v in row] + [str(y)]) for row, y in zip(rows, labels)]
    path.write_text("\n".join(lines) + "\n")


class TestFileData:
    def test_test_file_with_fewer_labels_is_data_error(self, tmp_path):
        # Each file's labels are remapped on their own, so the test file's
        # label 2 would become class 1 and be scored against the wrong class.
        eye = np.eye(3).tolist()
        write_csv(tmp_path / "train.csv", eye, [0, 1, 2])
        write_csv(tmp_path / "test.csv", [eye[0], eye[2]], [0, 2])
        cfg = ExperimentConfig.from_dict({
            "data": {"train_path": str(tmp_path / "train.csv"),
                     "test_path": str(tmp_path / "test.csv"), "format": "csv"},
            "schedule": {"kind": "single_batch"},
        })
        with pytest.raises(DataError, match=r"only in train \[1\], only in test \[\]"):
            run(cfg)

    def test_resolve_holds_the_tables_and_one_payload(self, tmp_path):
        # Row norms once squared a whole table into one temporary, and the
        # file reader copied each float32 payload before converting it.
        n, d, k = 4000, 256, 100
        rng = np.random.default_rng(61)
        for split in ("train", "test"):
            rows = rng.standard_normal((n, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            table = EmbeddingTable(rows, np.arange(n) % k, k)
            save_embeddings(table, tmp_path / f"{split}.bin")
        cfg = DataConfig(train_path=str(tmp_path / "train.bin"),
                         test_path=str(tmp_path / "test.bin"))
        tracemalloc.start()
        try:
            train, test = cfg.resolve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train.normalized and test.normalized
        tables = 2 * (n * d + n) * 8
        payload = (tmp_path / "test.bin").stat().st_size
        assert peak <= tables + payload + 2**20


class TestCheckpoints:
    def test_checkpoints_hold_no_buffer_rows(self):
        # A 4000-slot reservoir that stores every row, ten checkpoints. A
        # checkpoint that copied the buffer held 4000 x d floats; one that
        # keeps the stored dataset indices holds 4000 ints beside its
        # statistics.
        k, d = 10, 64
        cfg = ExperimentConfig.from_dict(config_dict(
            data={"synthetic": {"class_count": k, "dim": d, "samples_per_class": 400,
                                "cluster_spread": 0.3, "shift_strength": 0.0, "seed": 1}},
            schedule={"kind": "random_iid", "batch_size": 200, "seed": 3},
            buffer={"capacity": 4000, "strategy": "reservoir", "seed": 2},
            adapt={"mode": "full_head", "epochs": 1},
            intermediate_evals=list(range(2, 21, 2)),
        ))
        train, _ = cfg.data.resolve()
        schedule = build_schedule(cfg.schedule, train.labels)
        tracemalloc.start()
        try:
            state, buffer, snapshots = _stream(cfg, train, schedule, set(cfg.intermediate_evals))
            held = tracemalloc.get_traced_memory()[0]
            assert sorted(snapshots) == list(cfg.intermediate_evals)
            del snapshots
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert buffer.total_stored() == 4000
        statistics = state.cov.nbytes + state.class_sums.nbytes + RIDGE_BLOCK_ROWS * d * 8
        stored_rows = 4000 * d * 8
        assert freed < 10 * (statistics + stored_rows // 4)

    @pytest.mark.parametrize("strategy", ["exemplar", "reservoir", "nearest", "outlier"])
    def test_checkpoint_content_matches_a_buffer_copy(self, strategy):
        cfg = small_config(
            schedule={"kind": "random_iid", "batch_size": 7, "seed": 3},
            buffer={"capacity": 30, "strategy": strategy, "seed": 2},
        )
        train, _ = cfg.data.resolve()
        schedule = build_schedule(cfg.schedule, train.labels)
        _, buffer, snapshots = _stream(cfg, train, schedule, {3}, stop=3)
        stored = snapshots[3][1]
        rows, labels = stored.training_arrays()
        want_rows, want_labels = buffer.copy().training_arrays()
        assert rows.tobytes() == want_rows.tobytes()
        assert labels.tobytes() == want_labels.tobytes()
        assert stored.total_stored() == buffer.total_stored()
        assert stored.content_digest() == buffer.content_digest()

    @pytest.mark.parametrize("kind", ["ncc", "ridge"])
    def test_stage_one_is_scored_on_the_state_at_the_checkpoint(self, kind):
        # Single-class batches: after two of four batches the stage-one
        # predictor knows two classes, the final one all four.
        cfg = small_config(
            schedule={"kind": "class_split", "classes_per_batch": 1, "seed": 3},
            classifier={"kind": kind}, intermediate_evals=[2],
        )
        outcome = execute(cfg)
        (entry,) = outcome.report.intermediate
        schedule = build_schedule(cfg.schedule, outcome.train.labels)
        state, _, _ = _stream(cfg, outcome.train, schedule, (), stop=2)
        preds = _stage_one(cfg, state)[0](outcome.test.vectors)
        assert entry["stage_one_accuracy"] == float(np.mean(preds == outcome.test.labels))
        assert entry["stage_one_accuracy"] < outcome.report.accuracy["stage_one"]


class TestIntermediatePredictor:
    def test_final_position_matches_run(self):
        cfg = small_config(buffer={"capacity": 16}, adapt={"mode": "adapter", "epochs": 2})
        outcome = execute(dataclasses.replace(cfg))
        schedule_batches = 2  # class_split c=2 over 4 classes
        pred = intermediate_predictor(cfg, schedule_batches)
        queries = outcome.test.vectors
        np.testing.assert_array_equal(
            pred.predict_batch(queries), outcome.predictor.predict_batch(queries)
        )

    def test_mid_stream_position_matches_run(self):
        cfg = small_config(
            schedule={"kind": "class_split", "classes_per_batch": 1, "seed": 3},
            buffer={"capacity": 16}, adapt={"mode": "adapter", "epochs": 2},
            intermediate_evals=[2],
        )
        outcome = execute(cfg)
        (entry,) = outcome.report.intermediate
        assert entry["t"] == 2
        pred = intermediate_predictor(cfg, 2)  # 2 of the 4 single-class batches
        preds = pred.predict_batch(outcome.test.vectors)
        assert float(np.mean(preds == outcome.test.labels)) == entry["adapted_accuracy"]

    def test_position_zero_is_no_class_error(self):
        with pytest.raises(NoClassError):
            intermediate_predictor(small_config(), 0)

    @pytest.mark.parametrize("adapt", [{"mode": "none"}, {"mode": "full_head", "epochs": 1}])
    def test_each_ridge_state_is_solved_once(self, monkeypatch, adapt):
        solved = []
        original = RidgeState.solve

        def counting_solve(state):
            solved.append(state.seen)
            return original(state)

        monkeypatch.setattr(RidgeState, "solve", counting_solve)
        cfg = small_config(
            buffer={"capacity": 16}, adapt=adapt, intermediate_evals=[1],
        )
        execute(cfg)
        assert solved == [100, 50]  # the final state, then the snapshot at t=1
        solved.clear()
        intermediate_predictor(cfg, 1)
        assert solved == [50]

    @pytest.mark.parametrize("t", [1.5, True])
    def test_non_integer_position_is_config_error(self, t):
        # 1.5 once streamed the whole schedule, and True acted as position 1.
        with pytest.raises(ConfigError, match="^stream position must be an integer"):
            intermediate_predictor(small_config(), t)

    def test_position_out_of_range(self):
        with pytest.raises(ConfigError):
            intermediate_predictor(small_config(), 99)

    def test_accuracy_grows_with_observed_classes(self):
        cfg = ExperimentConfig.from_dict(config_dict(
            schedule={"kind": "class_split", "classes_per_batch": 2, "seed": 3},
            intermediate_evals=[1, 2, 3, 4, 5],
        ))
        report = run(cfg)
        accs = [entry["adapted_accuracy"] for entry in report.intermediate]
        assert len(accs) == 5
        for earlier, later in zip(accs, accs[1:]):
            assert later >= earlier - 0.02


class TestRobustnessSweep:
    def test_memory_free_spread_is_zero(self):
        cfg = small_config()
        report = robustness_sweep(cfg, 4, ("split", "gaussian", "random"))
        assert report.stage_one_spread == 0.0
        assert report.adapted_spread == 0.0
        assert report.state_max_deviation < 1e-9
        assert len(report.schedules) == 4

    def test_minimum_schedule_count(self):
        with pytest.raises(ConfigError):
            robustness_sweep(small_config(), 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep schedule kind"):
            robustness_sweep(small_config(), 2, ("sorted",))

    @pytest.mark.parametrize("n_schedules", [2.5, 2.0, True, "3"])
    def test_non_integer_schedule_count_is_config_error(self, n_schedules):
        with pytest.raises(ConfigError, match="n_schedules must be an integer"):
            robustness_sweep(small_config(), n_schedules)

    def test_matches_execute_over_the_schedule_variants(self):
        # Oracle: one full execute per schedule, each resolving its own data.
        cfg = small_config(buffer={"capacity": 12}, adapt={"mode": "full_head", "epochs": 2})
        kinds = ("split", "gaussian", "random", "single")
        report = robustness_sweep(cfg, 5, kinds)
        specs = _sweep_schedule_specs(cfg, 5, kinds, 4)
        outcomes = [execute(dataclasses.replace(cfg, schedule=s)) for s in specs]
        assert report.schedules == [s.to_dict() for s in specs]
        assert report.stage_one_accuracies == [o.report.accuracy["stage_one"] for o in outcomes]
        assert report.adapted_accuracies == [o.report.accuracy["adapted"] for o in outcomes]
        assert report.state_max_deviation == _state_deviation([o.state for o in outcomes])

    def test_data_is_resolved_once(self, monkeypatch):
        calls = []
        original = DataConfig.resolve

        def counting_resolve(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(DataConfig, "resolve", counting_resolve)
        robustness_sweep(small_config(), 3)
        assert len(calls) == 1


def pairwise_deviation(states):
    # Oracle: the largest element-wise |a - b| over every pair of states.
    worst = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            a, b = states[i], states[j]
            if isinstance(a, NccState):
                worst = max(
                    worst,
                    float(np.abs(a.prototypes - b.prototypes).max()),
                    float(np.abs(a.counts - b.counts).max()),
                )
            else:
                worst = max(
                    worst,
                    float(np.abs(a.cov - b.cov).max()),
                    float(np.abs(a.class_sums - b.class_sums).max()),
                    float(abs(a.seen - b.seen)),
                )
    return worst


class TestStateDeviation:
    def test_equals_pairwise_oracle(self):
        rng = np.random.default_rng(61)
        for trial in range(200):
            kind = NccState if trial % 2 else RidgeState
            k, d = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            states = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(0, 12))
                states.append(kind(k, d).update_batch(
                    rng.standard_normal((n, d)), rng.integers(0, k, n)
                ))
            assert _state_deviation(states) == pairwise_deviation(states)


    def test_batching_leaves_ridge_statistics_bit_identical(self):
        # d=64 gives 64-row blocks: 1000 samples cross 15 block boundaries,
        # which ragged batches straddle.
        n = 1000
        rng = np.random.default_rng(62)
        permutation = tuple(int(i) for i in rng.permutation(n))
        cuts = np.flatnonzero(rng.random(n - 1) < 0.05) + 1
        states = []
        for bounds in (range(n + 1), [0, *cuts.tolist(), n]):
            schedule = {"kind": "explicit", "permutation": permutation,
                        "bounds": list(bounds)}
            cfg = ExperimentConfig.from_dict(config_dict(schedule=schedule))
            states.append(execute(cfg).state)
        ones, ragged = states
        assert len(cuts) > 10 and ones.seen == ragged.seen == n
        assert ones.cov.tobytes() == ragged.cov.tobytes()
        assert ones.class_sums.tobytes() == ragged.class_sums.tobytes()
        assert _state_deviation(states) == 0.0


class TestBufferStudy:
    def test_full_capacity_scenario_has_zero_exemplar_distance(self):
        cfg = small_config()
        rows, summary = buffer_study(
            cfg, shuffles=3, scenarios=((25, 10),), strategies=("exemplar",)
        )
        assert all(r["distance"] <= 1e-12 for r in rows)
        assert summary[0]["mean_distance"] <= 1e-12

    def test_row_and_summary_shapes(self, tmp_path):
        cfg = small_config()
        rows, summary = buffer_study(
            cfg, shuffles=2, scenarios=((5, 10), (10, 5)),
            strategies=("exemplar", "reservoir"),
        )
        assert len(rows) == 2 * 4 * 2 * 2  # shuffles * classes * scenarios * strategies
        assert len(summary) == 2 * 2
        out = tmp_path / "summary.csv"
        write_study_summary(summary, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "buffer_size,batch_size,strategy,mean_distance,var_distance"
        assert len(lines) == 5

    def test_minimum_shuffles(self):
        with pytest.raises(ConfigError):
            buffer_study(small_config(), shuffles=1)

    def test_non_integer_shuffles_is_config_error(self):
        with pytest.raises(ConfigError, match="shuffles must be an integer"):
            buffer_study(small_config(), shuffles=2.5)

    @pytest.mark.parametrize("scenario", [(2, 1.5), (2.5, 1), ("2", 1)])
    def test_non_integer_scenario_size_is_config_error(self, scenario):
        with pytest.raises(ConfigError, match=r"scenario .* size must be an integer"):
            buffer_study(small_config(), shuffles=2, scenarios=(scenario,))
