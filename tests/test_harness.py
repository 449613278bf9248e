import dataclasses
import gc
import json
import tracemalloc
import weakref
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from scroll import (
    ConfigError,
    DataError,
    EmbeddingTable,
    ExperimentConfig,
    NccState,
    RidgeState,
    StreamReuseError,
    buffer_study,
    execute,
    normalize,
    robustness_sweep,
    run,
    save_embeddings,
    write_study_summary,
)
from scroll import harness
from scroll._seeding import seeded_rng
from scroll.harness import (
    ConsumeOnceStream, DataConfig, _class_means, _class_members, _evaluate, _fit,
    _state_deviation, _stream, _sweep_schedule_specs,
)
from scroll.learners import RIDGE_BLOCK_ROWS
from scroll.replay import STRATEGIES, ReplayBuffer
from scroll.schedules import build_schedule, iter_batches


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


def fit_timing():
    """The times :func:`_stream` adds its checkpoint fits to."""
    return {"solve_s": 0.0, "adapt_s": 0.0}


def stream_prefix(cfg, train, t):
    """Oracle: the first ``t`` batches of the schedule streamed into a fresh
    state and buffer, as a run that ended there would hold them."""
    if cfg.classifier == "ncc":
        state = NccState(train.class_count, train.dim)
    else:
        state = RidgeState(train.class_count, train.dim, cfg.ridge_lambda)
    buffer = None
    if cfg.buffer_capacity:
        buffer = ReplayBuffer(cfg.buffer_capacity, cfg.buffer_strategy, cfg.buffer_seed)
    schedule = build_schedule(cfg.schedule, train.labels)
    for batch in islice(iter_batches(schedule, train), t):
        if buffer is not None:
            buffer.update(batch.vectors, batch.labels, batch.indices)
        state.update_batch(batch.vectors, batch.labels)
    return state, buffer


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

    @pytest.mark.parametrize("mode", ["adapter", "full_head"])
    def test_no_buffer_with_an_adapt_mode_warns_that_adaptation_is_skipped(self, mode):
        report = run(small_config(adapt={"mode": mode}))
        assert report.buffer is None
        assert report.warnings == ["no replay data available; adaptation skipped"]

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
        assert normalize(train) is train and normalize(test) is test
        tables = 2 * (n * d + n) * 8
        payload = (tmp_path / "test.bin").stat().st_size
        assert peak <= tables + payload + 2**20


class TestCheckpoints:
    def test_checkpoints_hold_no_buffer_rows(self):
        # A 4000-slot reservoir that stores every row, ten checkpoints. A
        # checkpoint that copied the buffer held 4000 x d floats; a fit
        # holds its stage-one head and its adapted predictor.
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
            state, buffer, fits = _stream(cfg, train, schedule, fit_timing())
            held = tracemalloc.get_traced_memory()[0]
            assert sorted(fits) == list(cfg.intermediate_evals)
            del fits
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert buffer.total_stored() == 4000
        statistics = state.cov.nbytes + state.class_sums.nbytes + RIDGE_BLOCK_ROWS * d * 8
        stored_rows = 4000 * d * 8
        assert freed < 10 * (statistics + stored_rows // 4)

    @pytest.mark.parametrize("strategy", ["exemplar", "reservoir", "nearest", "outlier"])
    def test_checkpoint_content_matches_a_buffer_copy(self, strategy):
        # The fit at t=3 is, byte for byte, the fit of a run that ended there.
        cfg = small_config(
            schedule={"kind": "random_iid", "batch_size": 7, "seed": 3},
            buffer={"capacity": 30, "strategy": strategy, "seed": 2},
            intermediate_evals=[3],
        )
        train, _ = cfg.data.resolve()
        schedule = build_schedule(cfg.schedule, train.labels)
        _, _, fits = _stream(cfg, train, schedule, fit_timing())
        _, head, predictor = fits[3]
        state, buffer = stream_prefix(cfg, train, 3)
        _, want_head, want = _fit(cfg, state, buffer, fit_timing())

        def arrays(head, predictor):
            adapted, adapter = predictor.head, predictor.adapter
            return [head.weights, head.biases, adapted.weights, adapted.biases,
                    adapter.down, adapter.up]

        for got, expected in zip(arrays(head, predictor), arrays(want_head, want)):
            assert got.tobytes() == expected.tobytes()
        assert predictor.provenance == want.provenance
        assert predictor.provenance["buffer"] == buffer.content_digest()

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
        state, _ = stream_prefix(cfg, outcome.train, 2)
        preds = _fit(cfg, state, None, fit_timing())[0](outcome.test.vectors)
        assert entry["stage_one_accuracy"] == float(np.mean(preds == outcome.test.labels))
        assert entry["stage_one_accuracy"] < outcome.report.accuracy["stage_one"]


class TestIntermediatePredictor:
    """The predictors ``intermediate_evals`` scores at stream positions."""

    @staticmethod
    def accuracies_at(cfg, train, test, t):
        """Oracle: the stage-one and adapted accuracies of a run that ended after batch t."""
        state, buffer = stream_prefix(cfg, train, t)
        stage_one, _, adapted = _fit(cfg, state, buffer, fit_timing())
        stage_one_acc = float(np.mean(stage_one(test.vectors) == test.labels))
        if adapted is None:
            return stage_one_acc, stage_one_acc
        return stage_one_acc, float(np.mean(adapted.predict_batch(test.vectors) == test.labels))

    def test_final_position_matches_run(self):
        cfg = small_config(buffer={"capacity": 16}, adapt={"mode": "adapter", "epochs": 2},
                           intermediate_evals=[2])  # class_split c=2 over 4 classes
        report = run(cfg)
        (entry,) = report.intermediate
        assert entry["stage_one_accuracy"] == report.accuracy["stage_one"]
        assert entry["adapted_accuracy"] == report.accuracy["adapted"]

    def test_mid_stream_position_matches_run(self):
        # Every position, the last included, for both classifiers with and
        # without adaptation. Mixed-class batches of 30 rows: 4 batches, the
        # last of 10 rows; at this spread the accuracies change along the stream.
        for kind in ("ncc", "ridge"):
            for adapt in ({"mode": "none"}, {"mode": "adapter", "epochs": 2}):
                d = config_dict(
                    schedule={"kind": "random_iid", "batch_size": 30, "seed": 3},
                    classifier={"kind": kind}, buffer={"capacity": 16, "seed": 2},
                    adapt=adapt, intermediate_evals=[1, 2, 3, 4],
                )
                d["data"]["synthetic"].update(
                    {"class_count": 4, "dim": 16, "samples_per_class": 25, "cluster_spread": 0.6}
                )
                cfg = ExperimentConfig.from_dict(d)
                outcome = execute(cfg)
                entries = outcome.report.intermediate
                assert [entry["t"] for entry in entries] == [1, 2, 3, 4]
                for entry in entries:
                    want = self.accuracies_at(cfg, outcome.train, outcome.test, entry["t"])
                    got = (entry["stage_one_accuracy"], entry["adapted_accuracy"])
                    assert got == want, (kind, adapt["mode"], entry["t"])

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
        assert solved == [50, 100]  # the checkpoint at t=1, then the final state

    def test_every_fit_comes_before_the_first_evaluation(self, monkeypatch):
        # A test-set evaluation threads. Scored between fits, it left an
        # OpenBLAS thread spinning through the next position's adaptation.
        calls = []
        adapt, evaluate = harness.adapt, harness._evaluate

        def spy_adapt(*args, **kwargs):
            calls.append("adapt")
            return adapt(*args, **kwargs)

        def spy_evaluate(*args):
            calls.append("evaluate")
            return evaluate(*args)

        monkeypatch.setattr(harness, "adapt", spy_adapt)
        monkeypatch.setattr(harness, "_evaluate", spy_evaluate)
        cfg = small_config(
            schedule={"kind": "random_iid", "batch_size": 30, "seed": 3},
            buffer={"capacity": 16}, adapt={"mode": "adapter", "epochs": 2},
            intermediate_evals=[1, 2],
        )
        timing = execute(cfg).report.timing
        assert calls == ["adapt"] * 3 + ["evaluate"] * 6
        parts = [value for name, value in timing.items() if name != "total_s"]
        assert min(parts) >= 0
        assert sum(parts) <= timing["total_s"]

    @pytest.mark.parametrize("t", [1.5, True])
    def test_non_integer_position_is_config_error(self, t):
        # True would act as position 1.
        with pytest.raises(ConfigError, match="^intermediate_evals entry must be an integer"):
            ExperimentConfig.from_dict(config_dict(intermediate_evals=[1, t]))

    def test_repeated_position_is_config_error(self):
        # [3, 1, 1] once kept all three positions in the config echo but
        # reported two entries, t=1 and t=3.
        with pytest.raises(ConfigError, match="intermediate_evals repeats position 1"):
            ExperimentConfig.from_dict(config_dict(intermediate_evals=[3, 1, 1]))

    def test_position_out_of_range(self):
        # class_split c=2 over 4 classes: 2 batches.
        assert len(run(small_config(intermediate_evals=[2])).intermediate) == 1
        with pytest.raises(ConfigError, match="position 3 exceeds the 2-batch stream"):
            run(small_config(intermediate_evals=[3]))

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

    def test_empty_kind_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one schedule kind"):
            robustness_sweep(small_config(), 2, ())

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

    @pytest.mark.parametrize("classifier", ["ncc", "ridge"])
    def test_holds_one_run_at_a_time(self, monkeypatch, classifier):
        # Every run's statistics, buffer and predictor were kept to the end
        # of the sweep, so its memory grew with the number of schedules.
        runs, original = [], harness._execute_on

        def watched(*args):
            gc.collect()
            assert [ref() for ref in runs] == [None] * len(runs)
            outcome = original(*args)
            runs.extend(weakref.ref(part) for part in (outcome.state, outcome.buffer))
            return outcome

        monkeypatch.setattr(harness, "_execute_on", watched)
        cfg = small_config(classifier={"kind": classifier}, buffer={"capacity": 12})
        report = robustness_sweep(cfg, 4)
        assert len(runs) == 8 and report.state_max_deviation < 1e-9


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


class TestClassMeans:
    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_boolean_mask_means_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 30))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, int(rng.integers(0, 300)))])
        rng.shuffle(labels)
        scales = 10.0 ** rng.integers(-3, 4, (len(labels), 1))
        table = EmbeddingTable(rng.standard_normal((len(labels), 7)) * scales, labels, k)
        masks = [table.labels == y for y in range(k)]
        members = _class_members(table)
        assert [m.tolist() for m in members] == [np.flatnonzero(m).tolist() for m in masks]
        expected = [table.vectors[m].mean(axis=0).tobytes() for m in masks]
        assert [m.tobytes() for m in _class_means(table)] == expected
        assert [m.tobytes() for m in _class_means(table, members)] == expected


def per_stream_study(cfg, shuffles, scenarios, strategies):
    """The buffering study with one buffer per stream, read by ``moment_distances``."""
    train, _ = cfg.data.resolve()
    means = _class_means(train)
    rows = []
    for shuffle in range(shuffles):
        for y in range(train.class_count):
            class_idx = np.flatnonzero(train.labels == y)
            order = seeded_rng(cfg.seed, 500, shuffle, y).permutation(len(class_idx))
            shuffled = class_idx[order]
            for s_i, (b1, b2) in enumerate(scenarios):
                for strat_i, strategy in enumerate(strategies):
                    seed = (cfg.seed + 9_000_000 + shuffle * 1_000_000 + y * 1000
                            + s_i * 10 + strat_i)
                    buf = ReplayBuffer(b1, strategy, seed=seed)
                    for lo in range(0, len(shuffled), b2):
                        idx = shuffled[lo : lo + b2]
                        buf.update(train.vectors[idx], train.labels[idx], idx)
                    rows.append({"b1": b1, "b2": b2, "strategy": strategy, "class": y,
                                 "seed": shuffle, "distance": buf.moment_distances(means)[y]})
    summary = []
    for b1, b2 in scenarios:
        for strategy in strategies:
            values = np.array([r["distance"] for r in rows
                               if (r["b1"], r["b2"], r["strategy"]) == (b1, b2, strategy)])
            summary.append({"b1": b1, "b2": b2, "strategy": strategy,
                            "mean_distance": float(values.mean()),
                            "var_distance": float(values.var())})
    return rows, summary


def assert_same_study(cfg, shuffles, scenarios):
    """``buffer_study`` gives the per-stream study's records, floats compared by bits."""
    def bits(records):
        return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
                for r in records]

    got = buffer_study(cfg, shuffles, scenarios, STRATEGIES)
    want = per_stream_study(cfg, shuffles, scenarios, STRATEGIES)
    for got_records, want_records in zip(got, want):
        assert bits(got_records) == bits(want_records)


class TestBufferStudy:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_shared_buffers_match_one_buffer_per_stream(self, seed):
        # 25 rows per class: b2 = 4 and 6 do not divide them, b1 = 30 and
        # 25 hold a whole class, and b1 = 1 and b2 = 1 are the extremes.
        # The streams make one full shared buffer and a partial one.
        shuffles = harness._STUDY_STREAMS // 4 + 2
        scenarios = ((7, 4), (30, 6), (1, 3), (5, 1), (25, 25), (1, 1))
        assert_same_study(small_config(seed=seed), shuffles, scenarios)

    def test_streams_of_different_lengths_match_one_buffer_per_stream(self, tmp_path):
        # Classes of 1 to 23 rows: the streams sharing a buffer run out at
        # different batch positions, and a one-row class is whole at once.
        rng = np.random.default_rng(63)
        labels = np.repeat(np.arange(5), [9, 1, 23, 4, 14])
        table = EmbeddingTable(rng.standard_normal((len(labels), 8)), labels, 5)
        for split in ("train", "test"):
            save_embeddings(table, tmp_path / f"{split}.bin")
        cfg = ExperimentConfig.from_dict({
            "seed": 7,
            "data": {"train_path": str(tmp_path / "train.bin"),
                     "test_path": str(tmp_path / "test.bin")},
            "schedule": {"kind": "single_batch"},
        })
        shuffles = harness._STUDY_STREAMS // 5 + 2
        assert_same_study(cfg, shuffles, ((4, 3), (2, 5), (30, 1), (9, 9)))

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

    def test_unknown_strategy_is_rejected_before_the_data_is_read(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "data": {"train_path": str(tmp_path / "missing_train.bin"),
                     "test_path": str(tmp_path / "missing_test.bin")},
            "schedule": {"kind": "single_batch"},
        })
        with pytest.raises(ConfigError, match="unknown buffer strategy 'sorted'"):
            buffer_study(cfg, 2, strategies=("exemplar", "sorted"))

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
