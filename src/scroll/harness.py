"""Experiment orchestration: configs, runs, sweeps, and reports.

A run streams a dataset through a schedule exactly once, maintaining the
stage-one classifier statistics and (optionally) a replay buffer, then
solves the stage-one predictor, adapts it on the buffer alone, and
evaluates both predictors on a held-out test split. Reports are pure
functions of their configuration, modulo wall-clock fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ._seeding import seeded_rng
from .adapt import AdaptConfig, AdaptedPredictor, adapt, init_head
from .embeddings import (
    FORMATS, EmbeddingTable, SyntheticSpec, load_embeddings, normalize, synthesize,
)
from .errors import (
    ConfigError, DataError, NoClassError, StreamReuseError, require_fields, require_float,
    require_int,
)
from .learners import LinearHead, NccState, RidgeState
from .replay import ReplayBuffer, STRATEGIES
from .schedules import ScheduleSpec, build_schedule, iter_batches

VERSION = "0.1.0"

CLASSIFIERS = ("ncc", "ridge")

_DEFAULT_STUDY_SCENARIOS = ((20, 20), (20, 80), (90, 10), (50, 50))
_DEFAULT_STUDY_STRATEGIES = ("exemplar", "reservoir")


class ConsumeOnceStream:
    """Iterator wrapper enforcing the observe-once contract of the stream."""

    def __init__(self, batches):
        self._batches = iter(batches)
        self._opened = False

    def __iter__(self):
        if self._opened:
            raise StreamReuseError("the data stream may be consumed only once")
        self._opened = True
        return self._batches


@dataclass(frozen=True)
class DataConfig:
    """Where the train and test tables come from: synthetic or files."""

    synthetic: SyntheticSpec | None = None
    train_path: str | None = None
    test_path: str | None = None
    file_format: str = "binary"

    def __post_init__(self):
        for name in ("train_path", "test_path"):
            path = getattr(self, name)
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"data.{name} must be a string, got {path!r}")
        if self.file_format not in FORMATS:
            raise ConfigError(
                f"unknown data.format {self.file_format!r}, expected one of {FORMATS}"
            )
        file_side = self.train_path is not None or self.test_path is not None
        if self.synthetic is not None and file_side:
            raise ConfigError("give either a synthetic spec or file paths, not both")
        if self.synthetic is None:
            if self.train_path is None or self.test_path is None:
                raise ConfigError("file data needs both train_path and test_path")

    @classmethod
    def from_dict(cls, d: dict) -> "DataConfig":
        require_fields(d, {"synthetic", "train_path", "test_path", "format"}, "data")
        synthetic = SyntheticSpec.from_dict(d["synthetic"]) if "synthetic" in d else None
        return cls(
            synthetic=synthetic,
            train_path=d.get("train_path"),
            test_path=d.get("test_path"),
            file_format=d.get("format", "binary"),
        )

    def to_dict(self) -> dict:
        if self.synthetic is not None:
            return {"synthetic": self.synthetic.to_dict()}
        return {
            "train_path": self.train_path,
            "test_path": self.test_path,
            "format": self.file_format,
        }

    def resolve(self) -> tuple[EmbeddingTable, EmbeddingTable]:
        """Produce normalized train and test tables.

        Each file's labels are remapped to dense ids on their own, so the
        two files must hold the same label set for the ids to name the same
        classes; otherwise :class:`DataError` names the differing labels.
        """
        if self.synthetic is not None:
            return synthesize(self.synthetic)
        train, train_labels = load_embeddings(self.train_path, self.file_format)
        test, test_labels = load_embeddings(self.test_path, self.file_format)
        if train_labels != test_labels:
            raise DataError(
                "train and test files hold different label sets: "
                f"only in train {sorted(train_labels.keys() - test_labels.keys())}, "
                f"only in test {sorted(test_labels.keys() - train_labels.keys())}"
            )
        return normalize(train), normalize(test)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to/from the CLI's JSON config."""

    data: DataConfig
    schedule: ScheduleSpec
    classifier: str = "ridge"
    ridge_lambda: float = 1.0
    buffer_capacity: int = 0
    buffer_strategy: str = "exemplar"
    buffer_seed: int = 0
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    intermediate_evals: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(
                f"unknown classifier {self.classifier!r}, expected one of {CLASSIFIERS}"
            )
        if not require_float(self.ridge_lambda, "classifier.lambda") > 0:
            raise ConfigError(f"ridge lambda must be positive, got {self.ridge_lambda}")
        require_int(self.seed, "seed")
        require_int(self.buffer_seed, "buffer.seed")
        require_int(self.buffer_capacity, "buffer.capacity", minimum=0)
        if self.buffer_strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown buffer strategy {self.buffer_strategy!r}, "
                f"expected one of {STRATEGIES}"
            )
        if self.intermediate_evals is not None:
            positions = tuple(
                int(require_int(t, "intermediate_evals entry", minimum=1))
                for t in self.intermediate_evals
            )
            object.__setattr__(self, "intermediate_evals", positions)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"data", "schedule", "classifier", "buffer", "adapt",
                 "intermediate_evals", "seed"}
        require_fields(d, known, "config")
        for required in ("data", "schedule"):
            if required not in d:
                raise ConfigError(f"config is missing {required!r}")
        data = DataConfig.from_dict(d["data"])
        schedule = ScheduleSpec.from_dict(d["schedule"])
        classifier_cfg = d.get("classifier", {"kind": "ridge"})
        require_fields(classifier_cfg, {"kind", "lambda"}, "classifier")
        if "kind" not in classifier_cfg:
            raise ConfigError("classifier config is missing 'kind'")
        buffer_cfg = d.get("buffer", {})
        require_fields(buffer_cfg, {"capacity", "strategy", "seed"}, "buffer")
        capacity = require_int(buffer_cfg.get("capacity", 0), "buffer.capacity")
        if "adapt" in d:
            adapt_cfg = AdaptConfig.from_dict(d["adapt"])
        else:
            adapt_cfg = AdaptConfig(mode="adapter" if capacity > 0 else "none")
        evals = d.get("intermediate_evals")
        if evals is not None and not isinstance(evals, list):
            raise ConfigError(f"intermediate_evals must be a list, got {evals!r}")
        return cls(
            data=data,
            schedule=schedule,
            classifier=classifier_cfg["kind"],
            ridge_lambda=classifier_cfg.get("lambda", 1.0),
            buffer_capacity=capacity,
            buffer_strategy=buffer_cfg.get("strategy", "exemplar"),
            buffer_seed=buffer_cfg.get("seed", 0),
            adapt=adapt_cfg,
            intermediate_evals=tuple(evals) if evals is not None else None,
            seed=d.get("seed", 0),
        )

    def to_dict(self) -> dict:
        out = {
            "data": self.data.to_dict(),
            "schedule": self.schedule.to_dict(),
            "classifier": {"kind": self.classifier, "lambda": self.ridge_lambda},
            "buffer": {
                "capacity": self.buffer_capacity,
                "strategy": self.buffer_strategy,
                "seed": self.buffer_seed,
            },
            "adapt": self.adapt.to_dict(),
            "seed": self.seed,
        }
        if self.intermediate_evals is not None:
            out["intermediate_evals"] = list(self.intermediate_evals)
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _evaluate(predict_batch, table: EmbeddingTable) -> tuple[float, list[float]]:
    preds = predict_batch(table.vectors)
    correct = preds == table.labels
    accuracy = float(np.mean(correct))
    # Sums of 0/1 values are exact, so each ratio has the bits of the class's
    # masked mean; a class absent from the split divides 0 by 0 into nan.
    hits = np.bincount(table.labels[correct], minlength=table.class_count)
    totals = np.bincount(table.labels, minlength=table.class_count)
    with np.errstate(invalid="ignore"):
        per_class = (hits / totals).tolist()
    return accuracy, per_class


def _new_state(cfg: ExperimentConfig, table: EmbeddingTable):
    if cfg.classifier == "ncc":
        return NccState(table.class_count, table.dim)
    return RidgeState(table.class_count, table.dim, cfg.ridge_lambda)


def _stage_one(cfg: ExperimentConfig, state):
    """The stage-one predictor and the head stage two starts from.

    A ridge system is solved once for both; NCC predicts by its own rule,
    which masks unseen classes, and starts stage two from its linear head.
    """
    head = init_head(cfg.classifier, state)
    predict = state.predict_batch if isinstance(state, NccState) else head.predict_batch
    return predict, head


class _StoredRows:
    """A buffer's content at a stream position, held as dataset indices.

    Stream batches are rows of the training table taken by dataset index,
    so the stored rows are the table's rows at the stored indices. A
    checkpoint keeps only those indices and reads the rows back when it is
    adapted. Offers what :func:`adapt` reads of a buffer.
    """

    def __init__(self, buffer: ReplayBuffer, train: EmbeddingTable):
        self._train = train
        self._indices, self._labels = buffer.training_indices()
        self._digest = buffer.content_digest()

    def total_stored(self) -> int:
        return len(self._indices)

    def training_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._train.vectors[self._indices], self._labels

    def content_digest(self) -> str:
        return self._digest


def _stream(cfg: ExperimentConfig, train, schedule, checkpoints, stop=None):
    """Stream once into fresh statistics and buffer, ending after batch ``stop``.

    Returns both plus, for each batch in ``checkpoints``, a copy of the
    statistics and the buffer's content as :class:`_StoredRows`, taken
    after it. Checkpoints are solved and adapted only after the stream:
    threaded work mid-stream would leave an OpenBLAS thread spinning
    through the small updates that follow.
    """
    state = _new_state(cfg, train)
    buffer = (
        ReplayBuffer(cfg.buffer_capacity, cfg.buffer_strategy, cfg.buffer_seed)
        if cfg.buffer_capacity > 0
        else None
    )
    snapshots: dict[int, tuple] = {}
    stream = ConsumeOnceStream(iter_batches(schedule, train))
    for t, batch in enumerate(stream, start=1):
        if buffer is not None:
            buffer.update(batch.vectors, batch.labels, batch.indices)
        state.update_batch(batch.vectors, batch.labels)
        if t in checkpoints:
            snapshots[t] = (state.copy(), _StoredRows(buffer, train) if buffer else None)
        if t == stop:
            break
    return state, buffer, snapshots


def _adapted(cfg: ExperimentConfig, head: LinearHead, buffer) -> AdaptedPredictor | None:
    """Stage two, always restarted from the stage-one ``head`` (left untouched).

    ``None`` when there is nothing to adapt: no or an empty buffer, or mode ``none``.
    """
    if buffer is None or cfg.adapt.mode == "none" or buffer.total_stored() == 0:
        return None
    if cfg.adapt.init_kind == "random":
        head = init_head(
            "random",
            class_count=head.class_count,
            dim=head.dim,
            seed=cfg.adapt.seed,
        )
        return adapt(head, buffer, cfg.adapt, init_kind="random")
    return adapt(head, buffer, cfg.adapt, init_kind=cfg.classifier)


def _unadapted(cfg: ExperimentConfig, head: LinearHead) -> AdaptedPredictor:
    """The stage-one head as the final predictor, when stage two is skipped."""
    return AdaptedPredictor(head, provenance={"init": cfg.classifier})


@dataclass
class RunOutcome:
    """Everything a finished run produced, beyond the serializable report."""

    config: ExperimentConfig
    train: EmbeddingTable
    test: EmbeddingTable
    state: NccState | RidgeState
    buffer: ReplayBuffer | None
    predictor: AdaptedPredictor
    report: "RunReport"


@dataclass
class RunReport:
    """Serializable summary of one run."""

    config: dict
    config_hash: str
    accuracy: dict
    per_class_accuracy: dict
    buffer: dict | None
    intermediate: list
    warnings: list
    timing: dict
    version: str = VERSION

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def execute(cfg: ExperimentConfig) -> RunOutcome:
    """Run one experiment end to end and keep the live objects."""
    t_start = time.perf_counter()
    train, test = cfg.data.resolve()
    return _execute_on(cfg, train, test, t_start)


def _execute_on(cfg: ExperimentConfig, train, test, t_start: float) -> RunOutcome:
    """:func:`execute` on tables already resolved from ``cfg.data``.

    The tables are read-only, so runs may share them; ``timing.total_s``
    counts from ``t_start``.
    """
    schedule = build_schedule(cfg.schedule, train.labels)
    n_batches = schedule.n_batches
    checkpoints = set()
    if cfg.intermediate_evals is not None:
        for t in cfg.intermediate_evals:
            if t > n_batches:
                raise ConfigError(
                    f"intermediate eval position {t} exceeds the {n_batches}-batch stream"
                )
            checkpoints.add(t)

    t_stream = time.perf_counter()
    state, buffer, snapshots = _stream(cfg, train, schedule, checkpoints)
    stream_s = time.perf_counter() - t_stream

    warnings: list[str] = []
    t_solve = time.perf_counter()
    stage_one, head = _stage_one(cfg, state)
    solve_s = time.perf_counter() - t_solve

    t_adapt = time.perf_counter()
    predictor = _adapted(cfg, head, buffer)
    if predictor is None:
        if cfg.adapt.mode != "none":
            warnings.append("no replay data available; adaptation skipped")
        predictor = _unadapted(cfg, head)
    warnings.extend(predictor.warnings)
    adapt_s = time.perf_counter() - t_adapt

    t_eval = time.perf_counter()
    acc_stage_one, per_class_stage_one = _evaluate(stage_one, test)
    acc_adapted, per_class_adapted = _evaluate(predictor.predict_batch, test)
    intermediate = []
    for t in sorted(snapshots):
        snap_state, snap_buffer = snapshots[t]
        snap_stage_one, snap_head = _stage_one(cfg, snap_state)
        snap_acc, _ = _evaluate(snap_stage_one, test)
        entry = {"t": t, "stage_one_accuracy": snap_acc}
        snap_pred = _adapted(cfg, snap_head, snap_buffer)
        if snap_pred is not None:
            entry["adapted_accuracy"], _ = _evaluate(snap_pred.predict_batch, test)
        else:
            entry["adapted_accuracy"] = snap_acc
        intermediate.append(entry)
    eval_s = time.perf_counter() - t_eval

    buffer_section = None
    if buffer is not None:
        warnings.extend(buffer.warnings)
        buffer_section = {
            "per_class_counts": {str(y): c for y, c in buffer.per_class_counts().items()},
            "moment_distances": {
                str(y): d for y, d in buffer.moment_distances(train).items()
            },
            "total_stored": buffer.total_stored(),
            "digest": buffer.content_digest(),
        }

    report = RunReport(
        config=cfg.to_dict(),
        config_hash=cfg.config_hash(),
        accuracy={"stage_one": acc_stage_one, "adapted": acc_adapted},
        per_class_accuracy={
            "stage_one": per_class_stage_one,
            "adapted": per_class_adapted,
        },
        buffer=buffer_section,
        intermediate=intermediate,
        warnings=warnings,
        timing={
            "stream_s": stream_s,
            "solve_s": solve_s,
            "adapt_s": adapt_s,
            "eval_s": eval_s,
            "total_s": time.perf_counter() - t_start,
        },
    )
    return RunOutcome(cfg, train, test, state, buffer, predictor, report)


def run(cfg: ExperimentConfig) -> RunReport:
    """Run one experiment and return its report."""
    return execute(cfg).report


def intermediate_predictor(cfg: ExperimentConfig, t: int) -> AdaptedPredictor:
    """The predictor available after ``t`` stream batches.

    Statistics and buffer are taken at position ``t``; the head is solved
    from them and adaptation restarts from scratch, exactly as a full run
    ending at ``t`` would do.
    """
    if require_int(t, "stream position") == 0:
        raise NoClassError("no data observed at stream position 0")
    train, _ = cfg.data.resolve()
    schedule = build_schedule(cfg.schedule, train.labels)
    if t < 0 or t > schedule.n_batches:
        raise ConfigError(
            f"stream position {t} outside the {schedule.n_batches}-batch stream"
        )
    state, buffer, _ = _stream(cfg, train, schedule, (), stop=t)
    head = init_head(cfg.classifier, state)
    return _adapted(cfg, head, buffer) or _unadapted(cfg, head)


@dataclass
class RobustnessReport:
    """Accuracies and state agreement across schedules of one config."""

    schedules: list
    stage_one_accuracies: list
    adapted_accuracies: list
    stage_one_spread: float
    adapted_spread: float
    state_max_deviation: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _sweep_schedule_specs(
    cfg: ExperimentConfig, n_schedules: int, kinds: tuple[str, ...], class_count: int
) -> list[ScheduleSpec]:
    split_sizes = [c for c in (1, 2, 5) if c <= class_count] or [1]
    specs = []
    split_uses = 0
    for i in range(n_schedules):
        kind = kinds[i % len(kinds)]
        seed = cfg.seed * 1_000_003 + 7919 * i + 13
        if kind == "split":
            c = split_sizes[split_uses % len(split_sizes)]
            split_uses += 1
            specs.append(ScheduleSpec("class_split", seed=seed, classes_per_batch=c))
        elif kind == "gaussian":
            specs.append(ScheduleSpec("gaussian", seed=seed, sigma=0.1))
        elif kind == "random":
            specs.append(ScheduleSpec("random_iid", seed=seed, batch_size=32))
        elif kind == "single":
            specs.append(ScheduleSpec("single_batch", seed=seed))
        else:
            raise ConfigError(
                f"unknown sweep schedule kind {kind!r}; "
                "expected split, gaussian, random or single"
            )
    return specs


def _state_deviation(states) -> float:
    """Largest |a - b| of one element over every pair of states: its max minus min."""
    if isinstance(states[0], NccState):
        fields = ("prototypes", "counts")
    else:
        fields = ("cov", "class_sums", "seen")
    return max(
        float(np.ptp(np.stack([getattr(s, name) for s in states]), axis=0).max())
        for name in fields
    )


def robustness_sweep(
    cfg: ExperimentConfig,
    n_schedules: int,
    kinds: tuple[str, ...] = ("split", "gaussian", "random"),
) -> RobustnessReport:
    """Run one config under many seeded schedules and compare outcomes.

    The data is resolved once and the schedules run one after another on
    the same read-only tables.
    """
    require_int(n_schedules, "n_schedules", minimum=2)
    if not kinds:
        raise ConfigError("at least one schedule kind is required")
    train, test = cfg.data.resolve()
    specs = _sweep_schedule_specs(cfg, n_schedules, tuple(kinds), train.class_count)
    outcomes = [
        _execute_on(dataclasses.replace(cfg, schedule=s), train, test, time.perf_counter())
        for s in specs
    ]
    acc_one = [o.report.accuracy["stage_one"] for o in outcomes]
    acc_star = [o.report.accuracy["adapted"] for o in outcomes]
    return RobustnessReport(
        schedules=[spec.to_dict() for spec in specs],
        stage_one_accuracies=acc_one,
        adapted_accuracies=acc_star,
        stage_one_spread=float(max(acc_one) - min(acc_one)),
        adapted_spread=float(max(acc_star) - min(acc_star)),
        state_max_deviation=_state_deviation([o.state for o in outcomes]),
    )


def buffer_study(
    cfg: ExperimentConfig,
    shuffles: int,
    scenarios=_DEFAULT_STUDY_SCENARIOS,
    strategies=_DEFAULT_STUDY_STRATEGIES,
) -> tuple[list[dict], list[dict]]:
    """Per-class buffering study over shuffled single-class streams.

    Each class of the training table is streamed on its own, ``shuffles``
    times in seeded random orders, through a fresh buffer of capacity
    ``b1`` fed ``b2`` samples at a time, for every scenario ``(b1, b2)``
    and strategy. Returns the raw rows (one per class/shuffle) and the
    per-scenario mean/variance summary of the stored-vs-population mean
    distance.
    """
    require_int(shuffles, "shuffles", minimum=2)
    for b1, b2 in scenarios:
        name = f"scenario ({b1}, {b2}) size"
        require_int(b1, name, minimum=1)
        require_int(b2, name, minimum=1)
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown buffer strategy {strategy!r}")
    train, _ = cfg.data.resolve()
    rows: list[dict] = []
    for shuffle in range(shuffles):
        for y in range(train.class_count):
            class_idx = np.flatnonzero(train.labels == y)
            order = seeded_rng(cfg.seed, 500, shuffle, y).permutation(len(class_idx))
            shuffled = class_idx[order]
            for s_i, (b1, b2) in enumerate(scenarios):
                for strat_i, strategy in enumerate(strategies):
                    sub_seed = (
                        cfg.seed + 9_000_000
                        + shuffle * 1_000_000 + y * 1000 + s_i * 10 + strat_i
                    )
                    buf = ReplayBuffer(b1, strategy, seed=sub_seed)
                    for lo in range(0, len(shuffled), b2):
                        idx = shuffled[lo:lo + b2]
                        buf.update(
                            train.vectors[idx],
                            train.labels[idx],
                            idx,
                        )
                    distance = buf.moment_distances(train)[y]
                    rows.append(
                        {
                            "b1": b1,
                            "b2": b2,
                            "strategy": strategy,
                            "class": y,
                            "seed": shuffle,
                            "distance": distance,
                        }
                    )
    summary: list[dict] = []
    for b1, b2 in scenarios:
        for strategy in strategies:
            values = np.array(
                [
                    r["distance"]
                    for r in rows
                    if r["b1"] == b1 and r["b2"] == b2 and r["strategy"] == strategy
                ]
            )
            summary.append(
                {
                    "b1": b1,
                    "b2": b2,
                    "strategy": strategy,
                    "mean_distance": float(values.mean()),
                    "var_distance": float(values.var()),
                }
            )
    return rows, summary


def write_study_summary(summary, path) -> None:
    """Emit the buffer-study summary as a CSV table."""
    with open(path, "w", newline="") as fh:
        fh.write("buffer_size,batch_size,strategy,mean_distance,var_distance\n")
        for row in summary:
            fh.write(
                f"{row['b1']},{row['b2']},{row['strategy']},"
                f"{row['mean_distance']!r},{row['var_distance']!r}\n"
            )
