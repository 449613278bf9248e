"""Experiment orchestration: configs, runs, sweeps, and reports.

A run streams a dataset through a schedule exactly once, maintaining the
stage-one classifier statistics and (optionally) a replay buffer, then
solves the stage-one predictor, adapts it on the buffer alone, and
evaluates both predictors on a held-out test split. Reports are pure
functions of their configuration, modulo wall-clock fields.
"""

from __future__ import annotations

import dataclasses
import functools
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
    ConfigError, DataError, StreamReuseError, require_fields, require_float, require_int,
)
from .learners import NccState, RidgeState
from .replay import ReplayBuffer, STRATEGIES
from .schedules import ScheduleSpec, build_schedule, iter_batches

VERSION = "0.1.0"

CLASSIFIERS = ("ncc", "ridge")

_DEFAULT_STUDY_SCENARIOS = ((20, 20), (20, 80), (90, 10), (50, 50))
_DEFAULT_STUDY_STRATEGIES = ("exemplar", "reservoir")

#: Streams that share one buffer in :func:`buffer_study`. A round of
#: shared herds holds every stream's pool: on the c06 study's shape, 20
#: streams raised a process's peak RSS by 0.3 MB over a buffer per stream,
#: 40 streams by 0.6 MB.
_STUDY_STREAMS = 20


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
            for i, t in enumerate(positions):
                if t in positions[:i]:
                    raise ConfigError(f"intermediate_evals repeats position {t}")
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


def _class_members(table: EmbeddingTable) -> list[np.ndarray]:
    """Each class's row indices in ascending order, by class id, from one stable argsort."""
    order = np.argsort(table.labels, kind="stable")
    counts = np.bincount(table.labels, minlength=table.class_count)
    return np.split(order, np.cumsum(counts)[:-1])


def _class_means(table: EmbeddingTable, members=None) -> list[np.ndarray]:
    """Each class's mean row, by class id: the targets of ``moment_distances``.

    ``members`` is :func:`_class_members` of the table, computed when not given.
    """
    members = _class_members(table) if members is None else members
    return [table.vectors[rows].mean(axis=0) for rows in members]


def _new_state(cfg: ExperimentConfig, table: EmbeddingTable):
    if cfg.classifier == "ncc":
        return NccState(table.class_count, table.dim)
    return RidgeState(table.class_count, table.dim, cfg.ridge_lambda)


def _stream(cfg: ExperimentConfig, train, schedule, timing: dict):
    """Stream once into fresh statistics and buffer, fitting each checkpoint on the way.

    Returns both plus, for each ``intermediate_evals`` position, the
    :func:`_fit` of the statistics and the buffer after that batch, adding
    its times to ``timing``. NCC's statistics are fitted as a copy, which
    its stage-one predictor reads when it is scored; a ridge fit reads the
    live statistics only while it solves. Checkpoints are scored only after
    the stream: a test-set evaluation threads, and would leave an OpenBLAS
    thread spinning through the updates and fits that follow. A fit stays
    on one thread for NCC, and for ridge while d <= 1088 and d * K <=
    65,536; past that a checkpoint's solve may thread. No benchmark
    workload is that wide.
    """
    state = _new_state(cfg, train)
    buffer = (
        ReplayBuffer(cfg.buffer_capacity, cfg.buffer_strategy, cfg.buffer_seed)
        if cfg.buffer_capacity > 0
        else None
    )
    checkpoints = set(cfg.intermediate_evals or ())
    fits: dict[int, tuple] = {}
    stream = ConsumeOnceStream(iter_batches(schedule, train))
    for t, batch in enumerate(stream, start=1):
        if buffer is not None:
            buffer.update(batch.vectors, batch.labels, batch.indices)
        state.update_batch(batch.vectors, batch.labels)
        if t in checkpoints:
            fits[t] = _fit(cfg, state.copy() if isinstance(state, NccState) else state,
                           buffer, timing)
    return state, buffer, fits


def _fit(cfg: ExperimentConfig, state, buffer, timing: dict):
    """Solve and adapt one stream position: the end of the stream or a checkpoint.

    Returns the stage-one predict function, the stage-one head and the
    adapted predictor, and adds the position's times to ``timing``'s
    ``solve_s`` and ``adapt_s``. A ridge system is solved once for both
    stages; NCC predicts by its own rule, which reads ``state`` and masks
    unseen classes, and starts stage two from its linear head. Stage two
    always restarts from that head (left untouched); the predictor is
    ``None`` when there is nothing to adapt: no or an empty buffer, or
    mode ``none``.
    """
    t_solve = time.perf_counter()
    head = init_head(cfg.classifier, state)
    predict = state.predict_batch if isinstance(state, NccState) else head.predict_batch
    t_adapt = time.perf_counter()
    predictor = None
    if buffer is not None and cfg.adapt.mode != "none" and buffer.total_stored() > 0:
        init, kind = head, cfg.classifier
        if cfg.adapt.init_kind == "random":
            init = init_head("random", class_count=head.class_count, dim=head.dim,
                             seed=cfg.adapt.seed)
            kind = "random"
        predictor = adapt(init, buffer, cfg.adapt, init_kind=kind)
    timing["solve_s"] += t_adapt - t_solve
    timing["adapt_s"] += time.perf_counter() - t_adapt
    return predict, head, predictor


def _score(predict, predictor, test: EmbeddingTable, timing: dict):
    """The stage-one and adapted ``(accuracy, per_class)`` of one fit on ``test``.

    With nothing adapted (``predictor`` is ``None``), the adapted scores
    are the stage-one scores; at the end of the stream every class has
    been seen, so NCC's masked prediction is then its head's. The time is
    added to ``timing``'s ``eval_s``.
    """
    t_eval = time.perf_counter()
    stage_one = _evaluate(predict, test)
    adapted = stage_one if predictor is None else _evaluate(predictor.predict_batch, test)
    timing["eval_s"] += time.perf_counter() - t_eval
    return stage_one, adapted


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
    last = max(cfg.intermediate_evals or (), default=0)
    if last > schedule.n_batches:
        raise ConfigError(f"intermediate eval position {last} exceeds the "
                          f"{schedule.n_batches}-batch stream")

    timing = {"stream_s": 0.0, "solve_s": 0.0, "adapt_s": 0.0, "eval_s": 0.0}
    t_stream = time.perf_counter()
    state, buffer, fits = _stream(cfg, train, schedule, timing)
    timing["stream_s"] = time.perf_counter() - t_stream - timing["solve_s"] - timing["adapt_s"]

    predict, head, predictor = _fit(cfg, state, buffer, timing)
    stage_one, adapted = _score(predict, predictor, test, timing)
    warnings: list[str] = []
    if predictor is None:
        if cfg.adapt.mode != "none":
            warnings.append("no replay data available; adaptation skipped")
        predictor = AdaptedPredictor(head, provenance={"init": cfg.classifier})
    warnings.extend(predictor.warnings)
    intermediate = []
    for t in sorted(fits):
        fit_predict, _, fit_predictor = fits[t]
        fit_one, fit_adapted = _score(fit_predict, fit_predictor, test, timing)
        intermediate.append(
            {"t": t, "stage_one_accuracy": fit_one[0], "adapted_accuracy": fit_adapted[0]}
        )

    buffer_section = None
    if buffer is not None:
        warnings.extend(buffer.warnings)
        buffer_section = {
            "per_class_counts": {str(y): c for y, c in buffer.per_class_counts().items()},
            "moment_distances": {
                str(y): d for y, d in buffer.moment_distances(_class_means(train)).items()
            },
            "total_stored": buffer.total_stored(),
            "digest": buffer.content_digest(),
        }

    report = RunReport(
        config=cfg.to_dict(),
        config_hash=cfg.config_hash(),
        accuracy={"stage_one": stage_one[0], "adapted": adapted[0]},
        per_class_accuracy={"stage_one": stage_one[1], "adapted": adapted[1]},
        buffer=buffer_section,
        intermediate=intermediate,
        warnings=warnings,
        timing={**timing, "total_s": time.perf_counter() - t_start},
    )
    return RunOutcome(cfg, train, test, state, buffer, predictor, report)


def run(cfg: ExperimentConfig) -> RunReport:
    """Run one experiment and return its report."""
    return execute(cfg).report


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


def _widen(extremes: dict, state) -> dict:
    """``extremes`` widened by ``state``: each state field's elementwise ``(min, max)``."""
    names = ("prototypes", "counts") if isinstance(state, NccState) else ("cov", "class_sums", "seen")
    for name in names:
        value = getattr(state, name)
        low, high = extremes.get(name, (value, value))
        extremes[name] = (np.minimum(low, value), np.maximum(high, value))
    return extremes


def _deviation(extremes: dict) -> float:
    """Largest |a - b| of one element over every pair of states :func:`_widen` took."""
    return max(float((high - low).max()) for low, high in extremes.values())


def _state_deviation(states) -> float:
    """Largest |a - b| of one element over every pair of states: its max minus min."""
    return _deviation(functools.reduce(_widen, states, {}))


def robustness_sweep(
    cfg: ExperimentConfig,
    n_schedules: int,
    kinds: tuple[str, ...] = ("split", "gaussian", "random"),
) -> RobustnessReport:
    """Run one config under many seeded schedules and compare outcomes.

    The data is resolved once and the schedules run one after another on
    the same read-only tables. A run is dropped before the next starts:
    the sweep keeps its accuracies and each state field's elementwise
    minimum and maximum so far, whose largest difference is
    ``state_max_deviation``.
    """
    require_int(n_schedules, "n_schedules", minimum=2)
    if not kinds:
        raise ConfigError("at least one schedule kind is required")
    train, test = cfg.data.resolve()
    specs = _sweep_schedule_specs(cfg, n_schedules, tuple(kinds), train.class_count)
    acc_one, acc_star, extremes = [], [], {}
    for spec in specs:
        outcome = _execute_on(dataclasses.replace(cfg, schedule=spec), train, test,
                              time.perf_counter())
        acc_one.append(outcome.report.accuracy["stage_one"])
        acc_star.append(outcome.report.accuracy["adapted"])
        _widen(extremes, outcome.state)
        del outcome  # the next schedule runs without this one's state, buffer and predictor
    return RobustnessReport(
        schedules=[spec.to_dict() for spec in specs],
        stage_one_accuracies=acc_one,
        adapted_accuracies=acc_star,
        stage_one_spread=float(max(acc_one) - min(acc_one)),
        adapted_spread=float(max(acc_star) - min(acc_star)),
        state_max_deviation=_deviation(extremes),
    )


def buffer_study(
    cfg: ExperimentConfig,
    shuffles: int,
    scenarios=_DEFAULT_STUDY_SCENARIOS,
    strategies=_DEFAULT_STUDY_STRATEGIES,
) -> tuple[list[dict], list[dict]]:
    """Per-class buffering study over shuffled single-class streams.

    Each class of the training table is streamed on its own, ``shuffles``
    times in seeded random orders, into ``b1`` buffer slots fed ``b2``
    samples at a time, for every scenario ``(b1, b2)`` and strategy.
    Returns the raw rows (one per class/shuffle) and the per-scenario
    mean/variance summary of the stored-vs-population mean distance.

    A ``reservoir`` stream gets a buffer of its own, since reservoir draws
    come from one generator per buffer. The other strategies choose per
    class, so up to ``_STUDY_STREAMS`` streams share one buffer of that
    many times ``b1`` slots, each stream as its own class, one batch of
    every stream per update. Every stream arrives in the first update, so
    each has ``b1`` slots throughout, and every class ends with the rows
    a buffer of its own keeps: the streams' herds run in shared rounds.
    Streams are drawn one group at a time, and every scenario and strategy
    runs over a group before the next, so at most ``_STUDY_STREAMS``
    streams are held at once.
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
    classes = train.class_count
    members = _class_members(train)
    means = _class_means(train, members)
    count = shuffles * classes  # stream i: class i % classes in shuffle i // classes
    distances = np.empty((len(scenarios), len(strategies), count))
    for first in range(0, count, _STUDY_STREAMS):
        group = range(first, min(first + _STUDY_STREAMS, count))
        streams = []
        for i in group:
            shuffle, y = divmod(i, classes)
            order = seeded_rng(cfg.seed, 500, shuffle, y).permutation(len(members[y]))
            streams.append(members[y][order])
        targets = [means[i % classes] for i in group]
        for s_i, (b1, b2) in enumerate(scenarios):
            for strat_i, strategy in enumerate(strategies):
                if strategy == "reservoir":
                    found = []
                    for i, stream, target in zip(group, streams, targets):
                        shuffle, y = divmod(i, classes)
                        seed = cfg.seed + 9_000_000 + shuffle * 1_000_000 + y * 1000
                        seed += s_i * 10 + strat_i
                        found += _study_distances(train, [stream], [target], b1, b2, strategy, seed)
                else:
                    # Only reservoir draws from the buffer's generator.
                    found = _study_distances(train, streams, targets, b1, b2, strategy, cfg.seed)
                distances[s_i, strat_i, first : first + len(found)] = found
    rows = [
        {
            "b1": b1,
            "b2": b2,
            "strategy": strategy,
            "class": i % classes,
            "seed": i // classes,
            "distance": float(distances[s_i, strat_i, i]),
        }
        for i in range(count)
        for s_i, (b1, b2) in enumerate(scenarios)
        for strat_i, strategy in enumerate(strategies)
    ]
    # Each scenario and strategy's distances, in stream order.
    summary = [
        {
            "b1": b1,
            "b2": b2,
            "strategy": strategy,
            "mean_distance": float(distances[s_i, strat_i].mean()),
            "var_distance": float(distances[s_i, strat_i].var()),
        }
        for s_i, (b1, b2) in enumerate(scenarios)
        for strat_i, strategy in enumerate(strategies)
    ]
    return rows, summary


def _study_distances(train, streams, targets, b1, b2, strategy, seed) -> list[float]:
    """Each stream's stored-vs-target mean distance after one shared buffer.

    The buffer has ``b1`` slots per stream, each stream is its own class,
    and every update takes the next ``b2`` rows of every stream.
    """
    buf = ReplayBuffer(len(streams) * b1, strategy, seed=seed)
    for at in range(0, max(map(len, streams)), b2):
        parts = [stream[at : at + b2] for stream in streams]
        idx = np.concatenate(parts)
        labels = np.repeat(np.arange(len(streams)), [len(part) for part in parts])
        buf.update(train.vectors[idx], labels, idx)
    return list(buf.moment_distances(targets).values())


def write_study_summary(summary, path) -> None:
    """Emit the buffer-study summary as a CSV table."""
    with open(path, "w", newline="") as fh:
        fh.write("buffer_size,batch_size,strategy,mean_distance,var_distance\n")
        for row in summary:
            fh.write(
                f"{row['b1']},{row['b2']},{row['strategy']},"
                f"{row['mean_distance']!r},{row['var_distance']!r}\n"
            )
