"""Sample orderings and batchings that turn a dataset into a stream.

A schedule is a permutation of the sample indices plus a set of cut
points splitting the permuted sequence into contiguous batches. The
learner sees the dataset only through a schedule, one batch at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._seeding import seeded_rng
from .errors import ConfigError, from_fields, require_float, require_int
from .embeddings import EmbeddingTable

SCHEDULE_KINDS = ("single_batch", "class_split", "random_iid", "gaussian", "explicit")


@dataclass(frozen=True)
class Schedule:
    """A permutation of 0..N-1 and strictly increasing batch cut points."""

    permutation: np.ndarray
    batch_bounds: np.ndarray

    def __post_init__(self):
        perm = np.ascontiguousarray(self.permutation, dtype=np.int64)
        bounds = np.ascontiguousarray(self.batch_bounds, dtype=np.int64)
        n = perm.shape[0]
        if perm.ndim != 1 or n == 0:
            raise ConfigError("permutation must be a non-empty 1-d index array")
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ConfigError("permutation is not a bijection on 0..N-1")
        if bounds.ndim != 1 or bounds.shape[0] < 2:
            raise ConfigError("batch_bounds needs at least a start and an end")
        if bounds[0] != 0 or bounds[-1] != n or (np.diff(bounds) <= 0).any():
            raise ConfigError(
                "batch_bounds must rise strictly from 0 to N "
                f"(got {bounds.tolist()} for N={n})"
            )
        perm.setflags(write=False)
        bounds.setflags(write=False)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "batch_bounds", bounds)

    @property
    def n_samples(self) -> int:
        return self.permutation.shape[0]

    @property
    def n_batches(self) -> int:
        return self.batch_bounds.shape[0] - 1


@dataclass(frozen=True)
class ScheduleSpec:
    """Seeded recipe for building a schedule over a labeled dataset.

    Kinds:

    * ``single_batch`` -- identity order, everything in one batch.
    * ``class_split`` -- whole classes in seeded-random order,
      ``classes_per_batch`` classes per batch, the final batch absorbing
      any remainder.
    * ``random_iid`` -- uniform shuffle cut into ``batch_size`` batches.
    * ``gaussian`` -- classes drift in and out smoothly: each class gets a
      peak position on [0, 1] (centers of K equal windows, assigned in
      seeded-random order, spread scaled by ``peak_spacing``) and at
      emission step ``s = i/N`` a class with remaining samples is drawn
      with weight ``exp(-(s - peak)^2 / (2 sigma^2))``. No class
      boundaries exist.
    * ``explicit`` -- a verbatim permutation and bounds, for replay.
    """

    kind: str
    seed: int = 0
    classes_per_batch: int | None = None
    batch_size: int | None = None
    peak_spacing: float = 1.0
    sigma: float = 0.1
    permutation: tuple[int, ...] | None = None
    bounds: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(
                f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}"
            )
        require_int(self.seed, "schedule.seed")
        for name in ("sigma", "peak_spacing"):
            require_float(getattr(self, name), f"schedule.{name}")
        for name in ("classes_per_batch", "batch_size"):
            if getattr(self, name) is not None:
                require_int(getattr(self, name), f"schedule.{name}", minimum=1)
        if self.kind == "class_split" and self.classes_per_batch is None:
            raise ConfigError("class_split requires classes_per_batch >= 1")
        if self.kind == "random_iid" and self.batch_size is None:
            raise ConfigError("random_iid requires batch_size >= 1")
        if self.kind == "gaussian":
            if not self.sigma > 0:
                raise ConfigError("gaussian schedule requires sigma > 0")
            # The draw weights are exp(-x^2 / (2 sigma^2)): a sigma whose
            # 1/(2 sigma^2) is not a finite float would make them NaN.
            two_sigma_sq = 2.0 * self.sigma * self.sigma
            if not (two_sigma_sq > 0 and math.isfinite(1.0 / two_sigma_sq)):
                raise ConfigError(
                    f"gaussian schedule sigma={self.sigma!r} is too small: "
                    "1/(2 sigma^2) is not finite"
                )
            if not self.peak_spacing > 0:
                raise ConfigError("gaussian schedule requires peak_spacing > 0")
        if self.kind == "explicit":
            if self.permutation is None or self.bounds is None:
                raise ConfigError("explicit schedule requires permutation and bounds")
            for name in ("permutation", "bounds"):
                field = f"schedule.{name} entry"
                values = tuple(int(require_int(i, field)) for i in getattr(self, name))
                object.__setattr__(self, name, values)

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleSpec":
        if isinstance(d, dict) and "kind" not in d:
            raise ConfigError("schedule spec is missing 'kind'")
        return from_fields(cls, d, "schedule")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "seed": self.seed}
        if self.kind == "class_split":
            out["classes_per_batch"] = self.classes_per_batch
        elif self.kind == "random_iid":
            out["batch_size"] = self.batch_size
        elif self.kind == "gaussian":
            out["peak_spacing"] = self.peak_spacing
            out["sigma"] = self.sigma
            if self.batch_size is not None:
                out["batch_size"] = self.batch_size
        elif self.kind == "explicit":
            out["permutation"] = list(self.permutation)
            out["bounds"] = list(self.bounds)
        return out


class Batch(NamedTuple):
    """One stream step: original sample indices, their vectors and labels."""

    indices: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray


def build_schedule(spec: ScheduleSpec, labels: Sequence[int] | np.ndarray) -> Schedule:
    """Construct the concrete schedule a spec denotes for a given label array."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] == 0:
        raise ConfigError("labels must be a non-empty 1-d array")
    n = labels.shape[0]
    if spec.kind == "single_batch":
        return Schedule(np.arange(n), np.array([0, n]))
    if spec.kind == "explicit":
        return Schedule(np.array(spec.permutation), np.array(spec.bounds))
    if spec.kind == "random_iid":
        perm = seeded_rng(spec.seed, 21).permutation(n)
        bounds = _step_bounds(n, spec.batch_size)
        return Schedule(perm, bounds)
    if spec.kind == "class_split":
        return _class_split(spec, labels)
    return _gaussian(spec, labels)


def _step_bounds(n: int, step: int) -> np.ndarray:
    bounds = list(range(0, n, step)) + [n]
    if bounds[-2] == n:
        bounds.pop(-2)
    return np.array(bounds)


def _class_split(spec: ScheduleSpec, labels: np.ndarray) -> Schedule:
    k = int(labels.max()) + 1
    c = spec.classes_per_batch
    if c > k:
        raise ConfigError(f"classes_per_batch={c} exceeds the {k} classes present")
    class_order = seeded_rng(spec.seed, 22).permutation(k)
    group_sizes = [c] * (k // c)
    group_sizes[-1] += k % c
    perm_parts: list[np.ndarray] = []
    bounds = [0]
    pos = 0
    start = 0
    for size in group_sizes:
        for y in class_order[start:start + size]:
            idx = np.flatnonzero(labels == y)
            perm_parts.append(idx)
            pos += idx.shape[0]
        bounds.append(pos)
        start += size
    return Schedule(np.concatenate(perm_parts), np.array(bounds))


#: Steps whose draw weights are computed together, beyond the steps that
#: cannot drain a class. Draws after a class drains are redone.
GAUSSIAN_WINDOW = 64


def _gaussian(spec: ScheduleSpec, labels: np.ndarray) -> Schedule:
    k = int(labels.max()) + 1
    n = labels.shape[0]
    rng = seeded_rng(spec.seed, 23)
    ranks = rng.permutation(k)
    # Peaks sit at the centers of K equal windows of [0, 1], so equally
    # frequent classes drain exactly when their window ends.
    peaks = 0.5 + spec.peak_spacing * ((ranks + 0.5) / k - 0.5)
    remaining = np.bincount(labels, minlength=k)
    # Step i draws a class as Generator.choice(live, p=p) would from the
    # i-th uniform: the first class whose normalized cumulative weight
    # exceeds it.
    uniforms = rng.random(n)
    inv_two_sigma_sq = 1.0 / (2.0 * spec.sigma * spec.sigma)
    drawn = np.empty(n, dtype=np.int64)
    i = 0
    while i < n:
        live = np.flatnonzero(remaining)
        left = remaining[live]
        hi = min(n, i + max(int(left.min()), GAUSSIAN_WINDOW))
        # A square past float range gives its class weight 0.
        with np.errstate(over="ignore"):
            logw = -((np.arange(i, hi)[:, None] / n - peaks[live]) ** 2) * inv_two_sigma_sq
        top = logw.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            raise ConfigError(
                f"gaussian schedule weights overflow at sigma={spec.sigma!r}, "
                f"peak_spacing={spec.peak_spacing!r}"
            )
        w = np.exp(logw - top)
        cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        picks = (cdf <= uniforms[i:hi, None]).sum(axis=1)
        # Keep the draws up to the first one that drains a class; later
        # steps drew from a live set that no longer holds.
        counts = (picks[:, None] == np.arange(len(live))).cumsum(axis=0)
        drains = (counts == left).any(axis=1)
        stop = int(drains.argmax()) + 1 if drains.any() else hi - i
        drawn[i:i + stop] = live[picks[:stop]]
        remaining -= np.bincount(drawn[i:i + stop], minlength=k)
        i += stop
    # The j-th draw of a class takes its j-th sample in index order.
    order = np.empty(n, dtype=np.int64)
    order[np.argsort(drawn, kind="stable")] = np.argsort(labels, kind="stable")
    step = 1 if spec.batch_size is None else spec.batch_size
    return Schedule(order, _step_bounds(n, step))


def iter_batches(schedule: Schedule, table: EmbeddingTable) -> Iterator[Batch]:
    """Yield the stream of batches a schedule induces over a table.

    The concatenation of all yielded batches visits each sample exactly
    once, in permutation order.
    """
    if schedule.n_samples != table.n_samples:
        raise ConfigError(
            f"schedule covers {schedule.n_samples} samples "
            f"but table has {table.n_samples}"
        )
    for lo, hi in zip(schedule.batch_bounds[:-1], schedule.batch_bounds[1:]):
        idx = schedule.permutation[lo:hi]
        yield Batch(idx.copy(), table.vectors[idx], table.labels[idx])
