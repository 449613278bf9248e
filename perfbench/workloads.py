"""The benchmark's workloads and the seeded inputs each one runs on.

Every input is generated here from the ``--seed`` argument and written as
``SCRL`` binary embedding files; the program under test receives only
those files and a JSON config pointing at them. The generator is the
benchmark's own (not ``scroll.synthesize``), so a change to the program's
synthetic-data code cannot change what the benchmark measures.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed at which each operation's output must match ``reference.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: an input shape and the config run on it.

    ``op`` is the public harness function one operation calls: ``execute``
    (one ``scroll run``) or ``buffer_study`` with ``shuffles`` shuffles.
    """

    name: str
    op: str
    classes: int
    dim: int
    per_class: int
    spread: float
    shift: float
    schedule: dict
    classifier: dict | None = None
    buffer: dict | None = None
    adapt: dict | None = None
    intermediate_evals: tuple[int, ...] | None = None
    shuffles: int = 0

    def config(self, seed: int, train_path: str, test_path: str) -> dict:
        """The experiment config of this workload at ``seed``.

        Sub-seeds follow the acceptance study's layout (schedule +100,
        buffer +200, adaptation +300), so ``adapt-head`` at seed 0 is the
        c09 study's seed-0 config.
        """
        cfg = {
            "seed": seed,
            "data": {"train_path": train_path, "test_path": test_path, "format": "binary"},
            "schedule": {**self.schedule, "seed": seed + 100},
        }
        if self.classifier is not None:
            cfg["classifier"] = self.classifier
        if self.buffer is not None:
            cfg["buffer"] = {**self.buffer, "seed": seed + 200}
        if self.adapt is not None:
            cfg["adapt"] = {**self.adapt, "seed": seed + 300}
        if self.intermediate_evals is not None:
            cfg["intermediate_evals"] = list(self.intermediate_evals)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-gaussian", op="execute",
            classes=50, dim=128, per_class=100, spread=0.25, shift=0.1,
            schedule={"kind": "gaussian", "sigma": 0.1, "batch_size": 1},
            classifier={"kind": "ridge", "lambda": 1.0},
            buffer={"capacity": 500, "strategy": "exemplar"},
            adapt={"mode": "adapter", "epochs": 40},
        ),
        Workload(
            name="adapt-head", op="execute",
            classes=10, dim=64, per_class=100, spread=0.4, shift=0.15,
            schedule={"kind": "class_split", "classes_per_batch": 2},
            classifier={"kind": "ridge", "lambda": 1e-3},
            buffer={"capacity": 1000, "strategy": "exemplar"},
            adapt={"mode": "full_head", "epochs": 450, "temperature": 5.0,
                   "optimizer": "adadelta", "lr_head": 0.1, "lr_adapter": 0.01},
        ),
        Workload(
            name="ncc-wide", op="execute",
            classes=100, dim=256, per_class=40, spread=0.2, shift=0.0,
            schedule={"kind": "random_iid", "batch_size": 100},
            classifier={"kind": "ncc"},
            buffer={"capacity": 0},
            intermediate_evals=(10, 20, 30),
        ),
        Workload(
            name="buffer-study", op="buffer_study",
            classes=5, dim=16, per_class=100, spread=0.45, shift=0.0,
            schedule={"kind": "single_batch"},
            shuffles=30,
        ),
    )
}


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _split(means: np.ndarray, w: Workload, rng: np.random.Generator):
    rows = np.repeat(means, w.per_class, axis=0)
    rows = rows + w.spread * rng.standard_normal(rows.shape)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    labels = np.repeat(np.arange(w.classes), w.per_class)
    return rows, labels


def tables(w: Workload, seed: int):
    """Train and test ``(vectors, labels)`` of a workload, a pure function of ``seed``.

    Class means are uniform on the unit sphere; rows are a mean plus
    Gaussian noise of scale ``spread``, re-normalized. The test split
    moves every mean by ``shift`` in a random direction first.
    """
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    means = _unit_rows(rng, w.classes, w.dim)
    train = _split(means, w, rng)
    shifted = means + w.shift * _unit_rows(rng, w.classes, w.dim)
    test = _split(shifted, w, rng)
    return train, test


def write_scrl(path: Path, vectors: np.ndarray, labels: np.ndarray) -> int:
    """Write one table in the ``SCRL`` v1 layout and return its size in bytes.

    Layout (little-endian): magic, u16 version, u32 N, u32 d, u32 K, then
    N x d float32 rows and N u32 labels.
    """
    n, d = vectors.shape
    k = int(labels.max()) + 1
    blob = (
        struct.pack("<4sHIII", b"SCRL", 1, n, d, k)
        + vectors.astype("<f4").tobytes()
        + labels.astype("<u4").tobytes()
    )
    path.write_bytes(blob)
    return len(blob)


def write_inputs(w: Workload, seed: int, data_dir: Path, root: Path) -> dict:
    """Generate a workload's files under ``data_dir``; return the config and input sizes.

    Paths in the config are relative to ``root`` so that reports, and the
    reference digests taken over them, do not depend on where the
    checkout lives.
    """
    data_dir.mkdir(parents=True, exist_ok=True)
    paths, sizes = {}, {}
    for split, (vectors, labels) in zip(("train", "test"), tables(w, seed)):
        path = data_dir / f"{w.name}_{split}.bin"
        sizes[f"{split}_bytes"] = write_scrl(path, vectors, labels)
        sizes[f"{split}_n"] = int(vectors.shape[0])
        paths[split] = path.relative_to(root).as_posix()
    return {
        "config": w.config(seed, paths["train"], paths["test"]),
        "inputs": {"K": w.classes, "d": w.dim, **sizes},
    }
