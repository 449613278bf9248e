"""Labeled embedding tables: file ingestion, normalization, synthetic data.

An :class:`EmbeddingTable` is the frozen output of a feature extractor
applied to a dataset: one vector per sample plus a dense class id per
sample. All downstream learners operate on these tables, never on raw
inputs. Tables are immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._binio import Reader, Writer
from ._seeding import seeded_rng
from .errors import (
    ConfigError, DataError, DegenerateInputError, FormatError, ShapeError, require_float,
    require_int,
)

EMBEDDING_MAGIC = b"SCRL"
EMBEDDING_VERSION = 1

#: Tolerance on |row norm - 1| for a table to count as unit-normalized.
UNIT_NORM_TOL = 1e-6

FORMATS = ("binary", "csv")


@dataclass(frozen=True)
class EmbeddingTable:
    """N unit- or raw-scale feature vectors with dense integer labels.

    Invariants enforced at construction: all entries finite, labels cover
    exactly ``0..class_count-1`` with every class present, and when
    ``normalized`` is set every row has Euclidean norm 1 within
    ``UNIT_NORM_TOL``. The backing arrays are read-only.
    """

    vectors: np.ndarray
    labels: np.ndarray
    class_count: int
    normalized: bool = False

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if vectors.ndim != 2:
            raise ShapeError(f"vectors must be 2-d, got shape {vectors.shape}")
        if labels.ndim != 1 or labels.shape[0] != vectors.shape[0]:
            raise ShapeError(
                f"labels shape {labels.shape} does not match {vectors.shape[0]} rows"
            )
        if vectors.shape[0] == 0:
            raise DataError("table has no samples")
        if not np.isfinite(vectors).all():
            row = int(np.where(~np.isfinite(vectors).all(axis=1))[0][0])
            raise DataError(f"non-finite value in row {row}")
        if self.class_count < 1:
            raise DataError(f"class_count must be >= 1, got {self.class_count}")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise DataError(
                f"labels must lie in [0, {self.class_count}), "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        counts = np.bincount(labels, minlength=self.class_count)
        if (counts == 0).any():
            missing = int(np.where(counts == 0)[0][0])
            raise DataError(f"class {missing} has no samples")
        if self.normalized:
            norms = np.linalg.norm(vectors, axis=1)
            bad = np.abs(norms - 1.0) > UNIT_NORM_TOL
            if bad.any():
                row = int(np.where(bad)[0][0])
                raise DataError(
                    f"normalized flag set but row {row} has norm {norms[row]!r}"
                )
        vectors.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)


def normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every row to unit Euclidean norm.

    Already-normalized tables are returned unchanged, which makes the
    operation exactly idempotent. A zero row cannot be scaled and raises
    :class:`DegenerateInputError` naming the row.
    """
    if table.normalized:
        return table
    rows = table.vectors
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    # The sum of squares overflows for entries above ~1e154 and underflows
    # below ~1e-154. Only such rows are first divided by their largest
    # entry; every other row keeps the plain x / ||x|| bits.
    extreme = np.flatnonzero((norms == 0.0) | np.isinf(norms))
    if extreme.size:
        peaks = np.abs(rows[extreme]).max(axis=1)
        zero = extreme[peaks == 0.0]
        if zero.size:
            raise DegenerateInputError(f"row {int(zero[0])} has zero norm")
        rows = rows.copy()
        rows[extreme] /= peaks[:, None]
        norms[extreme] = np.linalg.norm(rows[extreme], axis=1)
    return EmbeddingTable(
        rows / norms[:, None], table.labels, table.class_count, normalized=True
    )


def _looks_normalized(vectors: np.ndarray) -> bool:
    # An overflowing norm is inf, which correctly reads as not unit.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def _remap_labels(raw_labels: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Map arbitrary integer labels onto dense ids 0..K-1 (sorted order)."""
    uniq, dense = np.unique(raw_labels, return_inverse=True)
    mapping = {int(orig): new for new, orig in enumerate(uniq)}
    return dense.astype(np.int64), mapping


def load_embeddings(path, fmt: str = "binary") -> tuple[EmbeddingTable, dict[int, int]]:
    """Read an embedding file and return the table plus the label mapping.

    Labels in the file may be arbitrary integers; they are remapped to
    dense ids in ascending original order, and the original->dense mapping
    is returned alongside the table. The data is not rescaled, but the
    ``normalized`` flag is set when every stored row is already unit norm.

    Raises :class:`FormatError` (naming the byte or line offset) for
    malformed content and :class:`DataError` for non-finite values.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown embedding format {fmt!r}, expected one of {FORMATS}")
    if fmt == "binary":
        with open(path, "rb") as fh:
            return _load_binary(fh.read())
    with open(path, "r", newline="") as fh:
        return _load_csv(fh)


def save_embeddings(table: EmbeddingTable, path, fmt: str = "binary") -> None:
    """Write a table in the given format; the exact mirror of ``load_embeddings``."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown embedding format {fmt!r}, expected one of {FORMATS}")
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_dump_binary(table))
    else:
        with open(path, "w", newline="") as fh:
            _dump_csv(table, fh)


def _dump_binary(table: EmbeddingTable) -> bytes:
    w = Writer()
    w.raw(EMBEDDING_MAGIC)
    w.pack(
        "HIII", EMBEDDING_VERSION, table.n_samples, table.dim, table.class_count
    )
    w.array(table.vectors, "<f4")
    w.array(table.labels, "<u4")
    return w.getvalue()


def _load_binary(data: bytes) -> tuple[EmbeddingTable, dict[int, int]]:
    r = Reader(data)
    r.expect_magic(EMBEDDING_MAGIC)
    (version,) = r.unpack("H", "version field")
    if version != EMBEDDING_VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    n, dim, k = r.unpack("III", "size header")
    if n == 0 or dim == 0 or k == 0:
        raise FormatError(f"degenerate header: N={n}, d={dim}, K={k}")
    vectors = r.array("<f4", n * dim, "embedding rows").reshape(n, dim)
    raw_labels = r.array("<u4", n, "label block").astype(np.int64)
    r.expect_end()
    if not np.isfinite(vectors).all():
        row = int(np.where(~np.isfinite(vectors).all(axis=1))[0][0])
        raise DataError(f"non-finite value in row {row}")
    labels, mapping = _remap_labels(raw_labels)
    if len(mapping) != k:
        raise FormatError(
            f"header declares {k} classes but file contains {len(mapping)} distinct labels"
        )
    vectors64 = vectors.astype(np.float64)
    table = EmbeddingTable(vectors64, labels, k, normalized=_looks_normalized(vectors64))
    return table, mapping


def _dump_csv(table: EmbeddingTable, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow([f"f{j}" for j in range(table.dim)] + ["label"])
    for row, label in zip(table.vectors, table.labels):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _load_csv(fh) -> tuple[EmbeddingTable, dict[int, int]]:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty file: missing header at line 1") from None
    if len(header) < 2 or header[-1] != "label":
        raise FormatError("line 1: header must be f0,...,f{d-1},label")
    dim = len(header) - 1
    expected = [f"f{j}" for j in range(dim)]
    if header[:-1] != expected:
        raise FormatError("line 1: header must be f0,...,f{d-1},label")
    rows: list[list[float]] = []
    raw_labels: list[int] = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != dim + 1:
            raise FormatError(
                f"line {lineno}: expected {dim + 1} fields, got {len(record)}"
            )
        try:
            values = [float(v) for v in record[:-1]]
            label = int(record[-1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if not all(np.isfinite(values)):
            raise DataError(f"line {lineno}: non-finite value")
        rows.append(values)
        raw_labels.append(label)
    if not rows:
        raise FormatError("file contains a header but no data rows")
    vectors = np.array(rows, dtype=np.float64)
    labels, mapping = _remap_labels(np.array(raw_labels, dtype=np.int64))
    table = EmbeddingTable(
        vectors, labels, len(mapping), normalized=_looks_normalized(vectors)
    )
    return table, mapping


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for generating clustered unit-vector datasets.

    Class means are drawn uniformly on the unit sphere; each sample is its
    class mean plus isotropic Gaussian noise of scale ``cluster_spread``,
    re-normalized to unit length. The test split perturbs every class mean
    by a random direction of length ``shift_strength`` before sampling,
    standing in for the mismatch between the data that produced the
    feature extractor and the data it is deployed on.
    """

    class_count: int
    dim: int
    samples_per_class: int
    cluster_spread: float = 0.0
    shift_strength: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("class_count", "dim", "samples_per_class", "seed"):
            require_int(getattr(self, name), f"synthetic.{name}")
        for name in ("cluster_spread", "shift_strength"):
            require_float(getattr(self, name), f"synthetic.{name}")
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.samples_per_class < 1:
            raise ConfigError(
                f"samples_per_class must be >= 1, got {self.samples_per_class}"
            )
        if self.cluster_spread < 0:
            raise ConfigError("cluster_spread must be non-negative")
        if self.shift_strength < 0:
            raise ConfigError("shift_strength must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        if not isinstance(d, dict):
            raise ConfigError("synthetic spec must be an object")
        known = {
            "class_count", "dim", "samples_per_class",
            "cluster_spread", "shift_strength", "seed",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown synthetic spec fields: {sorted(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"invalid synthetic spec: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "class_count": self.class_count,
            "dim": self.dim,
            "samples_per_class": self.samples_per_class,
            "cluster_spread": self.cluster_spread,
            "shift_strength": self.shift_strength,
            "seed": self.seed,
        }


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms


def _sample_split(means: np.ndarray, spec: SyntheticSpec, rng: np.random.Generator) -> EmbeddingTable:
    k, dim = means.shape
    n = spec.samples_per_class
    rows = np.repeat(means, n, axis=0)
    rows = rows + spec.cluster_spread * rng.standard_normal((k * n, dim))
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0.0).any():
        raise DegenerateInputError("sampled a zero vector; lower cluster_spread")
    rows /= norms[:, None]
    labels = np.repeat(np.arange(k, dtype=np.int64), n)
    return EmbeddingTable(rows, labels, k, normalized=True)


def synthesize(spec: SyntheticSpec) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Generate matching train and test tables, bit-deterministic in the seed."""
    means = _unit_rows(seeded_rng(spec.seed, 0), spec.class_count, spec.dim)
    train = _sample_split(means, spec, seeded_rng(spec.seed, 1))
    directions = _unit_rows(seeded_rng(spec.seed, 2), spec.class_count, spec.dim)
    shifted = means + spec.shift_strength * directions
    test = _sample_split(shifted, spec, seeded_rng(spec.seed, 3))
    return train, test
