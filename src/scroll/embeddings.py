"""Labeled embedding tables: file ingestion, normalization, synthetic data.

An :class:`EmbeddingTable` is the frozen output of a feature extractor
applied to a dataset: one vector per sample plus a dense class id per
sample. All downstream learners operate on these tables, never on raw
inputs. Tables are immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np

from ._binio import Reader, Writer
from ._seeding import seeded_rng
from .errors import (
    ConfigError, DataError, DegenerateInputError, FormatError, ShapeError, all_finite,
    from_fields, require_float, require_int,
)

EMBEDDING_MAGIC = b"SCRL"
EMBEDDING_VERSION = 1

#: Tolerance on |row norm - 1| for a table to count as unit-normalized.
UNIT_NORM_TOL = 1e-6

FORMATS = ("binary", "csv")

#: Most entries one block of :func:`_row_norms` squares at a time.
_NORM_BLOCK_ELEMENTS = 2**16


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
        if not all_finite(vectors):
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
            norms = _row_norms(vectors)
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
        norms = _row_norms(rows)
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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)`` of float64 rows, bit for bit, in row blocks.

    The one-shot call squares the whole table into one temporary. Here each
    block of about ``_NORM_BLOCK_ELEMENTS`` entries is squared and summed on
    its own; every row still reduces alone, so the bits are the same.
    """
    step = max(1, _NORM_BLOCK_ELEMENTS // max(rows.shape[1], 1))
    norms = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], step):
        norms[lo:lo + step] = np.linalg.norm(rows[lo:lo + step], axis=1)
    return norms


def _loaded_table(vectors: np.ndarray, labels: np.ndarray, class_count: int) -> EmbeddingTable:
    """A checked table of a file's rows, flagged ``normalized`` when every row is unit norm.

    The table is checked unflagged, so a non-finite row raises its
    :class:`DataError` first; then one pass of row norms sets the flag,
    which the constructor would otherwise verify with a second pass.
    """
    table = EmbeddingTable(vectors, labels, class_count)
    # An overflowing norm is inf, which correctly reads as not unit.
    with np.errstate(over="ignore"):
        norms = _row_norms(table.vectors)
    object.__setattr__(table, "normalized", bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL)))
    return table


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
        return _load_binary(Reader.read_file(path, EMBEDDING_MAGIC, EMBEDDING_VERSION, "embedding"))
    with open(path, "r", newline="") as fh:
        try:
            return _load_csv(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"CSV file is not valid text: {exc}") from None


def save_embeddings(table: EmbeddingTable, path, fmt: str = "binary") -> None:
    """Write a table in the given format; the exact mirror of ``load_embeddings``."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown embedding format {fmt!r}, expected one of {FORMATS}")
    if fmt == "binary":
        w = Writer(EMBEDDING_MAGIC, EMBEDDING_VERSION)
        w.pack("III", table.n_samples, table.dim, table.class_count)
        w.array(table.vectors, "<f4")
        w.array(table.labels, "<u4")
        w.save(path)
    else:
        with open(path, "w", newline="") as fh:
            _dump_csv(table, fh)


def _load_binary(r: Reader) -> tuple[EmbeddingTable, dict[int, int]]:
    n, dim, k = r.unpack("III", "size header")
    if n == 0 or dim == 0 or k == 0:
        raise FormatError(f"degenerate header: N={n}, d={dim}, K={k}")
    vectors = r.array("<f4", n * dim, "embedding rows").reshape(n, dim)
    raw_labels = r.array("<u4", n, "label block").astype(np.int64)
    r.expect_end()
    labels, mapping = _remap_labels(raw_labels)
    if len(mapping) != k:
        raise FormatError(
            f"header declares {k} classes but file contains {len(mapping)} distinct labels"
        )
    return _loaded_table(vectors.astype(np.float64), labels, k), mapping


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
    return _loaded_table(vectors, labels, len(mapping)), mapping


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
        for name, minimum in (("class_count", 2), ("dim", 2), ("samples_per_class", 1)):
            require_int(getattr(self, name), f"synthetic.{name}", minimum)
        require_int(self.seed, "synthetic.seed")
        for name in ("cluster_spread", "shift_strength"):
            require_float(getattr(self, name), f"synthetic.{name}")
        if self.cluster_spread < 0:
            raise ConfigError("cluster_spread must be non-negative")
        if self.shift_strength < 0:
            raise ConfigError("shift_strength must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        return from_fields(cls, d, "synthetic")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms


def _sample_split(means: np.ndarray, spec: SyntheticSpec, rng: np.random.Generator) -> EmbeddingTable:
    k, dim = means.shape
    n = spec.samples_per_class
    rows = np.repeat(means, n, axis=0)
    # A noise entry beyond the float range is inf, which the table rejects.
    with np.errstate(over="ignore"):
        rows = rows + spec.cluster_spread * rng.standard_normal((k * n, dim))
    labels = np.repeat(np.arange(k, dtype=np.int64), n)
    return normalize(EmbeddingTable(rows, labels, k))


def synthesize(spec: SyntheticSpec) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Generate matching train and test tables, bit-deterministic in the seed."""
    means = _unit_rows(seeded_rng(spec.seed, 0), spec.class_count, spec.dim)
    train = _sample_split(means, spec, seeded_rng(spec.seed, 1))
    directions = _unit_rows(seeded_rng(spec.seed, 2), spec.class_count, spec.dim)
    shifted = means + spec.shift_strength * directions
    test = _sample_split(shifted, spec, seeded_rng(spec.seed, 3))
    return train, test
