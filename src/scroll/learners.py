"""Online classifiers with order-independent sufficient statistics.

Two stage-one learners are provided. :class:`NccState` keeps per-class
feature sums and counts and classifies by nearest class mean.
:class:`RidgeState` accumulates the feature second-moment matrix and
per-class feature sums, from which a one-vs-all ridge head is solved on
demand. Both states are plain sums over the observed samples, so they
depend only on the multiset of data seen, never on arrival order or
batching (up to the rounding of floating-point addition). In both,
updating one class never touches another class's statistics.

Ridge adds its rows to the second-moment matrix in fixed-size blocks
counted from the first sample, so for a fixed sample order the bits of
``RidgeState.cov`` do not depend on batching, on reads, or on copies.

Class sums gain a batch's rows one at a time, in batch order, through
``np.add.at``. A one-row ridge batch, the unit of a per-sample stream,
takes a plain in-place add instead: the same single add, at a fraction of
the per-call cost, so both paths give the same bits.
"""

from __future__ import annotations

import numpy as np

from ._binio import Reader, Writer
from .errors import (
    ClassIdError,
    ConfigError,
    DataError,
    FormatError,
    LinAlgFailure,
    NoClassError,
    ShapeError,
    all_finite,
    require_float,
    require_int,
)

STATE_MAGIC = b"SCST"
STATE_VERSION = 2
_KIND_NCC = 0
_KIND_RIDGE = 1

#: Most multiply-adds one matrix product may take and still run on one
#: OpenBLAS thread. Measured with numpy 2.4 on a 2-vCPU VM: 17-row ridge
#: flushes at d=128 (2.8e5) kept CPU time equal to wall time, 32-row ones
#: doubled it; the threading point lies between 1.6e5 and 6.4e5.
ONE_THREAD_MULADDS = 2**18

#: Most rows one product scores in a ``predict_batch``. Blocks bound the
#: score temporaries at O(256 K) floats, where one product over n rows
#: holds n x K of them (3.2 MB at n=4000, K=100). That is their purpose at
#: wide K x d, where a block still threads (K=100, d=256: 6.6e6
#: multiply-adds). At K=10, d=64 a block also stays under
#: ``ONE_THREAD_MULADDS``, so it does not wake a second OpenBLAS thread that
#: would then spin through the small training steps after it.
PREDICT_BLOCK_ROWS = 256

#: Most rows a pending ridge block holds; bounds it at O(256 d) memory.
RIDGE_BLOCK_ROWS = 256

#: Fewest rows a one-thread ridge block may hold. Every flush also makes a
#: pass over the d x d sums, which small blocks repeat often. Per 200-row
#: ``update_batch`` on the VM above: two-row blocks at d=362 took 24 ms
#: where one threaded 200-row product took 8 ms; four-row blocks at d=256
#: take 12 ms against 8 ms, and 0.08 ms per single row against 0.24 ms.
_MIN_ONE_THREAD_ROWS = 4


def _ridge_block_rows(dim: int) -> int:
    """Rows per pending ridge block.

    Up to d=256 a flush stays on one OpenBLAS thread (4-256 rows). Past
    that no flush of four rows or more does, so the block takes the full
    ``RIDGE_BLOCK_ROWS`` and a flush threads like one large batch product.
    """
    rows = ONE_THREAD_MULADDS // (dim * dim)
    return min(RIDGE_BLOCK_ROWS, rows) if rows >= _MIN_ONE_THREAD_ROWS else RIDGE_BLOCK_ROWS


def _check_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ShapeError(f"expected a vector of shape ({dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise DataError("vector contains non-finite values")
    return x


def _check_matrix(xs, dim: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise ShapeError(f"expected rows of dimension {dim}, got shape {xs.shape}")
    if not all_finite(xs):
        raise DataError("vectors contain non-finite values")
    return xs


def blocked_argmax(scores, xs: np.ndarray, block_rows: int = PREDICT_BLOCK_ROWS) -> np.ndarray:
    """Row-wise argmax of ``scores(block)`` over consecutive blocks of ``xs``.

    Each row's scores, and so its argmax, come from that row alone, while
    the temporaries hold ``block_rows`` rows of scores. An empty batch is
    still scored once, so a wrong width raises :class:`ShapeError`.
    """
    preds = np.empty(xs.shape[0], dtype=np.int64)
    for lo in range(0, max(xs.shape[0], 1), block_rows):
        block = xs[lo:lo + block_rows]
        preds[lo:lo + block.shape[0]] = np.argmax(scores(block), axis=1)
    return preds


def as_int_ids(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; a non-integer dtype raises :class:`ClassIdError`.

    Converting with ``dtype=np.int64`` alone would truncate 1.7 to 1. An
    empty sequence has no integer dtype (``[]`` reads as float64) and passes.
    """
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ClassIdError(f"{what}: expected an integer dtype, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def _check_labels(ys, class_count: int) -> np.ndarray:
    ys = as_int_ids(ys, "labels")
    if ys.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {ys.shape}")
    if ys.size:
        # One label needs no reduction.
        low, high = (ys[0], ys[0]) if ys.size == 1 else (ys.min(), ys.max())
        if low < 0 or high >= class_count:
            bad = int(ys[(ys < 0) | (ys >= class_count)][0])
            raise ClassIdError(f"class id {bad} outside [0, {class_count})")
    return ys


class LinearHead:
    """A dense one-vs-all classifier: scores(x) = W x + b, predict = argmax.

    Logits that tie exactly resolve to the smallest class id. Bitwise-equal
    class rows need not give exact ties: OpenBLAS can round their two
    logits differently depending on the product's row count, so either of
    the two classes may win.
    """

    def __init__(self, weights, biases):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        biases = np.ascontiguousarray(biases, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"weights must be 2-d, got shape {weights.shape}")
        if biases.shape != (weights.shape[0],):
            raise ShapeError(
                f"biases shape {biases.shape} does not match {weights.shape[0]} classes"
            )
        if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
            raise DataError("head parameters contain non-finite values")
        self.weights = weights
        self.biases = biases

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def scores(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        single = xs.ndim == 1
        if single:
            xs = xs[None, :]
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ShapeError(
                f"queries of dimension {self.dim} required, got shape {xs.shape}"
            )
        out = xs @ self.weights.T
        out += self.biases
        return out[0] if single else out

    def predict(self, x) -> int:
        return int(np.argmax(self.scores(x)))

    def predict_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ShapeError(f"expected a 2-d batch of queries, got shape {xs.shape}")
        return blocked_argmax(self.scores, xs)

    def copy(self) -> "LinearHead":
        return LinearHead(self.weights.copy(), self.biases.copy())


class NccState:
    """Per-class sums and counts for nearest-class-mean classification.

    ``class_sums[y]`` is the sum of every class-``y`` vector seen so far
    and ``counts[y]`` how many such vectors there were. ``prototypes[y]``
    is their mean (the zero vector while the class is unseen).
    """

    def __init__(self, class_count: int, dim: int):
        require_int(class_count, "class_count", minimum=1)
        require_int(dim, "dim", minimum=1)
        self.class_sums = np.zeros((class_count, dim))
        self.counts = np.zeros(class_count, dtype=np.int64)

    @property
    def class_count(self) -> int:
        return self.class_sums.shape[0]

    @property
    def dim(self) -> int:
        return self.class_sums.shape[1]

    @property
    def prototypes(self) -> np.ndarray:
        return self.class_sums / np.maximum(self.counts, 1)[:, None]

    def update(self, x, y: int) -> "NccState":
        """Add one sample to its class sum; other rows are untouched."""
        return self.update_batch(_check_vector(x, self.dim)[None, :], [y])

    def update_batch(self, xs, ys) -> "NccState":
        xs = _check_matrix(xs, self.dim)
        ys = _check_labels(ys, self.class_count)
        if xs.shape[0] != ys.shape[0]:
            raise ShapeError("vectors and labels disagree in length")
        np.add.at(self.class_sums, ys, xs)
        self.counts += np.bincount(ys, minlength=self.class_count)
        return self

    def predict(self, x) -> int:
        """Nearest seen prototype by squared distance; ties to smallest id."""
        return int(self.predict_batch(_check_vector(x, self.dim)[None, :])[0])

    def predict_batch(self, xs) -> np.ndarray:
        xs = _check_matrix(xs, self.dim)
        unseen = self.counts == 0
        if unseen.all():
            raise NoClassError("no class has been observed yet")
        head = self.to_linear_head()

        def masked_scores(block):
            scores = head.scores(block)
            scores[:, unseen] = -np.inf
            return scores

        return blocked_argmax(masked_scores, xs)

    def to_linear_head(self) -> LinearHead:
        """Rewrite the nearest-prototype rule as a linear layer.

        ``||x||^2`` is the same for every class, so for any query
        argmin_y ||x - c_y||^2 equals argmax_y (x . c_y - ||c_y||^2 / 2):
        the head uses each prototype as its weight row with bias
        -||c_y||^2 / 2. Unseen classes get a zero row and zero bias.
        """
        weights = self.prototypes
        biases = -0.5 * np.einsum("ij,ij->i", weights, weights)
        return LinearHead(weights, biases)

    def copy(self) -> "NccState":
        out = NccState(self.class_count, self.dim)
        out.class_sums = self.class_sums.copy()
        out.counts = self.counts.copy()
        return out


class RidgeState:
    """Streaming sufficient statistics for one-vs-all ridge regression.

    ``cov`` is the sum of outer products of every observed vector,
    ``class_sums[z]`` the sum of class-``z`` vectors, and ``seen`` the
    total sample count. The regularizer ``lam`` corresponds to a squared
    penalty on the weights under a sample-averaged data loss, so the
    solve scales it by ``seen``.

    Arriving rows are copied into a pending block of
    ``_ridge_block_rows(dim)`` rows, which is added to the sums with one
    ``P.T @ P`` when it fills. Blocks start at sample 0, so where they are
    cut depends only on the sample count: for a fixed sample order,
    ``cov``'s bits do not depend on how the samples were batched. Reading
    ``cov`` with rows pending returns the sums plus the partial block's
    product, the bits a flush would give, and leaves the block pending, so
    reads, solves, copies and checkpoints change no later bit. ``cov`` is
    read-only: a read-only view of the sums when no rows are pending, and
    a read-only new array when some are; only ``update``, ``update_batch``
    and ``load_state`` change the statistics.
    """

    def __init__(self, class_count: int, dim: int, lam: float = 1.0):
        require_int(class_count, "class_count", minimum=1)
        require_int(dim, "dim", minimum=1)
        if not require_float(lam, "lam") > 0:
            raise ConfigError(f"lam must be positive, got {lam}")
        self._cov = np.zeros((dim, dim))
        self._block = np.empty((_ridge_block_rows(dim), dim))
        self._pending = 0
        self.class_sums = np.zeros((class_count, dim))
        self.lam = float(lam)
        self.seen = 0

    @property
    def class_count(self) -> int:
        return self.class_sums.shape[0]

    @property
    def dim(self) -> int:
        return self.class_sums.shape[1]

    @property
    def cov(self) -> np.ndarray:
        """A read-only second-moment matrix of every sample seen, pending rows included."""
        if self._pending:
            rows = self._block[: self._pending]
            # Overflow shows as inf in the result, which solve() reports.
            with np.errstate(over="ignore", invalid="ignore"):
                out = self._cov + rows.T @ rows
        else:
            out = self._cov.view()
        out.flags.writeable = False
        return out

    def _push(self, xs: np.ndarray) -> None:
        """Copy rows into the pending block, flushing the block whenever it fills."""
        block = self._block
        size = block.shape[0]
        start, n = 0, xs.shape[0]
        while start < n:
            take = min(size - self._pending, n - start)
            block[self._pending : self._pending + take] = xs[start : start + take]
            self._pending += take
            start += take
            if self._pending == size:
                with np.errstate(over="ignore", invalid="ignore"):
                    self._cov += block.T @ block
                self._pending = 0

    def update(self, x, y: int) -> "RidgeState":
        """Accumulate one sample: cov gains x x^T, row y gains x."""
        return self.update_batch(_check_vector(x, self.dim)[None, :], [y])

    def update_batch(self, xs, ys) -> "RidgeState":
        xs = _check_matrix(xs, self.dim)
        ys = _check_labels(ys, self.class_count)
        if xs.shape[0] != ys.shape[0]:
            raise ShapeError("vectors and labels disagree in length")
        self._push(xs)
        if len(ys) == 1:  # the one add np.add.at would make
            self.class_sums[ys[0]] += xs[0]
        else:
            np.add.at(self.class_sums, ys, xs)
        self.seen += xs.shape[0]
        return self

    def solve(self) -> LinearHead:
        """Solve (cov + lam * seen * I) w_z = class_sums[z] for every class.

        Factors the symmetric positive-definite system as L L^T (Cholesky)
        and solves L u = class_sums^T, then L^T w = u; classes with no
        samples come out as exact zero rows. Biases are zero. Statistics
        that overflowed to inf or nan raise :class:`LinAlgFailure`. The
        weights' last bits depend on the BLAS thread count: the same
        statistics solved on one and on two OpenBLAS threads gave weights
        up to 1.3e-18 apart (entries up to 2.1e-3, K=50, d=128), so
        ``SCAD`` checkpoint bytes differ between the two.
        """
        k, d = self.class_count, self.dim
        if self.seen == 0:
            return LinearHead(np.zeros((k, d)), np.zeros(k))
        system = self.cov + (self.lam * self.seen) * np.eye(d)
        if not (np.isfinite(system).all() and np.isfinite(self.class_sums).all()):
            raise LinAlgFailure("ridge statistics are not finite (overflow)")
        try:
            lower = np.linalg.cholesky(system)
        except np.linalg.LinAlgError as exc:
            raise LinAlgFailure(f"ridge system could not be factorized: {exc}") from exc
        weights_t = np.linalg.solve(lower.T, np.linalg.solve(lower, self.class_sums.T))
        return LinearHead(np.ascontiguousarray(weights_t.T), np.zeros(k))

    def copy(self) -> "RidgeState":
        out = RidgeState(self.class_count, self.dim, self.lam)
        out._cov = self._cov.copy()
        out._block[: self._pending] = self._block[: self._pending]
        out._pending = self._pending
        out.class_sums = self.class_sums.copy()
        out.seen = self.seen
        return out


def save_state(state: NccState | RidgeState, path) -> None:
    """Write a classifier state checkpoint (magic ``SCST``, float64 payload)."""
    w = Writer()
    w.raw(STATE_MAGIC)
    if isinstance(state, NccState):
        w.pack("HBII", STATE_VERSION, _KIND_NCC, state.class_count, state.dim)
        w.array(state.class_sums, "<f8")
        w.array(state.counts, "<i8")
    elif isinstance(state, RidgeState):
        w.pack("HBII", STATE_VERSION, _KIND_RIDGE, state.class_count, state.dim)
        w.pack("dd", state.lam, float(state.seen))
        w.array(state.cov, "<f8")
        w.array(state.class_sums, "<f8")
    else:
        raise ConfigError(f"cannot checkpoint object of type {type(state).__name__}")
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_state(path) -> NccState | RidgeState:
    """Read back a checkpoint written by :func:`save_state`."""
    with open(path, "rb") as fh:
        r = Reader(fh.read())
    r.expect_magic(STATE_MAGIC)
    version, kind, k, d = r.unpack("HBII", "state header")
    if version != STATE_VERSION:
        raise FormatError(f"unsupported state version {version}")
    if kind == _KIND_NCC:
        state = NccState(k, d)
        state.class_sums = r.array("<f8", k * d, "class sums").reshape(k, d).copy()
        state.counts = r.array("<i8", k, "counts").copy()
        r.expect_end()
        return state
    if kind == _KIND_RIDGE:
        lam, seen = r.unpack("dd", "ridge scalars")
        state = RidgeState(k, d, lam)
        state._cov = r.array("<f8", d * d, "second-moment matrix").reshape(d, d).copy()
        state.class_sums = r.array("<f8", k * d, "class sums").reshape(k, d).copy()
        state.seen = int(seen)
        r.expect_end()
        return state
    raise FormatError(f"unknown state kind tag {kind}")
