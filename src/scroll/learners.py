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

The ridge head is solved by a Cholesky factorization in 64-row blocks,
then one step of iterative refinement. LAPACK sees only the diagonal
blocks; every other step is a product cut into row blocks of at most
``ONE_THREAD_MULADDS`` multiply-adds. So up to d=1088 (with d K at most
65,536) the solve wakes no second OpenBLAS thread, which would otherwise
spin through all of stage two, and its bits do not depend on the thread
count.

Class sums gain a batch's rows one at a time, in batch order, each by
one IEEE add onto the stored sum: the bits of ``np.add.at``, which serves
only as the tests' oracle. :func:`_add_rows` groups an n-row batch by
label with one stable argsort, then takes at most about 2 sqrt(n) numpy
calls: one sequential ``np.add.accumulate`` per class of more than
``isqrt(n)`` rows, and one fancy-indexed add per row depth of the other
classes. A one-row batch, the unit of a per-sample stream, is one plain
in-place add.
"""

from __future__ import annotations

import math
from copy import deepcopy

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
STATE_VERSION = 3
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
#: take 8.2 ms against 0.38-0.44 ms for one 200-row product.
_MIN_ONE_THREAD_ROWS = 4

#: Most rows of a diagonal block the ridge solve factors with LAPACK. Such
#: a block stays on one OpenBLAS thread, and a 64-row panel block times a
#: block's inverse is ``ONE_THREAD_MULADDS`` multiply-adds.
_SOLVE_BLOCK_ROWS = 64


def _ridge_block_rows(dim: int) -> int:
    """Rows per pending ridge block.

    Up to d=256 a flush stays on one OpenBLAS thread (4-256 rows). Past
    that no flush of four rows or more does, so the block takes the full
    ``RIDGE_BLOCK_ROWS`` and a flush threads like one large batch product.
    """
    rows = ONE_THREAD_MULADDS // (dim * dim)
    return min(RIDGE_BLOCK_ROWS, rows) if rows >= _MIN_ONE_THREAD_ROWS else RIDGE_BLOCK_ROWS


def check_rows(xs, dim: int | None) -> np.ndarray:
    """``xs`` as a float64 batch of rows: the input check of every public entry point.

    Rows that are not a 2-d batch of width ``dim`` (of any width when
    ``dim`` is ``None``) raise :class:`ShapeError`; a non-finite entry
    raises :class:`DataError`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or dim not in (None, xs.shape[1]):
        width = "" if dim is None else f" of dimension {dim}"
        raise ShapeError(f"expected a 2-d batch of rows{width}, got shape {xs.shape}")
    if not all_finite(xs):
        raise DataError("rows contain non-finite values")
    return xs


def check_batch(xs, ys, dim: int, class_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` as float64 rows (see :func:`check_rows`) and ``ys`` as their int64 labels.

    Labels that are not one 1-d label per row raise :class:`ShapeError`;
    a non-integer dtype, or an id outside ``[0, class_count)``, raises
    :class:`ClassIdError`.
    """
    xs = check_rows(xs, dim)
    ys = as_int_ids(ys, "labels")
    if ys.shape != xs.shape[:1]:
        raise ShapeError(
            f"rows and labels disagree in length: rows {xs.shape}, labels {ys.shape}"
        )
    if ys.size:
        # One label needs no reduction.
        low, high = (ys[0], ys[0]) if ys.size == 1 else (ys.min(), ys.max())
        if low < 0 or high >= class_count:
            bad = int(ys[(ys < 0) | (ys >= class_count)][0])
            raise ClassIdError(f"class id {bad} outside [0, {class_count})")
    return xs, ys


def blocked_argmax(scores, xs: np.ndarray, block_rows: int = PREDICT_BLOCK_ROWS) -> np.ndarray:
    """Row-wise argmax of ``scores(block)`` over consecutive blocks of checked rows ``xs``.

    Each row's scores, and so its argmax, come from that row alone, while
    the temporaries hold ``block_rows`` rows of scores.
    """
    preds = np.empty(xs.shape[0], dtype=np.int64)
    for lo in range(0, xs.shape[0], block_rows):
        block = xs[lo:lo + block_rows]
        preds[lo:lo + block.shape[0]] = np.argmax(scores(block), axis=1)
    return preds


def _blocked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in row blocks of at most ``ONE_THREAD_MULADDS`` multiply-adds.

    A product that needs blocks of fewer than ``_MIN_ONE_THREAD_ROWS``
    rows is left whole and threads, like one large product.
    """
    rows = ONE_THREAD_MULADDS // max(1, a.shape[1] * b.shape[1])
    if rows >= a.shape[0] or rows < _MIN_ONE_THREAD_ROWS:
        return np.matmul(a, b)
    out = np.empty((a.shape[0], b.shape[1]))
    for lo in range(0, a.shape[0], rows):
        np.matmul(a[lo : lo + rows], b, out=out[lo : lo + rows])
    return out


def _blocked_cholesky(system: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The lower Cholesky factor of ``system``, and the inverses of its diagonal blocks.

    Right-looking, in blocks of ``_SOLVE_BLOCK_ROWS``: LAPACK factors and
    inverts each diagonal block, the panel below it is multiplied by the
    inverse's transpose, and the panel's outer product leaves the lower
    triangle of the trailing matrix one block row at a time. Only the
    returned array's lower triangle holds the factor. A diagonal block that
    is not positive definite raises ``np.linalg.LinAlgError``.
    """
    d = system.shape[0]
    factor = system.copy()
    inverses = []
    for lo in range(0, d, _SOLVE_BLOCK_ROWS):
        hi = min(lo + _SOLVE_BLOCK_ROWS, d)
        diagonal = np.linalg.cholesky(factor[lo:hi, lo:hi])
        inverses.append(np.linalg.inv(diagonal))
        factor[lo:hi, lo:hi] = diagonal
        panel = _blocked_product(factor[hi:, lo:hi], inverses[-1].T)
        factor[hi:, lo:hi] = panel
        for top in range(hi, d, _SOLVE_BLOCK_ROWS):
            bottom = min(top + _SOLVE_BLOCK_ROWS, d)
            factor[top:bottom, hi:bottom] -= _blocked_product(
                panel[top - hi : bottom - hi], panel[: bottom - hi].T
            )
    return factor, inverses


def _cholesky_solve(factor: np.ndarray, inverses: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = ``rhs`` by block forward and back substitution on a blocked factor."""
    x = rhs.copy()
    starts = range(0, factor.shape[0], _SOLVE_BLOCK_ROWS)
    for lo, inverse in zip(starts, inverses):  # L u = rhs
        hi = lo + len(inverse)
        x[lo:hi] = _blocked_product(inverse, x[lo:hi])
        x[hi:] -= _blocked_product(factor[hi:, lo:hi], x[lo:hi])
    for lo, inverse in reversed(list(zip(starts, inverses))):  # L^T x = u
        hi = lo + len(inverse)
        x[lo:hi] = _blocked_product(inverse.T, x[lo:hi])
        x[:lo] -= _blocked_product(factor[lo:hi, :lo].T, x[lo:hi])
    return x


def _add_rows(sums: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
    """``np.add.at(sums, ys, xs)``, bit for bit, in at most about 2 sqrt(n) numpy calls.

    Each class sum gains its rows through single adds, one row at a time,
    in batch order, starting from the stored sum. One stable argsort groups
    the n rows by label. A class with more than ``isqrt(n)`` rows takes one
    ``np.add.accumulate`` over its stored sum and its rows, which adds in
    sequence by definition. Every other class gains its r-th row in the
    r-th of at most ``isqrt(n)`` fancy-indexed adds, whose labels are
    distinct. Scratch memory is O(n d).
    """
    n = ys.shape[0]
    if n == 1:
        sums[ys[0]] += xs[0]
        return
    # Labels below 2**16 sort as uint16, which numpy's stable sort radix-sorts.
    order = np.argsort(ys.astype(np.uint16) if len(sums) <= 2**16 else ys, kind="stable")
    labels = ys[order]
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    sizes = np.diff(starts, append=n)
    deep = sizes > math.isqrt(n)
    for lo, size in zip(starts[deep].tolist(), sizes[deep].tolist()):
        y = labels[lo]
        chain = np.concatenate((sums[y : y + 1], xs[order[lo : lo + size]]))
        sums[y] = np.add.accumulate(chain, axis=0)[-1]
    shallow = ~np.repeat(deep, sizes)
    depth = (np.arange(n) - np.repeat(starts, sizes))[shallow]
    by_depth = np.argsort(depth, kind="stable")
    labels = labels[shallow][by_depth]
    rows = xs[order[shallow][by_depth]]
    lo = 0
    for hi in np.cumsum(np.bincount(depth)).tolist():
        sums[labels[lo:hi]] += rows[lo:hi]
        lo = hi


def as_int_ids(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; a non-integer dtype raises :class:`ClassIdError`.

    Converting with ``dtype=np.int64`` alone would truncate 1.7 to 1, and
    wrap a 64-bit unsigned value of 2**63 or more to a negative one, so such
    a value raises :class:`ClassIdError` too. So does a list or tuple of
    Python ints that numpy reads as object or float64 because one lies
    outside the int64 range; the error names that value. An empty sequence
    has no integer dtype (``[]`` reads as float64) and passes.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        ints = isinstance(values, (list, tuple)) and all(type(v) is int for v in values)
        wide = [v for v in values if not -(2**63) <= v < 2**63] if ints else []
        if wide:
            raise ClassIdError(f"{what}: {wide[0]} is past the int64 range")
        raise ClassIdError(f"{what}: expected an integer dtype, got {array.dtype}")
    if array.dtype.kind == "u" and array.dtype.itemsize == 8 and array.size:
        largest = int(array.max())
        if largest >= 2**63:
            raise ClassIdError(f"{what}: {largest} is past the int64 range")
    return array.astype(np.int64, copy=False)


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

    def scores(self, xs: np.ndarray) -> np.ndarray:
        """The logits of rows already checked by :func:`check_rows`."""
        out = xs @ self.weights.T
        out += self.biases
        return out

    def predict_batch(self, xs) -> np.ndarray:
        return blocked_argmax(self.scores, check_rows(xs, self.dim))

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

    def update_batch(self, xs, ys) -> "NccState":
        """Add each row to its class sum; other classes' rows are untouched."""
        xs, ys = check_batch(xs, ys, self.dim, self.class_count)
        _add_rows(self.class_sums, xs, ys)
        self.counts += np.bincount(ys, minlength=self.class_count)
        return self

    def predict_batch(self, xs) -> np.ndarray:
        """Nearest seen prototype of every row by squared distance; ties to smallest id."""
        xs = check_rows(xs, self.dim)
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
        return deepcopy(self)


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
    reads, solves, copies and checkpoints change no later bit: an ``SCST``
    checkpoint stores the flushed sums and the pending rows apart. ``cov`` is
    read-only: a read-only view of the sums when no rows are pending, and
    a read-only new array when some are; only ``update_batch`` and
    ``load_state`` change the statistics.
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

    def update_batch(self, xs, ys) -> "RidgeState":
        """Accumulate each row: cov gains x x^T, class row y gains x."""
        xs, ys = check_batch(xs, ys, self.dim, self.class_count)
        self._push(xs)
        _add_rows(self.class_sums, xs, ys)
        self.seen += xs.shape[0]
        return self

    def solve(self) -> LinearHead:
        """Solve (cov + lam * seen * I) w_z = class_sums[z] for every class.

        Factors the symmetric positive-definite system as L L^T (blocked
        Cholesky, :func:`_blocked_cholesky`) and solves L u = class_sums^T,
        then L^T w = u, by block substitution; one step of iterative
        refinement (Higham, *Accuracy and Stability of Numerical
        Algorithms*, ch. 12) then solves again for the residual and adds
        the correction. Classes with no samples come out as exact zero
        rows. Biases are zero. Statistics that overflowed to inf or nan,
        and a system that is not positive definite, raise
        :class:`LinAlgFailure`.

        Every product stays on one OpenBLAS thread while d <= 1088 and
        d * K <= 65,536, so there the weights' bits do not depend on the
        thread count (pinned by a subprocess test at d=64 and 128). Past
        that the trailing updates (d > 1088) or the residual product
        (d * K > 65,536) thread, and their last bits may differ.
        """
        k, d = self.class_count, self.dim
        if self.seen == 0:
            return LinearHead(np.zeros((k, d)), np.zeros(k))
        system = self.cov + (self.lam * self.seen) * np.eye(d)
        if not (np.isfinite(system).all() and np.isfinite(self.class_sums).all()):
            raise LinAlgFailure("ridge statistics are not finite (overflow)")
        rhs = self.class_sums.T
        # Overflow shows as non-finite weights, which LinearHead rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                factor, inverses = _blocked_cholesky(system)
            except np.linalg.LinAlgError as exc:
                raise LinAlgFailure(f"ridge system could not be factorized: {exc}") from exc
            weights_t = _cholesky_solve(factor, inverses, rhs)
            residual = rhs - _blocked_product(system, weights_t)
            weights_t += _cholesky_solve(factor, inverses, residual)
        return LinearHead(np.ascontiguousarray(weights_t.T), np.zeros(k))

    def copy(self) -> "RidgeState":
        return deepcopy(self)


def save_state(state: NccState | RidgeState, path) -> None:
    """Write a classifier state checkpoint (magic ``SCST``, float64 payload)."""
    w = Writer(STATE_MAGIC, STATE_VERSION)
    if isinstance(state, NccState):
        w.pack("BII", _KIND_NCC, state.class_count, state.dim)
        w.array(state.class_sums, "<f8")
        w.array(state.counts, "<i8")
    elif isinstance(state, RidgeState):
        w.pack("BII", _KIND_RIDGE, state.class_count, state.dim)
        w.pack("ddI", state.lam, float(state.seen), state._pending)
        w.array(state._cov, "<f8")
        w.array(state.class_sums, "<f8")
        w.array(state._block[: state._pending], "<f8")
    else:
        raise ConfigError(f"cannot checkpoint object of type {type(state).__name__}")
    w.save(path)


def load_state(path) -> NccState | RidgeState:
    """Read back a checkpoint written by :func:`save_state`.

    The payload is read before the state is built, so a header that
    declares more than the file holds allocates nothing.
    """
    r = Reader.read_file(path, STATE_MAGIC, STATE_VERSION, "state")
    kind, k, d = r.unpack("BII", "state header")
    if k == 0 or d == 0:
        raise FormatError(f"degenerate state header: K={k}, d={d}")
    if kind == _KIND_NCC:
        sums = r.floats((k, d), "class sums")
        counts = r.array("<i8", k, "counts").copy()
        if (counts < 0).any():
            raise FormatError(f"NCC class counts must be non-negative, got {counts.min()}")
        r.expect_end()
        state = NccState(k, d)
        state.class_sums, state.counts = sums, counts
        return state
    if kind == _KIND_RIDGE:
        lam, seen, pending = r.unpack("ddI", "ridge scalars")
        if not 0 < lam < math.inf:
            raise FormatError(f"ridge lam must be positive and finite, got {lam!r}")
        if not (seen >= 0 and seen.is_integer()):
            raise FormatError(f"ridge sample count must be a non-negative integer, got {seen!r}")
        block_rows = _ridge_block_rows(d)
        if pending >= block_rows:
            raise FormatError(f"{pending} pending rows do not fit a {block_rows}-row block")
        r.require(8 * d * (d + k + pending), "second-moment matrix, class sums and pending rows")
        cov = r.floats((d, d), "second-moment matrix")
        sums = r.floats((k, d), "class sums")
        rows = r.floats((pending, d), "pending rows")
        r.expect_end()
        state = RidgeState(k, d, lam)
        state._cov, state.class_sums = cov, sums
        state._block[:pending] = rows
        state._pending = pending
        state.seen = int(seen)
        return state
    raise FormatError(f"unknown state kind tag {kind}")
