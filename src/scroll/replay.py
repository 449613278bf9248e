"""Bounded replay buffers with moment-matching exemplar selection.

The buffer keeps a class-balanced subset of the stream under a fixed
total capacity. Four strategies are supported:

* ``exemplar`` -- greedy moment matching: per class, samples are ordered
  by how well the mean of the selected prefix tracks the running mean of
  everything observed for that class; the stored set is a prefix of that
  ordering. When whole classes arrive in single batches the final
  contents are independent of class order.
* ``reservoir`` -- uniform reservoir sampling per class.
* ``nearest`` / ``outlier`` -- keep the samples closest to / furthest
  from the class running mean.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from bisect import bisect_left, insort
from itertools import islice

import numpy as np

from ._binio import Reader, Writer
from ._seeding import seeded_rng
from .errors import ClassIdError, ConfigError, FormatError, ShapeError, require_int
from .learners import ONE_THREAD_MULADDS, as_int_ids

STRATEGIES = ("exemplar", "reservoir", "nearest", "outlier")

BUFFER_MAGIC = b"SCBF"
BUFFER_VERSION = 1

#: ``SCBF`` stores class ids as unsigned 32-bit integers.
_MAX_CLASS_ID = 2**32 - 1

#: The batch positions of a class with no arrivals.
_NO_ROWS = slice(0, 0)


class RunningClassMean:
    """Exact streaming mean of every sample observed per class.

    ``dim`` is the width of the rows seen so far, ``None`` before the first row.
    """

    def __init__(self):
        self._sums: dict[int, np.ndarray] = {}
        self._counts: dict[int, int] = {}
        self.dim: int | None = None

    def add_batch(self, vectors: np.ndarray, groups: dict) -> None:
        """Add a batch whose class ``y`` rows are ``vectors[groups[y]]``.

        A group is an index array or a slice. A one-row group adds ``row +
        0.0``, the bits of its ``sum(axis=0)``: numpy starts that sum from
        +0.0, so a -0.0 entry comes out as +0.0.
        """
        for y, pos in groups.items():
            rows = vectors[pos]
            batch_sum = rows[0] + 0.0 if len(rows) == 1 else rows.sum(axis=0)
            if y in self._sums:
                self._sums[y] = self._sums[y] + batch_sum
                self._counts[y] += len(rows)
            else:
                self._sums[y] = batch_sum
                self._counts[y] = len(rows)
                self.dim = len(batch_sum)

    def mean(self, y: int) -> np.ndarray:
        return self._sums[y] / self._counts[y]

    def count(self, y: int) -> int:
        return self._counts.get(y, 0)

    def classes(self) -> list[int]:
        return sorted(self._sums)

    def copy(self) -> "RunningClassMean":
        out = RunningClassMean()
        out._sums = {y: s.copy() for y, s in self._sums.items()}
        out._counts = dict(self._counts)
        out.dim = self.dim
        return out


#: The screen of :func:`_herd` keeps every row within this many times its
#: rounding bound of the smallest screened value.
_SCREEN_SAFETY = 1e4

#: :func:`_herd` screens only pools whose ``||target|| + max ||row||`` lies
#: in ``[1 / _SCREEN_RANGE, _SCREEN_RANGE]``: above it squares and products
#: could overflow, below it underflow is no longer small against the margin.
_SCREEN_RANGE = 1e100


def herding_order(candidates, target_mean) -> list[int]:
    """Greedy moment-matching order over a candidate pool.

    At each step the candidate whose inclusion brings the mean of the
    selected set closest (Euclidean) to ``target_mean`` is appended.
    Candidates whose trial means are bitwise equal (equal rows) tie exactly
    and go to the smallest candidate index; candidates that are only at
    the same distance in exact arithmetic are ordered by the rounding of
    the computed distances. Returns a permutation of
    ``range(len(candidates))``.
    """
    pool = np.asarray(candidates, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ConfigError("herding needs a non-empty 2-d candidate pool")
    target = np.asarray(target_mean, dtype=np.float64)
    if target.shape != (pool.shape[1],):
        raise ShapeError(
            f"target mean of shape ({pool.shape[1]},) expected, got {target.shape}"
        )
    return list(_herd(pool, target))


def _herd(pool: np.ndarray, target: np.ndarray):
    """Yield :func:`herding_order` one pick at a time, so callers can stop early.

    The pick at step ``k`` is the first remaining row, in ascending pool
    index, with the smallest ``||target - (chosen_sum + row) / k||`` as
    ``np.linalg.norm(..., axis=1)`` computes it. Only rows near the minimum
    get that distance, with that expression's operations in the same order,
    so every distance computed has its bits.

    The screen: with ``S`` the chosen sum and ``t`` the target, ``r(c) =
    ||c||**2 + 2 S.c - 2k t.c`` equals ``k**2 (D(c)**2 - ||t - S/k||**2)``
    for the exact distance ``D(c)``, so it orders rows as ``D`` does. One
    matrix-vector product gives it for every row: the ``(n, d + 2)`` matrix
    ``[c | t.c | ||c||**2]`` times ``[S, -k, 1/2]`` is ``r / 2``, and a taken
    row's squared norm is ``+inf``. The product runs in row blocks of at
    most ``learners.ONE_THREAD_MULADDS`` multiply-adds, on one OpenBLAS
    thread. The rows with ``r`` at most ``min(r) + k**2 * margin`` get
    their distances; if that is one row, it is the pick.

    Why the picks are exact: with ``u = 2**-53`` and ``scale = (||t|| + max
    ||c||)**2``, the computed ``r`` errs by at most ``(3d + 4) u k scale``.
    The computed squared distance errs by at most ``(d + 7) u scale``,
    because ``(S + c) / k`` has norm at most ``max ||c||``, and two
    distances that round to the same square root differ by at most ``4u
    scale`` before it. So the row the full computation picks has a computed
    ``r`` within ``8 (d + 4) u k**2 scale`` of the minimum, and the margin
    is ``_SCREEN_SAFETY`` = 10**4 times that bound. The rows in the margin
    get their distances in ascending pool index, so exact and rounding ties
    resolve as the full computation resolves them. The bounds assume no
    overflow and negligible underflow: when ``||t|| + max ||c||`` lies
    outside ``[1e-100, 1e100]``, or is not finite, every step computes the
    distance of every remaining row. Memory stays O(n d): the screen
    matrix, one trial buffer and a few n-vectors.
    """
    n, d = pool.shape
    trial_buf, dist_buf = np.empty(pool.shape), np.empty(n)
    # [pool | pool @ target | ||row||**2] @ [S, -k, 1/2] is r / 2, so the
    # margin below is half of _SCREEN_SAFETY times 8 (d + 4) u scale.
    screen = np.empty((n, d + 2))
    screen[:, :d] = pool
    closed = screen[:, d + 1]  # squared norms; +inf marks a taken row
    r = np.empty(n)
    # Row blocks whose products stay on one OpenBLAS thread. Threaded, 40
    # picks from a 5000 x 128 pool took 340 ms, blocked 14 ms (2-vCPU VM).
    rows = max(1, ONE_THREAD_MULADDS // (d + 2))
    starts = range(0, n, rows)
    blocks = [(screen[lo : lo + rows], r[lo : lo + rows]) for lo in starts]
    # Rows the range test below rejects may overflow here, harmlessly.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in starts:
            np.matmul(pool[lo : lo + rows], target, out=screen[lo : lo + rows, d])
        np.add.reduce(np.multiply(pool, pool, out=trial_buf), axis=1, out=closed)
        # ||t|| + max ||c||; NaN and inf fail the range test.
        root = math.sqrt(target @ target) + math.sqrt(closed[closed.argmax()])
    coef = np.zeros(d + 2)
    coef[d + 1] = 0.5
    chosen_sum = coef[:d]  # the screen reads the chosen sum in place
    screened = 1 / _SCREEN_RANGE <= root <= _SCREEN_RANGE
    if screened:
        margin = _SCREEN_SAFETY * 4 * (d + 4) * 2.0**-53 * root * root
    else:
        closed = np.zeros(n)
    # Looked up once: at ~10 rows a pick is mostly per-call overhead.
    take, add, divide, subtract = pool.take, np.add, np.divide, np.subtract
    multiply, add_reduce, sqrt = np.multiply, np.add.reduce, np.sqrt
    dot, less_equal = np.dot, np.less_equal

    def exact(near, step):
        """The first row of ``near`` (ascending) at the smallest distance."""
        m = len(near)
        trial, dists = trial_buf[:m], dist_buf[:m]
        # mode="clip" takes straight into ``trial``; "raise" would buffer.
        take(near, axis=0, out=trial, mode="clip")
        add(chosen_sum, trial, out=trial)
        divide(trial, step, out=trial)
        subtract(target, trial, out=trial)
        multiply(trial, trial, out=trial)
        add_reduce(trial, axis=1, out=dists)
        sqrt(dists, out=dists)
        return int(near[dists.argmin()])

    for step in range(1, n + 1):
        if screened:
            coef[d] = -step
            for block, out in blocks:
                dot(block, coef, out=out)
            pick = int(r.argmin())
            bound = r[pick] + step * step * margin
            r[pick] = np.inf
            if r[r.argmin()] <= bound:  # another row lies within the margin
                r[pick] = bound
                pick = exact(less_equal(r, bound).nonzero()[0], step)
        else:
            pick = exact((closed == 0.0).nonzero()[0], step)
        yield pick
        add(chosen_sum, pool[pick], out=chosen_sum)
        closed[pick] = np.inf


class ReplayBuffer:
    """Fixed-capacity, class-balanced sample store.

    Capacity is split evenly over the classes observed so far: with C
    classes each gets ``capacity // C`` slots and the lowest
    ``capacity % C`` class ids get one extra, so per-class counts never
    differ by more than one. When new classes push an existing class over
    its shrunken quota, the tail of its selection order is dropped. If
    more classes appear than there are slots, the classes left without a
    slot are recorded in ``warnings`` and hold nothing.

    Each class's stored samples are two arrays, in selection order once
    read: int64 dataset indices in ``_indices`` and float64 rows in
    ``_rows``. A class with nothing stored has no entry in either. An
    exemplar class whose whole pool fits its quota keeps every row, so it
    is stored in dataset-index order and herded only when something reads
    its order or its quota drops rows. That is exact: a class's running
    mean moves only when the class gets arrivals, and arrivals re-pool it.

    A one-row batch, the unit of a per-sample stream, is not grouped by
    class: the row is its class's whole arrival, taken as a view of the
    batch, and its running sum gains ``row + 0.0``, the bits the grouped
    path's one-row sum has. Every result is the grouped path's, bit for bit.
    """

    def __init__(self, capacity: int, strategy: str = "exemplar", seed: int = 0):
        require_int(capacity, "capacity", minimum=0)
        require_int(seed, "seed")
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown buffer strategy {strategy!r}, expected one of {STRATEGIES}"
            )
        self.capacity = int(capacity)
        self.strategy = strategy
        self.seed = int(seed)
        self.stats = RunningClassMean()
        self._classes: list[int] = []  # sorted ids of every class seen
        self.warnings: list[str] = []
        self._indices: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._reservoir_seen: dict[int, int] = {}
        self._unordered: set[int] = set()  # exemplar classes not yet herded
        self._rng = seeded_rng(seed, 77)

    # -- content views -------------------------------------------------

    def total_stored(self) -> int:
        return sum(len(idx) for idx in self._indices.values())

    def per_class_counts(self) -> dict[int, int]:
        return {y: len(idx) for y, idx in sorted(self._indices.items())}

    def stored_indices(self, y: int) -> list[int]:
        self._order(y)
        return self._indices[y].tolist() if y in self._indices else []

    def training_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored rows as (vectors, labels), classes in ascending order."""
        self._order()
        classes = sorted(self._indices)
        counts = [len(self._indices[y]) for y in classes]
        if sum(counts) == 0:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        vectors = np.concatenate([self._rows[y] for y in classes])
        return vectors, np.repeat(np.array(classes, dtype=np.int64), counts)

    def training_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Dataset indices and labels of :meth:`training_arrays`' rows, in its order."""
        self._order()
        classes = sorted(self._indices)
        counts = [len(self._indices[y]) for y in classes]
        if sum(counts) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        indices = np.concatenate([self._indices[y] for y in classes])
        return indices, np.repeat(np.array(classes, dtype=np.int64), counts)

    def content_digest(self) -> str:
        """Stable fingerprint of which samples are stored, for provenance."""
        self._order()
        h = hashlib.sha256()
        for y in sorted(self._indices):
            h.update(str(y).encode())
            h.update(self._indices[y].tobytes())
        return h.hexdigest()[:16]

    def moment_distances(self, table) -> dict[int, float]:
        """Per class: distance between the stored mean and the table's class mean.

        Classes with nothing stored are absent from the result. A stored
        class with no row in ``table`` raises :class:`ClassIdError`.
        """
        self._order()
        out: dict[int, float] = {}
        for y in sorted(self._rows):
            stored_mean = np.mean(self._rows[y], axis=0)
            class_rows = table.vectors[table.labels == y]
            if len(class_rows) == 0:
                raise ClassIdError(f"class {y} is stored but has no row in the table")
            out[y] = float(np.linalg.norm(stored_mean - class_rows.mean(axis=0)))
        return out

    # -- updates ---------------------------------------------------------

    def _quota(self, y: int, classes: list[int]) -> int:
        """Slots for class ``y`` when ``classes`` (sorted) have been observed."""
        base, extra = divmod(self.capacity, len(classes))
        return base + (1 if bisect_left(classes, y) < extra else 0)

    def update(self, vectors, labels, indices) -> "ReplayBuffer":
        """Fold one stream batch into the buffer.

        ``vectors`` are the batch rows, ``labels`` their class ids and
        ``indices`` their original dataset positions.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        labels = as_int_ids(labels, "labels")
        indices = as_int_ids(indices, "dataset indices")
        if vectors.ndim != 2 or labels.ndim != 1 or indices.ndim != 1:
            raise ShapeError(
                "batch rows must be 2-d and labels and indices 1-d, got shapes "
                f"{vectors.shape}, {labels.shape} and {indices.shape}"
            )
        if not (len(vectors) == len(labels) == len(indices)):
            raise ConfigError("batch arrays disagree in length")
        if self.stats.dim not in (None, vectors.shape[1]):
            raise ShapeError(
                f"rows of dimension {self.stats.dim} expected, got {vectors.shape[1]}"
            )
        arrivals = self._arrivals(labels)
        fresh = [y for y in arrivals if self.stats.count(y) == 0]
        classes = self._classes
        before = list(classes) if fresh else classes
        for y in fresh:
            insort(classes, y)
        self.stats.add_batch(vectors, arrivals)
        # Quotas change only when a new class arrives, so only then can a
        # class without arrivals have anything to do.
        for y in classes if fresh else arrivals:
            quota = self._quota(y, classes)
            if quota == 0:
                # The class count only grows, so a zero quota is permanent:
                # warn in the one update where it becomes zero.
                if y in fresh or self._quota(y, before) > 0:
                    self.warnings.append(
                        f"class {y} exceeds the capacity budget and holds no samples"
                    )
                self._indices.pop(y, None)
                self._rows.pop(y, None)
                self._unordered.discard(y)
                continue
            if y not in self._indices:
                self._keep(y, np.zeros(0, dtype=np.int64), np.zeros((0, vectors.shape[1])))
            # A slice gives views of the batch; every strategy copies what it stores.
            pos = arrivals.get(y, _NO_ROWS)
            new_idx, new_rows = indices[pos], vectors[pos]
            if self.strategy == "exemplar":
                self._update_exemplar(y, new_idx, new_rows, quota)
            elif self.strategy == "reservoir":
                self._update_reservoir(y, new_idx, new_rows, quota)
            else:
                self._update_by_distance(y, new_idx, new_rows, quota)
        return self

    @staticmethod
    def _arrivals(labels: np.ndarray) -> dict:
        """Each class's batch positions, ascending, keyed in ascending class order.

        A one-row batch has nothing to group: its class gets ``slice(None)``.
        """
        if len(labels) == 1:
            y = int(labels[0])
            if not 0 <= y <= _MAX_CLASS_ID:
                raise ClassIdError(f"class id {y} outside [0, {_MAX_CLASS_ID}]")
            return {y: slice(None)}
        order = labels.argsort(kind="stable")
        ys = labels[order]
        if len(ys) and (ys[0] < 0 or ys[-1] > _MAX_CLASS_ID):
            bad = int(ys[0] if ys[0] < 0 else ys[-1])
            raise ClassIdError(f"class id {bad} outside [0, {_MAX_CLASS_ID}]")
        bounds = [0, *((ys[1:] != ys[:-1]).nonzero()[0] + 1).tolist(), len(ys)]
        return {int(ys[a]): order[a:b] for a, b in zip(bounds, bounds[1:]) if b > a}

    def _keep(self, y: int, idx: np.ndarray, rows: np.ndarray) -> None:
        self._indices[y] = idx
        self._rows[y] = rows
        self._unordered.discard(y)

    def _order(self, *classes: int) -> None:
        """Herd the named classes stored unordered, or all of them.

        The call is the one :meth:`_update_exemplar` would have made when
        it stored the pool, so the order is the same.
        """
        for y in classes or list(self._unordered):
            if y in self._unordered:
                rows = self._rows[y]
                order = np.fromiter(_herd(rows, self.stats.mean(y)), np.intp, len(rows))
                self._keep(y, self._indices[y].take(order), rows.take(order, axis=0))

    def _truncate(self, y: int, n: int) -> None:
        if len(self._indices[y]) <= n:
            return
        self._order(y)
        # Copies, so a shrunken class does not keep its longer rows alive.
        self._keep(y, self._indices[y][:n].copy(), self._rows[y][:n].copy())

    def _pooled(self, y, new_idx, new_rows):
        # Pool ordered by original dataset index, so tie-breaking inside the
        # selection rules cannot depend on arrival order. At a few rows this
        # is per-call overhead, hence methods and take over fancy indexing.
        idx = np.concatenate((self._indices[y], new_idx))
        order = idx.argsort(kind="stable")
        return idx.take(order), np.concatenate((self._rows[y], new_rows)).take(order, axis=0)

    def _update_exemplar(self, y, new_idx, new_rows, quota) -> None:
        if len(new_idx) == 0:
            self._truncate(y, quota)
            return
        idx, rows = self._pooled(y, new_idx, new_rows)
        if len(idx) <= quota:
            # Every row stays; nothing reads their order before the next
            # arrival re-pools the class, so herd them only when read.
            self._keep(y, idx, rows)
            self._unordered.add(y)
            return
        keep = np.fromiter(islice(_herd(rows, self.stats.mean(y)), quota), np.intp, quota)
        self._keep(y, idx.take(keep), rows.take(keep, axis=0))

    def _update_reservoir(self, y, new_idx, new_rows, quota) -> None:
        seen = self._reservoir_seen.get(y, 0)
        fill = max(0, min(quota - len(self._indices[y]), len(new_idx)))
        if fill:
            self._keep(
                y,
                np.concatenate([self._indices[y], new_idx[:fill]]),
                np.concatenate([self._rows[y], new_rows[:fill]]),
            )
            seen += fill
        idx, rows = self._indices[y], self._rows[y]
        # Algorithm R: the i-th row past the fill (i from 1) draws a slot in
        # [0, seen + i) and replaces it if it is below the quota. One call
        # draws every slot: with an array of bounds, numpy draws them in
        # order, the values and generator state one call per row gives.
        late = len(new_idx) - fill
        if late:
            slots = self._rng.integers(0, np.arange(seen + 1, seen + late + 1))
            seen += late
            rows_in = np.flatnonzero(slots < quota)
            slots = slots[rows_in]
            # A slot drawn twice keeps its last row, as sequential writes would.
            by_slot = slots.argsort(kind="stable")
            last = np.ones(len(by_slot), dtype=bool)
            last[:-1] = slots[by_slot[1:]] != slots[by_slot[:-1]]
            slots, rows_in = slots[by_slot[last]], rows_in[by_slot[last]] + fill
            idx[slots] = new_idx[rows_in]
            rows[slots] = new_rows[rows_in]
        self._reservoir_seen[y] = seen
        if len(idx) > quota:
            # Drop one uniformly chosen slot at a time; the draws come in one call.
            keep = list(range(len(idx)))
            for k in self._rng.integers(0, np.arange(len(idx), quota, -1)).tolist():
                del keep[k]
            self._keep(y, idx[keep], rows[keep])

    def _update_by_distance(self, y, new_idx, new_rows, quota) -> None:
        idx, rows = self._pooled(y, new_idx, new_rows)
        dists = np.linalg.norm(rows - self.stats.mean(y), axis=1)
        if self.strategy == "outlier":
            dists = -dists
        ranked = np.sort(np.lexsort((idx, dists))[:quota])
        self._keep(y, idx[ranked], rows[ranked])

    def copy(self) -> "ReplayBuffer":
        self._order()
        out = ReplayBuffer(self.capacity, self.strategy, self.seed)
        out.stats = self.stats.copy()
        out._classes = list(self._classes)
        out.warnings = list(self.warnings)
        out._indices = {y: idx.copy() for y, idx in self._indices.items()}
        out._rows = {y: rows.copy() for y, rows in self._rows.items()}
        out._reservoir_seen = dict(self._reservoir_seen)
        out._rng = np.random.default_rng()
        out._rng.bit_generator.state = self._rng.bit_generator.state
        return out


def save_buffer(buf: ReplayBuffer, path) -> None:
    """Write a buffer checkpoint (magic ``SCBF``) with full restore state."""
    buf._order()
    w = Writer()
    w.raw(BUFFER_MAGIC)
    classes = buf._classes
    w.pack(
        "HBQqI",
        BUFFER_VERSION,
        STRATEGIES.index(buf.strategy),
        buf.capacity,
        buf.seed,
        len(classes),
    )
    w.pack("I", buf.stats.dim or 0)
    for y in classes:
        idx = buf._indices.get(y, np.zeros(0, dtype=np.int64))
        w.pack("IIQQ", y, len(idx), buf.stats.count(y), buf._reservoir_seen.get(y, 0))
        w.array(buf.stats._sums[y], "<f8")
        w.array(idx, "<i8")
        w.array(buf._rows.get(y, np.zeros(0)), "<f8")
    rng_state = json.dumps(buf._rng.bit_generator.state, sort_keys=True).encode()
    w.pack("I", len(rng_state))
    w.raw(rng_state)
    warn_blob = json.dumps(buf.warnings).encode()
    w.pack("I", len(warn_blob))
    w.raw(warn_blob)
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_buffer(path) -> ReplayBuffer:
    """Read back a checkpoint written by :func:`save_buffer`."""
    with open(path, "rb") as fh:
        r = Reader(fh.read())
    r.expect_magic(BUFFER_MAGIC)
    version, strategy_tag, capacity, seed, n_classes = r.unpack("HBQqI", "buffer header")
    if version != BUFFER_VERSION:
        raise FormatError(f"unsupported buffer version {version}")
    if strategy_tag >= len(STRATEGIES):
        raise FormatError(f"unknown strategy tag {strategy_tag}")
    (dim,) = r.unpack("I", "vector dimension")
    buf = ReplayBuffer(int(capacity), STRATEGIES[strategy_tag], int(seed))
    for _ in range(n_classes):
        y, stored, seen, reservoir_seen = r.unpack("IIQQ", "class header")
        y = int(y)
        buf.stats._sums[y] = r.array("<f8", dim, "class sum").copy()
        buf.stats._counts[y] = int(seen)
        if reservoir_seen:
            buf._reservoir_seen[y] = int(reservoir_seen)
        idx = r.array("<i8", stored, "stored indices").copy()
        rows = r.array("<f8", stored * dim, "stored rows").reshape(stored, dim).copy()
        if stored:
            buf._keep(y, idx, rows)
    buf._classes = buf.stats.classes()
    buf.stats.dim = dim if n_classes else None
    (rng_len,) = r.unpack("I", "rng state length")
    buf._rng.bit_generator.state = json.loads(r.take(rng_len, "rng state"))
    (warn_len,) = r.unpack("I", "warnings length")
    buf.warnings = json.loads(r.take(warn_len, "warnings"))
    r.expect_end()
    return buf


def write_moment_csv(records, path) -> None:
    """Emit moment-distance sweep rows as ``class,strategy,seed,distance``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "strategy", "seed", "distance"])
        for rec in records:
            writer.writerow(
                [rec["class"], rec["strategy"], rec["seed"], repr(float(rec["distance"]))]
            )
