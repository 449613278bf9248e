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
from bisect import bisect_left, insort
from copy import deepcopy

import numpy as np

from ._binio import Reader, Writer
from ._seeding import seeded_rng
from .errors import (
    ClassIdError, ConfigError, DataError, FormatError, ShapeError, all_finite, require_int,
)
from .learners import ONE_THREAD_MULADDS, as_int_ids, check_rows

STRATEGIES = ("exemplar", "reservoir", "nearest", "outlier")

BUFFER_MAGIC = b"SCBF"
BUFFER_VERSION = 2

#: ``SCBF`` stores class ids as unsigned 32-bit integers.
_MAX_CLASS_ID = 2**32 - 1

#: The batch positions of a class with no arrivals.
_NO_ROWS = slice(0, 0)


#: :func:`_lockstep`'s screen keeps every row within this many times its
#: rounding bound of the smallest screened value.
_SCREEN_SAFETY = 1e4

#: :func:`_lockstep` screens only pools whose ``||target|| + max ||row||``
#: lies in ``[1 / _SCREEN_RANGE, _SCREEN_RANGE]``: above it squares and
#: products could overflow, below it underflow is no longer small against
#: the margin.
_SCREEN_RANGE = 1e100


def herding_order(candidates, target_mean) -> list[int]:
    """Greedy moment-matching order over a candidate pool.

    At each step the candidate whose inclusion brings the mean of the
    selected set closest (Euclidean) to ``target_mean`` is appended.
    Candidates whose trial means are bitwise equal (equal rows) tie exactly
    and go to the smallest candidate index; candidates that are only at
    the same distance in exact arithmetic are ordered by the rounding of
    the computed distances. Returns a permutation of
    ``range(len(candidates))``. The pool is checked by
    :func:`~scroll.learners.check_rows`; a target of another width raises
    :class:`ShapeError`, and one with a NaN or infinite entry
    :class:`DataError`.
    """
    pool = check_rows(candidates, None)
    if pool.shape[0] == 0:
        raise ConfigError("herding needs a non-empty candidate pool")
    target = np.asarray(target_mean, dtype=np.float64)
    if target.shape != (pool.shape[1],):
        raise ShapeError(
            f"target mean of shape ({pool.shape[1]},) expected, got {target.shape}"
        )
    if not all_finite(target):
        raise DataError("target mean contains non-finite values")
    return _herd_lanes([(pool, target, len(pool))])[0].tolist()


def _closest(pool, near, chosen_sum, step, target) -> int:
    """The first row of ``near`` (ascending) at the smallest herding distance.

    The distance is ``||target - (chosen_sum + row) / step||`` with the
    operations of ``np.linalg.norm(..., axis=1)``, so it has its bits.
    """
    trial = pool.take(near, axis=0)
    np.add(chosen_sum, trial, out=trial)
    np.divide(trial, step, out=trial)
    np.subtract(target, trial, out=trial)
    np.multiply(trial, trial, out=trial)
    dists = np.sqrt(np.add.reduce(trial, axis=1))
    return int(near[dists.argmin()])


def _takes_gram(n: int, d: int) -> bool:
    """Whether a pool of ``n`` rows of width ``d`` takes :func:`_lockstep`'s Gram rows.

    Its Gram row must be no wider than the screen's ``d + 2`` columns, and
    its Gram product, ``n**2 d`` multiply-adds, must stay on one BLAS thread.
    """
    return n <= d + 2 and n * n * d <= ONE_THREAD_MULADDS


def _herd_lanes(lanes) -> list[np.ndarray]:
    """The first ``picks`` of :func:`herding_order` for every ``(pool, target, picks)``.

    The lanes are herded together by :func:`_lockstep`, in groups: all
    pools that take Gram rows (:func:`_takes_gram`) in one, and the others
    by size, one group per size, so no group pads a pool past ``d + 2``
    columns. A lane the range test rejects takes the full computation:
    every step gets the distance of every remaining row from
    :func:`_closest`, with the chosen sum added in pick order.
    """
    groups: dict[int, list[int]] = {}
    for i, (pool, _, _) in enumerate(lanes):
        groups.setdefault(0 if _takes_gram(*pool.shape) else len(pool), []).append(i)
    out: list = [None] * len(lanes)
    for group in groups.values():
        for i, picked in zip(group, _lockstep([lanes[i] for i in group])):
            out[i] = picked
    for i, (pool, target, picks) in enumerate(lanes):
        if out[i] is None:
            out[i] = picked = np.empty(picks, dtype=np.intp)
            left, chosen_sum = np.ones(len(pool), dtype=bool), np.zeros(pool.shape[1])
            for step in range(1, picks + 1):
                picked[step - 1] = p = _closest(pool, left.nonzero()[0], chosen_sum, step, target)
                left[p] = False
                np.add(chosen_sum, pool[p], out=chosen_sum)
    return out


def _lockstep(lanes) -> list:
    """:func:`_herd_lanes` for many pools at once, in lockstep.

    Each lane is one pool ``P`` with target ``t``. With ``S`` the sum of
    the rows picked so far, the pick at step ``k`` is the first row ``c``,
    in ascending pool index, with the smallest computed distance ``D(c) =
    ||t - (S + c) / k||``. The half-screen ``h(c) = ||c||**2 / 2 + S.c - k
    t.c`` equals ``k**2 (D(c)**2 - ||t - S / k||**2) / 2`` in exact
    arithmetic, so it orders rows as ``D`` does. It starts at ``||c||**2 /
    2 - P t``, and picking row ``p`` adds ``P p - P t``. When every pool
    takes Gram rows (:func:`_takes_gram`), that update is row ``p`` of ``H
    = P P^T - 1 (P t)^T``, computed once. Otherwise every pool has one
    size, and each step computes the update for every lane still picking,
    minus the ``P t`` of the first ``h``, in one product of the stacked
    pools with their picks. One step of every lane is an ``argmin`` of
    ``h``, a second minimum, and the test whether that lies within ``k**2
    * margin`` of the first. A lane with a second row in the margin gets
    the distances of its rows in the margin from :func:`_closest`, with
    the chosen sum rebuilt by adds from zero in pick order: the bits the
    full computation has. Taken rows and the padding of short lanes hold
    ``+inf``. Lanes are ordered by picks, most first, so the lanes still
    picking are a prefix, and so are their rows. Every product stays on
    one BLAS thread: a Gram lane's ``P t`` and ``P P^T`` lie within the
    Gram bound, and the stacked products of pools of one size run in row
    blocks of at most ``ONE_THREAD_MULADDS // d`` rows.

    Why the picks are exact: let ``u = 2**-53``, ``a = max ||c||``, ``b =
    ||t||`` and ``scale = (a + b)**2``. The range test takes a lane only
    when ``a + b`` lies in ``[1e-100, 1e100]``, so that nothing overflows
    and underflow is negligible; a lane outside it, or with a non-finite
    entry, takes no step and comes back as ``None``. The full computation
    gets each squared distance to within ``(d + 7) u scale``, because ``(S
    + c) / k`` has norm at most ``a``, and two squares whose roots round to
    one value differ by at most ``4 u scale``. So the row it picks has an
    exact ``h`` within ``(d + 9) u k**2 scale`` of the minimum. An update
    entry is ``fl(fl(c.p) - fl(c.t))``, whether ``H`` holds it or a step
    computes it. A ``d``-term dot product errs by at most ``d u`` times
    the sum of its terms' magnitudes (to first order, in any order of
    summation), and that sum is at most ``||c|| ||p|| <= a**2`` for
    ``c.p`` and ``a b`` for ``c.t``; the subtraction adds at most ``u (a**2
    + a b)``. So each entry errs by at most ``(d + 1) u (a**2 + a b) <= (d
    + 1) u scale``, and the first ``h`` by at most as much. The exact
    ``h`` at step ``k`` is at most ``k scale`` in size, so after ``k - 1``
    adds the computed ``h`` errs by at most ``k (d + 1) u scale`` from its
    inputs plus ``k (k + 1) / 2 u scale`` from the adds, together at most
    ``k (d + k + 2) u scale``. The full computation's pick therefore has a
    computed ``h`` within ``(d + 9) k**2 + 2 k (d + k + 2) <= (3d + 15)
    k**2`` times ``u scale`` of the computed minimum. The margin, ``4 (d +
    4) k**2 u scale`` times ``_SCREEN_SAFETY``, is more than 10**4 times
    that, and the rows in it get their distances in ascending pool index,
    so exact and rounding ties resolve as the full computation resolves
    them.

    Memory: the pools' rows once more, ``h`` and the picks, lanes by the
    widest pool, and for pools that take Gram rows their rows of ``H``,
    as wide. Other pools share one size, so ``h`` holds one entry per pool
    row, and at most ``d + 2`` otherwise: O(n d) per lane of ``n`` rows.
    """
    order = sorted(range(len(lanes)), key=lambda i: -lanes[i][2])
    sizes = np.array([len(lanes[i][0]) for i in order])
    starts = np.zeros(len(lanes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    rows = np.concatenate([lanes[i][0] for i in order])
    targets = np.array([lanes[i][1] for i in order])
    lane_of = np.repeat(np.arange(len(lanes)), sizes)
    col = np.arange(len(rows)) - starts[lane_of]
    n_lanes, width, d = len(lanes), int(sizes.max()), rows.shape[1]
    # Lanes the range test rejects may overflow here, harmlessly: they take no step.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", rows, rows)
        root = np.sqrt(np.einsum("ij,ij->i", targets, targets))
        root += np.sqrt(np.maximum.reduceat(norms, starts[:-1]))
    screened = (1 / _SCREEN_RANGE <= root) & (root <= _SCREEN_RANGE)
    out: list = [None] * n_lanes
    if not screened.all():
        kept = [i for i, ok in zip(order, screened.tolist()) if ok]
        for i, picked in zip(kept, _lockstep([lanes[i] for i in kept]) if kept else ()):
            out[i] = picked
        return out
    moments = np.empty(len(rows))  # P t, lane by lane
    h = np.full((n_lanes, width), np.inf)
    if _takes_gram(width, d):
        bounds = starts.tolist()
        gram = np.zeros((len(rows), width))
        for lo, hi, target in zip(bounds, bounds[1:], targets):
            np.matmul(rows[lo:hi], target, out=moments[lo:hi])
            np.matmul(rows[lo:hi], rows[lo:hi].T, out=gram[lo:hi, : hi - lo])
        padded = np.zeros((n_lanes, width))
        padded[lane_of, col] = moments
        gram -= padded.take(lane_of, axis=0)  # H, one row per pool row
    else:
        # Pools of one size: no padding, so each lane's rows and P t stack.
        # Products run in row blocks that stay on one OpenBLAS thread:
        # threaded, 40 picks from a 5000 x 128 pool took 340 ms, blocked 14
        # ms (2-vCPU VM).
        gram, stack, lane_moments = None, rows.reshape(n_lanes, width, d), moments.reshape(h.shape)
        block = max(1, ONE_THREAD_MULADDS // d)
        spans = [slice(lo, lo + block) for lo in range(0, width, block)]
        for span in spans:
            lane_moments[:, span] = np.matmul(stack[:, span], targets[:, :, None])[..., 0]
    flat, slots = h.reshape(-1), lane_of * width + col  # slots: each row's place in h
    flat[slots] = 0.5 * norms - moments
    quotas = np.array([lanes[i][2] for i in order])
    steps = np.arange(1, quotas[0] + 1)
    # Row k - 1 holds each lane's margin at step k.
    margins = (_SCREEN_SAFETY * 4 * (d + 4) * 2.0**-53) * np.outer(steps**2, root**2)
    # The lanes still picking at step k: those with at least k picks.
    active = np.searchsorted(-quotas, -steps, side="right")
    base, first_row = np.arange(n_lanes) * width, starts[:-1]
    picked = np.empty((n_lanes, len(steps)), dtype=np.intp)
    minimum = np.minimum.reduce
    for step, m in enumerate(active.tolist(), start=1):
        hm = h[:m]
        pick = hm.argmin(axis=1)
        at = base[:m] + pick
        best = flat.take(at)
        flat.put(at, np.inf)
        bound = best + margins[step - 1, :m]
        close = (minimum(hm, axis=1) <= bound).nonzero()[0]  # a second row in the margin
        if len(close):
            for j in close.tolist():
                pool, target, _ = lanes[order[j]]
                row, first = h[j], pick[j]
                row[first] = bound[j]
                chosen_sum = np.zeros(d)
                for p in picked[j, : step - 1].tolist():
                    np.add(chosen_sum, pool[p], out=chosen_sum)
                p = _closest(pool, (row <= bound[j]).nonzero()[0], chosen_sum, step, target)
                row[first], row[p], pick[j] = best[j], np.inf, p
        picked[:m, step - 1] = pick
        if gram is not None:
            hm += gram.take(first_row[:m] + pick, axis=0)
            continue
        chosen = rows.take(first_row[:m] + pick, axis=0)[:, :, None]
        for span in spans:
            update = np.matmul(stack[:m, span], chosen)[..., 0]
            update -= lane_moments[:m, span]
            hm[:, span] += update
    for j, (i, q) in enumerate(zip(order, quotas.tolist())):
        out[i] = picked[j, :q]
    return out


class ReplayBuffer:
    """Fixed-capacity, class-balanced sample store.

    Capacity is split evenly over the classes observed so far: with C
    classes each gets ``capacity // C`` slots and the lowest
    ``capacity % C`` class ids get one extra, so per-class counts never
    differ by more than one. When new classes push an existing class over
    its shrunken quota, the tail of its selection order is dropped. If
    more classes appear than there are slots, the classes left without a
    slot are recorded in ``warnings`` and hold nothing.

    Each class's stored samples are two arrays: int64 dataset indices in
    ``_indices`` and float64 rows in ``_rows``, settled and in selection
    order once :meth:`_order` has run, as every read makes it do first. A
    class with nothing stored has no entry in either. ``_sums`` and ``_seen``
    hold each class's sum and count of every row seen, kept or not, and
    ``dim`` the row width (``None`` before the first row).

    The ``exemplar`` strategy chooses its rows late. Every update keeps the
    running means, quotas, warnings and each class's stored count
    (``min(pool, quota)``) current. The choice is an event of the class:
    an arrival, or a quota shrink that drops rows, with the running mean
    of that moment when it needs a herd. A herd waits, with a copy of its
    arrival, and so does every event of a class with events waiting; an
    event without a herd runs at once. Waiting events are walked before an
    arrival would bring more than ``capacity`` rows waiting, even within
    one update, so memory stays O(capacity d) however many classes a batch
    holds, and at every read (:meth:`_order`); an arrival of more
    than ``capacity`` rows then runs at once. The walk runs each class's
    events in stream order, in rounds, and every round herds the next
    pending pool of every class together (:func:`_herd_lanes`). A class
    whose whole pool fits its quota keeps every row in dataset-index
    order, and is herded only when something reads its order or its quota
    drops rows. All of this is exact: a class's running mean moves only
    when the class gets arrivals, arrivals re-pool it, and each herd gets
    the pool and target it had in the stream, so every result is the one a
    herd at each update gives, bit for bit.

    A one-row batch, the unit of a per-sample stream, is not grouped by
    class: the row is its class's whole arrival, taken as a view of the
    batch, and its running sum gains ``row + 0.0``, the bits the grouped
    path's one-row sum has. Every result is the grouped path's, bit for bit.
    """

    def __init__(self, capacity: int, strategy: str = "exemplar", seed: int = 0):
        require_int(capacity, "capacity", minimum=0)
        require_int(seed, "seed")
        # SCBF stores the capacity as an unsigned and the seed as a signed 64-bit integer.
        if capacity >= 2**64:
            raise ConfigError(f"capacity must be < 2**64, got {capacity}")
        if not -(2**63) <= seed < 2**63:
            raise ConfigError(f"seed must lie in [-2**63, 2**63), got {seed}")
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown buffer strategy {strategy!r}, expected one of {STRATEGIES}"
            )
        self.capacity = int(capacity)
        self.strategy = strategy
        self.seed = int(seed)
        self.dim: int | None = None
        self._sums: dict[int, np.ndarray] = {}
        self._seen: dict[int, int] = {}
        self._classes: list[int] = []  # sorted ids of every class seen
        self.warnings: list[str] = []
        self._indices: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._count: dict[int, int] = {}  # stored rows, waiting events applied
        # Exemplar classes whose rows, waiting events applied, are not herded.
        self._unordered: set[int] = set()
        # Per class, events (new indices, new rows, rows kept, herd target)
        # in stream order, and the arrival rows they hold.
        self._waiting: dict[int, list] = {}
        self._waiting_rows = 0
        self._rng = seeded_rng(seed, 77)

    # -- content views -------------------------------------------------

    def total_stored(self) -> int:
        return sum(self._count.values())

    def per_class_counts(self) -> dict[int, int]:
        return dict(sorted(self._count.items()))

    def stored_indices(self, y: int) -> list[int]:
        self._order()
        return self._indices[y].tolist() if y in self._indices else []

    def training_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored rows as (vectors, labels), classes in ascending order."""
        self._order()
        classes = sorted(self._rows)
        counts = [len(self._rows[y]) for y in classes]
        if sum(counts) == 0:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        rows = np.concatenate([self._rows[y] for y in classes])
        return rows, np.repeat(np.array(classes, dtype=np.int64), counts)

    def content_digest(self) -> str:
        """Stable fingerprint of which samples are stored, for provenance."""
        self._order()
        h = hashlib.sha256()
        for y in sorted(self._indices):
            h.update(str(y).encode())
            h.update(self._indices[y].tobytes())
        return h.hexdigest()[:16]

    def moment_distances(self, means) -> dict[int, float]:
        """Per class: distance between the stored mean and the target mean ``means[y]``.

        Classes with nothing stored are absent from the result. A stored
        class past the end of ``means`` raises :class:`ClassIdError`, and a
        mean of another width than the rows :class:`ShapeError`.
        """
        self._order()
        out: dict[int, float] = {}
        for y in sorted(self._rows):
            if y >= len(means):
                raise ClassIdError(f"class {y} is stored but has no target mean")
            if np.shape(means[y]) != (self.dim,):
                raise ShapeError(
                    f"target mean of class {y}: shape ({self.dim},) expected, "
                    f"got {np.shape(means[y])}"
                )
            out[y] = float(np.linalg.norm(np.mean(self._rows[y], axis=0) - means[y]))
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
            raise ShapeError(
                "rows, labels and indices disagree in length: rows "
                f"{vectors.shape}, labels {labels.shape}, indices {indices.shape}"
            )
        if self.dim not in (None, vectors.shape[1]):
            raise ShapeError(f"rows of dimension {self.dim} expected, got {vectors.shape[1]}")
        arrivals = self._arrivals(labels)
        fresh = [y for y in arrivals if y not in self._seen]
        classes = self._classes
        before = list(classes) if fresh else classes
        for y in fresh:
            insort(classes, y)
        self._add_sums(vectors, arrivals)
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
                self._drop(y)
                continue
            if y not in self._count:
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

    def _add_sums(self, vectors: np.ndarray, groups: dict) -> None:
        """Add a batch whose class ``y`` rows are ``vectors[groups[y]]`` to the running sums.

        A group is an index array or a slice. A one-row group adds ``row +
        0.0``, the bits of its ``sum(axis=0)``: numpy starts that sum from
        +0.0, so a -0.0 entry comes out as +0.0.
        """
        for y, pos in groups.items():
            rows = vectors[pos]
            batch_sum = rows[0] + 0.0 if len(rows) == 1 else rows.sum(axis=0)
            if y in self._sums:
                self._sums[y] = self._sums[y] + batch_sum
                self._seen[y] += len(rows)
            else:
                self._sums[y] = batch_sum
                self._seen[y] = len(rows)
                self.dim = len(batch_sum)

    def _mean(self, y: int) -> np.ndarray:
        """The mean of every class ``y`` row seen."""
        return self._sums[y] / self._seen[y]

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
        self._count[y] = len(idx)
        self._unordered.discard(y)

    def _drop(self, y: int) -> None:
        """Forget class ``y``'s rows and waiting events: its quota is zero for good."""
        for new_idx, _, _, _ in self._waiting.pop(y, ()):
            self._waiting_rows -= 0 if new_idx is None else len(new_idx)
        for stored in (self._indices, self._rows, self._count):
            stored.pop(y, None)
        self._unordered.discard(y)

    def _queue(self, y: int, new_idx, new_rows, n: int, target) -> None:
        """An event of class ``y``: ``n`` rows stay, herded toward ``target`` if given.

        A herd waits, with a copy of its arrival, to share a round of
        :func:`_herd_lanes` with other classes' herds; so does any event of a
        class with events waiting. The others run at once, as a walk of one
        event. An arrival that would bring more than ``capacity`` rows
        waiting first settles the waiting events, and runs at once if it
        alone holds that many.
        """
        self._count[y] = n
        arrived = 0 if new_idx is None else len(new_idx)
        if self._waiting_rows + arrived > self.capacity:
            self._settle()
        if y not in self._waiting and (target is None or arrived > self.capacity):
            self._walk([(y, [(new_idx, new_rows, n, target)])])
            return
        if new_idx is not None:
            new_idx, new_rows = new_idx.copy(), new_rows.copy()
            self._waiting_rows += len(new_idx)
        self._waiting.setdefault(y, []).append((new_idx, new_rows, n, target))

    def _order(self) -> None:
        """Herd every class stored unordered, then settle; every read calls this first.

        Each herd is the one :meth:`_update_exemplar` would have queued when
        it stored the pool, so the order is the same whichever read comes first.
        """
        for y in self._unordered:
            self._queue(y, None, None, self._count[y], self._mean(y))
        self._unordered.clear()
        self._settle()

    def _settle(self) -> None:
        """Walk every waiting event."""
        if self._waiting:
            waiting, self._waiting, self._waiting_rows = self._waiting, {}, 0
            self._walk(waiting.items())

    def _walk(self, queues) -> None:
        """Run every ``(class, events)`` queue, each in stream order, herding in rounds.

        Events without a herd run as the walk meets them; each class stops
        at its next herd, and one round runs the herds every class stopped
        at through :func:`_herd_lanes`. A truncation copies its prefix, so a
        shrunken class does not keep its longer rows alive.
        """
        queues = [(y, iter(events)) for y, events in queues]
        idx_of, rows_of = self._indices, self._rows
        while queues:
            lanes, stopped = [], []
            for y, events in queues:
                for new_idx, new_rows, n, target in events:
                    idx, rows = idx_of[y], rows_of[y]
                    if new_idx is not None:
                        idx, rows = self._pooled(y, new_idx, new_rows)
                    if target is not None:
                        lanes.append((rows, target, n))
                        stopped.append((y, events, idx, rows))
                        break
                    if new_idx is None:
                        idx, rows = idx[:n].copy(), rows[:n].copy()
                    idx_of[y], rows_of[y] = idx, rows
            if not lanes:
                return
            for (y, _, idx, rows), picks in zip(stopped, _herd_lanes(lanes)):
                idx_of[y], rows_of[y] = idx.take(picks), rows.take(picks, axis=0)
            queues = [(y, events) for y, events, _, _ in stopped]

    def _truncate(self, y: int, n: int) -> None:
        """Cut class ``y`` to the first ``n`` rows of its order, through :meth:`_queue`."""
        if self._count[y] <= n:
            return
        target = self._mean(y) if y in self._unordered else None
        self._unordered.discard(y)
        self._queue(y, None, None, n, target)

    def _pooled(self, y, new_idx, new_rows):
        # Pool ordered by original dataset index, so tie-breaking inside the
        # selection rules cannot depend on arrival order. At a few rows this
        # is per-call overhead, hence methods and take over fancy indexing.
        idx = np.concatenate((self._indices[y], new_idx))
        order = idx.argsort(kind="stable")
        rows = np.concatenate((self._rows[y], new_rows))
        return idx.take(order), rows.take(order, axis=0)

    def _update_exemplar(self, y, new_idx, new_rows, quota) -> None:
        if len(new_idx) == 0:
            self._truncate(y, quota)
            return
        pool = self._count[y] + len(new_idx)
        if pool <= quota:
            # Every row stays; nothing reads their order before the next
            # arrival re-pools the class, so herd them only when read.
            self._queue(y, new_idx, new_rows, pool, None)
            self._unordered.add(y)
        else:
            self._queue(y, new_idx, new_rows, quota, self._mean(y))
            self._unordered.discard(y)

    def _update_reservoir(self, y, new_idx, new_rows, quota) -> None:
        # The rows the class saw before this batch: a class that holds a
        # quota comes here on every arrival, after the running means count it.
        seen = self._seen[y] - len(new_idx)
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
            rows_in = np.flatnonzero(slots < quota)
            slots = slots[rows_in]
            # A slot drawn twice keeps its last row, as sequential writes would.
            by_slot = slots.argsort(kind="stable")
            last = np.ones(len(by_slot), dtype=bool)
            last[:-1] = slots[by_slot[1:]] != slots[by_slot[:-1]]
            slots, rows_in = slots[by_slot[last]], rows_in[by_slot[last]] + fill
            idx[slots] = new_idx[rows_in]
            rows[slots] = new_rows[rows_in]
        if len(idx) > quota:
            # Drop one uniformly chosen slot at a time; the draws come in one call.
            keep = list(range(len(idx)))
            for k in self._rng.integers(0, np.arange(len(idx), quota, -1)).tolist():
                del keep[k]
            self._keep(y, idx[keep], rows[keep])

    def _update_by_distance(self, y, new_idx, new_rows, quota) -> None:
        idx, rows = self._pooled(y, new_idx, new_rows)
        dists = np.linalg.norm(rows - self._mean(y), axis=1)
        if self.strategy == "outlier":
            dists = -dists
        ranked = np.sort(np.lexsort((idx, dists))[:quota])
        self._keep(y, idx[ranked], rows[ranked])

    def copy(self) -> "ReplayBuffer":
        self._order()
        return deepcopy(self)


def save_buffer(buf: ReplayBuffer, path) -> None:
    """Write a buffer checkpoint (magic ``SCBF``) with full restore state."""
    buf._order()
    w = Writer(BUFFER_MAGIC, BUFFER_VERSION)
    classes = buf._classes
    w.pack("BQqI", STRATEGIES.index(buf.strategy), buf.capacity, buf.seed, len(classes))
    w.pack("I", buf.dim or 0)
    for y in classes:
        idx = buf._indices.get(y, np.zeros(0, dtype=np.int64))
        w.pack("IIQ", y, len(idx), buf._seen[y])
        w.array(buf._sums[y], "<f8")
        w.array(idx, "<i8")
        w.array(buf._rows.get(y, np.zeros(0)), "<f8")
    w.json(buf._rng.bit_generator.state)
    w.json(buf.warnings)
    w.save(path)


def load_buffer(path) -> ReplayBuffer:
    """Read back a checkpoint written by :func:`save_buffer`."""
    r = Reader.read_file(path, BUFFER_MAGIC, BUFFER_VERSION, "buffer")
    strategy_tag, capacity, seed, n_classes = r.unpack("BQqI", "buffer header")
    if strategy_tag >= len(STRATEGIES):
        raise FormatError(f"unknown strategy tag {strategy_tag}")
    (dim,) = r.unpack("I", "vector dimension")
    buf = ReplayBuffer(int(capacity), STRATEGIES[strategy_tag], int(seed))
    last = -1
    for _ in range(n_classes):
        y, stored, seen = r.unpack("IIQ", "class header")
        y = int(y)
        if y <= last:
            raise FormatError(f"class ids must ascend strictly, got {y} after {last}")
        if seen == 0 or seen < stored:
            raise FormatError(f"class {y} stores {stored} rows but counts {seen} seen")
        if seen >= 2**63:
            raise FormatError(f"class {y} counts {seen} seen, past the int64 range")
        last = y
        buf._classes.append(y)
        buf._sums[y] = r.floats((dim,), "class sums")
        buf._seen[y] = int(seen)
        idx = r.array("<i8", stored, "stored indices").copy()
        rows = r.floats((stored, dim), "stored rows")
        if stored:
            buf._keep(y, idx, rows)
    for y, idx in buf._indices.items():
        quota = buf._quota(y, buf._classes)
        if len(idx) > quota:
            raise FormatError(f"class {y} stores {len(idx)} rows, past its quota of {quota}")
    buf.dim = dim if n_classes else None
    rng_state = r.json("rng state", dict)
    # numpy truncates a float, and reads a bool, where the state holds an int.
    numbers = {k: v for k, v in rng_state.items() if k != "bit_generator"}
    if not all(type(v) is int for v in _leaves(numbers)):
        raise FormatError(f"rng state is not a PCG64 state of integers: {rng_state!r}")
    try:
        buf._rng.bit_generator.state = rng_state
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"rng state is not a PCG64 state: {exc!r}") from exc
    buf.warnings = r.json("warnings", list)
    if not all(isinstance(w, str) for w in buf.warnings):
        raise FormatError(f"warnings must be strings, got {buf.warnings!r}")
    r.expect_end()
    return buf


def _leaves(blob: dict):
    """Every value of a nested JSON object that is not itself an object."""
    for value in blob.values():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield value


def write_moment_csv(records, path) -> None:
    """Emit moment-distance sweep rows as ``class,strategy,seed,distance``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "strategy", "seed", "distance"])
        for rec in records:
            writer.writerow(
                [rec["class"], rec["strategy"], rec["seed"], repr(float(rec["distance"]))]
            )
