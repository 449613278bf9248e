import tempfile
import tracemalloc
from bisect import bisect_left
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll import (
    ClassIdError,
    ConfigError,
    ReplayBuffer,
    RunningClassMean,
    ShapeError,
    SyntheticSpec,
    herding_order,
    load_buffer,
    save_buffer,
    synthesize,
    write_moment_csv,
)
from scroll import replay
from scroll.replay import _herd


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def oracle_greedy_order(candidates, target):
    """Step-by-step greedy recomputation, means taken with np.mean."""
    candidates = [np.asarray(c, float) for c in candidates]
    chosen: list[int] = []
    remaining = list(range(len(candidates)))
    order = []
    while remaining:
        best, best_d = None, None
        for j in remaining:
            trial = np.mean([candidates[i] for i in chosen + [j]], axis=0)
            d = float(np.linalg.norm(np.asarray(target, float) - trial))
            if best is None or d < best_d:
                best, best_d = j, d
        order.append(best)
        chosen.append(best)
        remaining.remove(best)
    return order


def assert_greedy_prefix(stored, pool, vectors, target):
    """``stored`` is the oracle's greedy order over ``pool``, cut to its length.

    The oracle takes each distance with a 1-d norm (a dot product), herding
    with a row-wise reduction. Two candidates at the same distance in exact
    arithmetic, but not equal rows, can then be ordered differently by the
    two roundings. So the orders must agree up to their first difference,
    and there the two picks must be different rows (equal rows tie exactly
    and go to the smaller index) that tie to within rounding.
    """
    expected = [pool[i] for i in oracle_greedy_order(vectors[pool], target)[:len(stored)]]
    if stored == expected:
        return
    k = next(k for k, (a, b) in enumerate(zip(stored, expected)) if a != b)
    assert not np.array_equal(vectors[stored[k]], vectors[expected[k]]), (stored, expected)

    def dist(j):
        trial = np.mean(vectors[stored[:k] + [j]], axis=0)
        return float(np.linalg.norm(np.asarray(target) - trial))

    assert dist(stored[k]) == pytest.approx(dist(expected[k]), rel=1e-12, abs=1e-15), (
        stored, expected
    )


def feed(buf, table, index_order, batch_size):
    for lo in range(0, len(index_order), batch_size):
        idx = np.asarray(index_order[lo:lo + batch_size])
        buf.update(table.vectors[idx], table.labels[idx], idx)
    return buf


@pytest.fixture(scope="module")
def table():
    train, _ = synthesize(
        SyntheticSpec(4, 8, 30, cluster_spread=0.4, shift_strength=0.0, seed=77)
    )
    return train


class TestHerdingOrder:
    def test_single_candidate(self):
        assert herding_order(np.array([[1.0, 0.0]]), np.zeros(2)) == [0]

    def test_symmetric_tie_takes_smaller_index(self):
        cands = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert herding_order(cands, np.zeros(2)) == [0, 1]

    def test_duplicate_candidates_tie_by_index(self):
        cands = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        order = herding_order(cands, np.array([0.5, 0.5]))
        assert order[0] == 0 and order[1] == 1

    def test_matches_oracle_small_random(self):
        rng = np.random.default_rng(21)
        cands = unit_rows(rng, 6, 3)
        target = cands.mean(axis=0)
        assert herding_order(cands, target) == oracle_greedy_order(cands, target)

    def test_matches_oracle_many_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 5))
            cands = unit_rows(rng, n, d)
            target = unit_rows(rng, 1, d)[0]
            assert herding_order(cands, target) == oracle_greedy_order(cands, target)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            herding_order(np.zeros((0, 3)), np.zeros(3))

    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
    def test_target_of_wrong_shape_is_a_shape_error(self, shape):
        with pytest.raises(ShapeError, match=r"\(3,\) expected"):
            herding_order(np.ones((2, 3)), np.zeros(shape))


def reference_herd(pool, target):
    """Herding written plainly: fancy-index copies and ``np.linalg.norm``.

    :func:`_herd` must pick exactly what this picks, bit for bit,
    including every tie that rounding creates or breaks.
    """
    remaining = np.arange(pool.shape[0])
    chosen_sum = np.zeros(pool.shape[1])
    for step in range(1, pool.shape[0] + 1):
        trial_means = (chosen_sum + pool[remaining]) / step
        dists = np.linalg.norm(target - trial_means, axis=1)
        pick = remaining[int(np.argmin(dists))]
        yield int(pick)
        chosen_sum += pool[pick]
        remaining = remaining[remaining != pick]


@st.composite
def herding_pools(draw):
    """Pools with duplicate rows, rows on a coarse grid or of small
    integers (exact and rounding ties), mirrored rows, either memory layout,
    and several kinds of target."""
    n = draw(st.integers(1, 40))
    d = draw(st.one_of(st.integers(1, 8), st.integers(1, 256)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["normal", "grid", "integers"]))
    if values == "integers":
        pool = rng.integers(-2, 3, (n, d)).astype(np.float64)
    else:
        pool = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-3, 3))
        if values == "grid":
            pool = np.round(pool, draw(st.integers(0, 1)))
    if draw(st.booleans()):
        pool = pool[rng.integers(0, max(1, n // 3), n)]  # many duplicates
    if draw(st.booleans()) and n > 1:
        pool[n // 2 :] = -pool[: n - n // 2]  # mirrored rows tie around zero
    target = draw(st.sampled_from(["mean", "row", "zero", "random"]))
    target = {
        "mean": pool.mean(axis=0),
        "row": pool[0].copy(),
        "zero": np.zeros(d),
        "random": rng.standard_normal(d),
    }[target]
    if draw(st.booleans()):
        pool = np.asfortranarray(pool)
    return pool, target


class TestHerdingPicks:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(herding_pools())
    def test_matches_reference_pick_for_pick(self, case):
        pool, target = case
        assert list(_herd(pool, target)) == list(reference_herd(pool, target))


@st.composite
def screened_pools(draw):
    """Pools on both sides of the screen's margin and of its range.

    Rows 1 ulp apart, mirrored rows and small-integer grids put several
    rows within the margin. Scales of 1e+-99 stay screened; 1e101 and
    1e+-150 fall outside the range, and 1e+-160 underflow or overflow
    every square. Shapes come from a drawn seed, as in
    :func:`exemplar_streams`.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 512, 2048]))
    n = int(rng.integers(1, 301))
    values = draw(st.sampled_from(["ulp", "mirrored", "grid", "scaled", "nonfinite"]))
    if values == "grid":
        pool = rng.integers(-2, 3, (n, d)).astype(np.float64)
    else:
        pool = rng.standard_normal((n, d))
    if values == "ulp":
        pool = pool[rng.integers(0, max(1, n // 4), n)]
        pool += rng.integers(-1, 2, pool.shape) * np.spacing(pool)
    elif values == "mirrored" and n > 1:
        pool[n // 2 :] = -pool[: n - n // 2]
    elif values == "scaled":
        pool *= 10.0 ** int(rng.choice([-160, -150, -99, 99, 101, 150, 160]))
    elif values == "nonfinite":
        pool.flat[rng.integers(0, pool.size, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
    target = draw(st.sampled_from(["mean", "row", "zero"]))
    with np.errstate(all="ignore"):
        target = {"mean": pool.mean(axis=0), "row": pool[0].copy(), "zero": np.zeros(d)}[target]
    if draw(st.booleans()):
        pool = np.asfortranarray(pool)
    return pool, target


class TestScreenedHerding:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(screened_pools())
    def test_matches_reference_pick_for_pick(self, case):
        pool, target = case
        # Whole orders of the narrow pools; the wide ones, whose screen runs
        # in several one-thread row blocks at d=2048, to a prefix.
        picks = max(8, 2**22 // pool.size)
        with np.errstate(all="ignore"):
            assert list(islice(_herd(pool, target), picks)) == list(
                islice(reference_herd(pool, target), picks)
            )

    def test_rows_near_the_float_limit_get_the_full_computation(self):
        # Their squares are finite, but the screen's products with the
        # chosen sum of nearly parallel rows would overflow.
        rng = np.random.default_rng(30)
        pool = (rng.standard_normal(512) + 1e-3 * rng.standard_normal((200, 512))) * 1e152
        target = pool.mean(axis=0)
        assert list(_herd(pool, target)) == list(reference_herd(pool, target))

    def test_memory_stays_linear_in_the_pool(self):
        # An (n, n) Gram matrix of this pool would take 128 MB.
        pool = np.random.default_rng(31).standard_normal((4000, 8))
        target = pool.mean(axis=0)
        tracemalloc.start()
        try:
            picks = list(islice(_herd(pool, target), 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert picks == list(islice(reference_herd(pool, target), 5))
        assert peak < 4 * pool.nbytes


class TestBatchChecks:
    def test_one_dimensional_rows_are_a_shape_error(self):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        with pytest.raises(ShapeError, match=r"\(3,\)"):
            buf.update(np.ones(3), np.array([0, 0, 0]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("which", ["labels", "indices"])
    def test_labels_and_indices_must_be_one_dimensional(self, which):
        # One stable sort of the labels groups the batch; a column of
        # labels would be sorted row by row.
        arrays = {"labels": np.array([0, 1, 0]), "indices": np.array([0, 1, 2])}
        arrays[which] = arrays[which][:, None]
        buf = ReplayBuffer(4, "exemplar", seed=4)
        with pytest.raises(ShapeError, match=r"\(3, 1\)"):
            buf.update(np.ones((3, 2)), arrays["labels"], arrays["indices"])

    @pytest.mark.parametrize("label", [-1, 2**32])
    def test_class_id_outside_the_checkpoint_range_is_rejected(self, label, tmp_path):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        buf.update(np.ones((1, 3)), np.array([1]), np.array([0]))
        with pytest.raises(ClassIdError, match=f"class id {label} "):
            buf.update(np.ones((2, 3)), np.array([1, label]), np.array([1, 2]))
        assert buf.per_class_counts() == {1: 1}
        save_buffer(buf, tmp_path / "buffer.bin")
        assert load_buffer(tmp_path / "buffer.bin").per_class_counts() == {1: 1}

    @pytest.mark.parametrize("which", ["labels", "indices"])
    def test_non_integer_labels_and_indices_are_class_id_errors(self, which):
        # Converting straight to int64 stored labels [0.9, 1.7] as classes 0 and 1.
        arrays = {"labels": [0, 1], "indices": [0, 1]}
        arrays[which] = [0.9, 1.7]
        buf = ReplayBuffer(4, "exemplar", seed=4)
        with pytest.raises(ClassIdError, match="integer dtype"):
            buf.update(np.eye(2), arrays["labels"], arrays["indices"])
        assert buf.total_stored() == 0
        buf.update(np.zeros((0, 2)), [], [])  # an empty list has no dtype to judge

    def test_rows_grouped_by_class_in_batch_order(self, table):
        # Each class's rows are summed in batch order, so its running mean
        # keeps its bits.
        idx = np.random.default_rng(32).permutation(table.n_samples)[:40]
        buf = ReplayBuffer(table.n_samples, "exemplar", seed=4)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        for y in range(table.class_count):
            rows = idx[table.labels[idx] == y]
            assert buf.stats.count(y) == len(rows)
            np.testing.assert_array_equal(buf.stats._sums[y], table.vectors[rows].sum(axis=0))


class TestQuotaAndCapacity:
    def test_everything_fits_when_pool_is_small(self, table):
        for strategy in ("exemplar", "reservoir", "nearest", "outlier"):
            buf = ReplayBuffer(4, strategy, seed=1)
            idx = [0, 1, 30, 31]  # two candidates for each of two classes
            feed(buf, table, idx, 2)
            assert sorted(buf.stored_indices(0)) == [0, 1]
            assert sorted(buf.stored_indices(1)) == [30, 31]

    @pytest.mark.parametrize("strategy", ["exemplar", "reservoir", "nearest", "outlier"])
    def test_capacity_never_exceeded(self, table, strategy):
        rng = np.random.default_rng(23)
        buf = ReplayBuffer(13, strategy, seed=2)
        order = rng.permutation(table.n_samples)
        for lo in range(0, len(order), 7):
            idx = order[lo:lo + 7]
            buf.update(table.vectors[idx], table.labels[idx], idx)
            assert buf.total_stored() <= 13

    def test_class_balance_within_one(self, table):
        buf = ReplayBuffer(10, "exemplar", seed=3)
        feed(buf, table, np.arange(table.n_samples), 11)
        counts = list(buf.per_class_counts().values())
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 10

    @pytest.mark.parametrize("label", [0, 1], ids=["known-class", "new-class"])
    def test_row_width_change_rejected(self, label):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        buf.update(np.ones((2, 3)), np.array([0, 0]), np.array([0, 1]))
        with pytest.raises(ShapeError, match="dimension 3"):
            buf.update(np.ones((1, 5)), np.array([label]), np.array([2]))
        assert buf.per_class_counts() == {0: 2}

    @pytest.mark.parametrize("args, field", [
        ((2.5,), "capacity"), ((True,), "capacity"), (("3",), "capacity"),
        ((3, "exemplar", 1.5), "seed"),
    ], ids=["float-capacity", "bool-capacity", "str-capacity", "float-seed"])
    def test_non_integer_arguments_are_config_errors(self, args, field):
        # 2.5 and True were once stored as capacity 2 and 1, seed 1.5 as
        # seed 1, and "3" escaped as a TypeError.
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            ReplayBuffer(*args)

    def test_zero_quota_class_warns(self, table):
        buf = ReplayBuffer(2, "exemplar", seed=4)
        feed(buf, table, np.arange(table.n_samples), 30)
        assert buf.total_stored() == 2
        assert any("capacity" in w for w in buf.warnings)


class TestExemplarStrategy:
    def test_matches_oracle_on_whole_class(self, table):
        buf = ReplayBuffer(5, "exemplar", seed=5)
        idx = np.flatnonzero(table.labels == 0)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        pool = table.vectors[idx]
        target = pool.mean(axis=0)
        expected = [int(idx[i]) for i in oracle_greedy_order(pool, target)[:5]]
        assert buf.stored_indices(0) == expected

    def test_order_invariance_whole_class_batches(self, table):
        # Stream one whole class per batch under many class orderings; the
        # stored sets must coincide exactly.
        rng = np.random.default_rng(24)
        reference = None
        for _ in range(10):
            buf = ReplayBuffer(12, "exemplar", seed=6)
            for y in rng.permutation(table.class_count):
                idx = np.flatnonzero(table.labels == y)
                buf.update(table.vectors[idx], table.labels[idx], idx)
            contents = {y: set(buf.stored_indices(y)) for y in range(table.class_count)}
            if reference is None:
                reference = contents
            else:
                assert contents == reference

    def test_split_class_still_tracks_running_mean(self, table):
        # When a class arrives over two batches the second selection must be
        # the greedy order over stored + new against the running mean.
        idx = np.flatnonzero(table.labels == 2)
        first, second = idx[:15], idx[15:]
        buf = ReplayBuffer(8, "exemplar", seed=7)
        buf.update(table.vectors[first], table.labels[first], first)
        stored_after_first = list(buf.stored_indices(2))
        buf.update(table.vectors[second], table.labels[second], second)
        pool_idx = sorted(set(stored_after_first) | set(int(i) for i in second))
        pool = table.vectors[pool_idx]
        target = table.vectors[idx].mean(axis=0)
        expected = [pool_idx[i] for i in oracle_greedy_order(pool, target)[:8]]
        assert buf.stored_indices(2) == expected


class TestDistanceStrategies:
    def test_nearest_matches_sort_oracle(self, table):
        buf = ReplayBuffer(6, "nearest", seed=8)
        idx = np.flatnonzero(table.labels == 1)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        mean = table.vectors[idx].mean(axis=0)
        dists = np.linalg.norm(table.vectors[idx] - mean, axis=1)
        expected = set(idx[np.argsort(dists, kind="stable")[:6]].tolist())
        assert set(buf.stored_indices(1)) == expected

    def test_outlier_matches_sort_oracle(self, table):
        buf = ReplayBuffer(6, "outlier", seed=9)
        idx = np.flatnonzero(table.labels == 1)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        mean = table.vectors[idx].mean(axis=0)
        dists = np.linalg.norm(table.vectors[idx] - mean, axis=1)
        expected = set(idx[np.argsort(-dists, kind="stable")[:6]].tolist())
        assert set(buf.stored_indices(1)) == expected


class TestReservoir:
    def test_uniform_inclusion_frequency(self):
        # 2000 trials at k=5, n=25: every item's inclusion frequency must sit
        # within 4 standard errors of k/n (tighter 3-SE bound is exercised at
        # the acceptance level with 10000 trials).
        rng = np.random.default_rng(25)
        vectors = unit_rows(rng, 25, 3)
        hits = np.zeros(25)
        trials = 2000
        for t in range(trials):
            buf = ReplayBuffer(5, "reservoir", seed=t)
            buf.update(vectors, np.zeros(25, dtype=int), np.arange(25))
            for i in buf.stored_indices(0):
                hits[i] += 1
        freq = hits / trials
        p = 5 / 25
        se = np.sqrt(p * (1 - p) / trials)
        assert np.abs(freq - p).max() < 4 * se

    def test_deterministic_given_seed(self, table):
        runs = []
        for _ in range(2):
            buf = ReplayBuffer(9, "reservoir", seed=11)
            feed(buf, table, np.arange(table.n_samples), 13)
            runs.append({y: buf.stored_indices(y) for y in range(4)})
        assert runs[0] == runs[1]


class TestMomentDistance:
    def test_zero_when_everything_stored(self, table):
        buf = ReplayBuffer(table.n_samples, "exemplar", seed=12)
        feed(buf, table, np.arange(table.n_samples), 17)
        for d in buf.moment_distances(table).values():
            assert d <= 1e-12

    def test_single_point_definition(self, table):
        buf = ReplayBuffer(1, "exemplar", seed=13)
        idx = np.flatnonzero(table.labels == 0)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        (stored,) = buf.stored_indices(0)
        mean = table.vectors[idx].mean(axis=0)
        expected = float(np.linalg.norm(table.vectors[stored] - mean))
        assert buf.moment_distances(table)[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_class_absent(self, table):
        buf = ReplayBuffer(6, "exemplar", seed=14)
        idx = np.flatnonzero(table.labels == 3)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        assert set(buf.moment_distances(table)) == {3}

    def test_stored_class_absent_from_the_table_is_class_id_error(self):
        # Capacity 4, stored classes 0 and 5, a table of classes 0-2: the
        # distance of class 5 used to be a silent nan ("Mean of empty slice").
        rng = np.random.default_rng(19)
        buf = ReplayBuffer(4, "exemplar", seed=19)
        buf.update(rng.standard_normal((4, 3)), np.array([0, 5, 0, 5]), np.arange(4))
        table = SimpleNamespace(vectors=rng.standard_normal((6, 3)), labels=np.arange(6) % 3)
        with pytest.raises(ClassIdError, match="class 5 "):
            buf.moment_distances(table)


@st.composite
def streams(draw):
    """A small labelled stream: rows, labels, a schedule split into batches.

    Shapes come from a drawn seed: derandomized drawing of each size would
    put most examples at the smallest one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes, n = int(rng.integers(1, 6)), int(rng.integers(1, 31))
    labels = rng.integers(0, n_classes, n)
    # Rows drawn from fewer distinct vectors than samples repeat exactly.
    distinct = int(rng.integers(1, n + 1))
    vectors = rng.standard_normal((distinct, int(rng.integers(1, 5))))[
        rng.integers(0, distinct, n)
    ]
    order = rng.permutation(n)
    cuts = np.flatnonzero(rng.random(n - 1) < rng.random()) + 1
    batches = np.split(order, cuts)
    capacity = int(rng.integers(0, 2 * n_classes + 3))
    strategy = ["exemplar", "reservoir", "nearest", "outlier"][int(rng.integers(0, 4))]
    return vectors, labels, batches, capacity, strategy


class TestBufferProperties:
    # The same examples on every run (derandomize also turns off the example
    # database), and no deadline: a slow host must not fail a correct run.
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(streams())
    def test_every_batch_keeps_quota_order_and_balance(self, stream):
        vectors, labels, batches, capacity, strategy = stream
        buf = ReplayBuffer(capacity, strategy, seed=0)
        seen: dict[int, int] = {}
        for batch in batches:
            held = {y: buf.stored_indices(y) for y in seen}
            buf.update(vectors[batch], labels[batch], batch)
            batch_labels = labels[batch]
            arrived = {int(y): batch[batch_labels == y].tolist() for y in np.unique(batch_labels)}
            for y, idx in arrived.items():
                seen[y] = seen.get(y, 0) + len(idx)
            classes = sorted(seen)
            base, extra = divmod(capacity, len(classes))
            quotas = {y: base + (bisect_left(classes, y) < extra) for y in classes}
            for y in classes:
                stored = buf.stored_indices(y)
                assert len(stored) == min(quotas[y], seen[y])
                if y not in arrived:
                    if strategy == "exemplar":
                        assert stored == held[y][:len(stored)]
                    else:
                        assert set(stored) <= set(held[y])
                elif strategy == "exemplar":
                    pool = sorted(held.get(y, []) + arrived[y])
                    assert_greedy_prefix(stored, pool, vectors, buf.stats.mean(y))
            capped = [n for y, n in buf.per_class_counts().items() if n < seen[y]]
            assert not capped or max(capped) - min(capped) <= 1
            assert buf.total_stored() <= capacity


class EagerBuffer(ReplayBuffer):
    """The exemplar update as it was before herding was deferred.

    Every update herds the pooled class, also when the whole pool fits its
    quota, and a quota shrink always copies the kept prefix. Oracle for the
    deferred order.
    """

    def _update_exemplar(self, y, new_idx, new_rows, quota):
        if len(new_idx) == 0:
            self._keep(y, self._indices[y][:quota].copy(), self._rows[y][:quota].copy())
            return
        idx, rows = self._pooled(y, new_idx, new_rows)
        keep = list(islice(_herd(rows, self.stats.mean(y)), quota))
        self._keep(y, idx[keep], rows[keep])


def scbf_bytes(buf) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "buffer.bin"
        save_buffer(buf, path)
        return path.read_bytes()


@st.composite
def exemplar_streams(draw):
    """Streams of 1-8 row batches with duplicate rows and re-fed dataset
    indices, at capacities of zero, below and above the class count.

    Shapes come from a drawn seed: derandomized drawing of each size
    would put most examples at the smallest one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes, n = int(rng.integers(1, 7)), int(rng.integers(1, 41))
    distinct = int(rng.integers(1, n + 1))
    vectors = rng.standard_normal((distinct, int(rng.integers(1, 5))))[
        rng.integers(0, distinct, n)
    ]
    labels = rng.integers(0, n_classes, n)
    order = rng.permutation(n)
    if rng.random() < 0.3:  # some dataset indices arrive twice, with their row
        order = rng.permutation(np.concatenate([order, rng.integers(0, n, n // 2 + 1)]))
    cuts = np.cumsum(rng.integers(1, 9, len(order)))
    batches = np.split(order, cuts[cuts < len(order)])
    capacity = [0, int(rng.integers(0, n_classes)), int(rng.integers(n_classes, n + 8))][
        rng.choice(3, p=[0.1, 0.3, 0.6])
    ]
    reads = draw(st.sampled_from(["every", "end"]))
    first = draw(st.integers(0, 4))
    handoff = draw(st.sampled_from(["none", "copy", "checkpoint"]))
    at = int(rng.integers(0, len(batches) + 1))
    return vectors, labels, batches, capacity, (reads, first), handoff, at


def assert_same_contents(buf, ref, table, first=0):
    """Every read agrees; ``first`` picks the read that has to order the buffer."""
    classes = sorted(ref.stats.classes())
    reads = [
        lambda b: [b.stored_indices(y) for y in classes],
        lambda b: [(a.shape, a.tobytes()) for a in b.training_arrays()],
        lambda b: b.content_digest(),
        lambda b: b.moment_distances(table),
        scbf_bytes,
    ]
    for read in reads[first:] + reads[:first]:
        assert read(buf) == read(ref)
    assert buf.warnings == ref.warnings


class TestDeferredOrder:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(exemplar_streams())
    def test_matches_eager_herding(self, stream):
        vectors, labels, batches, capacity, (reads, first), handoff, at = stream
        table = SimpleNamespace(vectors=vectors, labels=labels)
        buf = ReplayBuffer(capacity, "exemplar", seed=0)
        ref = EagerBuffer(capacity, "exemplar", seed=0)
        for t, batch in enumerate(batches):
            if t == at and handoff == "copy":
                buf = buf.copy()
            elif t == at and handoff == "checkpoint":
                with tempfile.TemporaryDirectory() as tmp:
                    save_buffer(buf, Path(tmp) / "buffer.bin")
                    buf = load_buffer(Path(tmp) / "buffer.bin")
            buf.update(vectors[batch], labels[batch], batch)
            ref.update(vectors[batch], labels[batch], batch)
            assert buf.per_class_counts() == ref.per_class_counts()
            if reads == "every":
                assert_same_contents(buf, ref, table, first)
        assert_same_contents(buf, ref, table, first)

    def test_herds_only_when_order_is_read(self, table, monkeypatch):
        calls = []

        def counted(pool, target):
            calls.append(len(pool))
            return _herd(pool, target)

        monkeypatch.setattr(replay, "_herd", counted)
        # Room for every row, so no class ever overflows its quota.
        buf = ReplayBuffer(table.n_samples, "exemplar", seed=16)
        feed(buf, table, np.random.default_rng(16).permutation(table.n_samples), 7)
        assert calls == []
        buf.content_digest()
        assert sorted(calls) == [30] * table.class_count
        calls.clear()
        buf.training_arrays()
        buf.moment_distances(table)
        assert calls == []

    def test_quota_shrink_that_drops_nothing_keeps_arrays(self, table):
        buf = ReplayBuffer(20, "exemplar", seed=17)
        idx = np.flatnonzero(table.labels == 0)[:5]
        buf.update(table.vectors[idx], table.labels[idx], idx)
        rows = buf._rows[0]
        new = np.flatnonzero(table.labels == 1)[:5]
        buf.update(table.vectors[new], table.labels[new], new)  # quota 20 -> 10
        assert buf._rows[0] is rows

    def test_update_without_new_class_does_not_list_classes(self, table, monkeypatch):
        buf = ReplayBuffer(6, "exemplar", seed=18)
        feed(buf, table, [0, 30, 60], 3)

        def listed(self):
            raise AssertionError("update listed every class seen")

        monkeypatch.setattr(RunningClassMean, "classes", listed)
        feed(buf, table, [1, 31, 2, 61], 2)
        assert buf.per_class_counts() == {0: 2, 1: 2, 2: 2}


class TestBufferCheckpoint:
    def test_round_trip_contents_and_behavior(self, table, tmp_path):
        # The table is class-sorted, so the index-order stream first shows
        # class 3 after the checkpoint: quotas shrink and classes are revisited
        # on loaded contents. The shuffled stream shows every class before it.
        # Capacity 2 is below the class count and leaves classes without a
        # slot; capacity 0 stores nothing at all.
        streams = {
            "index-order": np.arange(table.n_samples),
            "shuffled": np.random.default_rng(15).permutation(table.n_samples),
        }
        classes = range(table.class_count)
        for name, order in streams.items():
            for strategy in ("exemplar", "reservoir", "nearest", "outlier"):
                for capacity in (11, 2, 0):
                    buf = ReplayBuffer(capacity, strategy, seed=15)
                    feed(buf, table, order[:80], 9)
                    path = tmp_path / f"{name}-{strategy}-{capacity}.bin"
                    save_buffer(buf, path)
                    loaded = load_buffer(path)
                    case = (name, strategy, capacity)
                    assert loaded.capacity == buf.capacity, case
                    assert loaded.strategy == buf.strategy, case
                    assert [loaded.stored_indices(y) for y in classes] == [
                        buf.stored_indices(y) for y in classes
                    ], case
                    assert np.array_equal(
                        loaded.training_arrays()[0], buf.training_arrays()[0]
                    ), case
                    assert loaded.content_digest() == buf.content_digest(), case
                    # Continuing the stream must agree step for step.
                    feed(buf, table, order[80:], 9)
                    feed(loaded, table, order[80:], 9)
                    assert [loaded.stored_indices(y) for y in classes] == [
                        buf.stored_indices(y) for y in classes
                    ], case
                    assert loaded.warnings == buf.warnings, case
                    assert loaded._rng.bit_generator.state == buf._rng.bit_generator.state, case

    def test_moment_csv_columns(self, tmp_path):
        rows = [
            {"class": 0, "strategy": "exemplar", "seed": 1, "distance": 0.25},
            {"class": 1, "strategy": "reservoir", "seed": 2, "distance": 0.5},
        ]
        path = tmp_path / "sweep.csv"
        write_moment_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,strategy,seed,distance"
        assert lines[1] == "0,exemplar,1,0.25"


class ParentBuffer(ReplayBuffer):
    """Every batch through the grouped path, and reservoir draws one per row.

    The update as it was before one-row batches got their own path and the
    reservoir drew a batch's slots in one call: a stable argsort groups the
    labels, running sums are ``sum(axis=0)`` of the class rows, the pool is
    concatenated and argsorted, the herded prefix is gathered through a list,
    and algorithm R draws and writes one row at a time. Oracle for both.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.stats = SummedMeans()

    @staticmethod
    def _arrivals(labels):
        order = np.argsort(labels, kind="stable")
        ys = labels[order]
        if len(ys) and (ys[0] < 0 or ys[-1] > 2**32 - 1):
            raise ClassIdError(f"class id {int(ys[0] if ys[0] < 0 else ys[-1])} outside")
        bounds = [0, *((ys[1:] != ys[:-1]).nonzero()[0] + 1).tolist(), len(ys)]
        return {int(ys[a]): order[a:b] for a, b in zip(bounds, bounds[1:]) if b > a}

    def _pooled(self, y, new_idx, new_rows):
        idx = np.concatenate([self._indices[y], new_idx])
        order = np.argsort(idx, kind="stable")
        return idx[order], np.concatenate([self._rows[y], new_rows])[order]

    def _update_exemplar(self, y, new_idx, new_rows, quota):
        if len(new_idx) == 0:
            self._truncate(y, quota)
            return
        idx, rows = self._pooled(y, new_idx, new_rows)
        if len(idx) <= quota:
            self._keep(y, idx, rows)
            self._unordered.add(y)
            return
        keep = list(islice(_herd(rows, self.stats.mean(y)), quota))
        self._keep(y, idx[keep], rows[keep])

    def _update_reservoir(self, y, new_idx, new_rows, quota):
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
        for i in range(fill, len(new_idx)):
            seen += 1
            j = int(self._rng.integers(0, seen))
            if j < quota:
                idx[j] = new_idx[i]
                rows[j] = new_rows[i]
        self._reservoir_seen[y] = seen
        keep = list(range(len(idx)))
        while len(keep) > quota:
            del keep[int(self._rng.integers(0, len(keep)))]
        if len(keep) < len(idx):
            self._keep(y, idx[keep], rows[keep])


class SummedMeans(RunningClassMean):
    """Running sums that always add ``sum(axis=0)`` of the class rows."""

    def add_batch(self, vectors, groups):
        for y, pos in groups.items():
            batch_sum = vectors[pos].sum(axis=0)
            if y in self._sums:
                self._sums[y] = self._sums[y] + batch_sum
                self._counts[y] += len(pos)
            else:
                self._sums[y] = batch_sum
                self._counts[y] = len(pos)
                self.dim = len(batch_sum)


def assert_same_state(buf, ref):
    """Equal internals, bit for bit (a -0.0 differs from +0.0), and RNG state."""
    assert buf._classes == ref._classes
    assert buf._unordered == ref._unordered
    assert buf._reservoir_seen == ref._reservoir_seen
    assert buf.warnings == ref.warnings
    assert buf._rng.bit_generator.state == ref._rng.bit_generator.state
    assert buf.stats._counts == ref.stats._counts
    assert buf.stats.dim == ref.stats.dim
    for mine, theirs in ((buf.stats._sums, ref.stats._sums), (buf._indices, ref._indices),
                         (buf._rows, ref._rows)):
        assert mine.keys() == theirs.keys()
        for y in mine:
            assert mine[y].dtype == theirs[y].dtype and mine[y].shape == theirs[y].shape
            assert mine[y].tobytes() == theirs[y].tobytes(), y


@st.composite
def one_row_streams(draw):
    """Streams of one-row batches over every strategy.

    Rows come from a small grid that holds -0.0, so some sums meet signed
    zeros; dataset indices repeat, with their row or with another one; class
    ids include 0 and 2**32 - 1; capacities include 0 and fewer slots than
    classes. Shapes come from a drawn seed, as in ``exemplar_streams``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.array([0, 1, 2, 7, 2**32 - 1])[: int(rng.integers(1, 6))]
    n, d = int(rng.integers(1, 41)), int(rng.integers(1, 5))
    grid = np.array([-0.0, 0.0, -1.0, 0.5, 2.0])
    vectors = np.where(rng.random((n, d)) < 0.5, grid[rng.integers(0, 5, (n, d))],
                       rng.standard_normal((n, d)))
    labels = ids[rng.integers(0, len(ids), n)]
    indices = rng.permutation(n)
    repeats = rng.random(n) < 0.2
    indices[repeats] = rng.integers(0, n, repeats.sum())
    for i in np.flatnonzero(repeats & (rng.random(n) < 0.5)):
        vectors[i] = vectors[np.flatnonzero(indices == indices[i])[0]]  # a repeat with its row
    capacity = [0, int(rng.integers(0, len(ids))), int(rng.integers(len(ids), n + 8))][
        rng.choice(3, p=[0.1, 0.3, 0.6])
    ]
    strategy = replay.STRATEGIES[int(rng.integers(0, 4))]
    reads = draw(st.sampled_from(["every", "end"]))
    return vectors, labels, indices, capacity, strategy, reads


class TestOneRowPath:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(one_row_streams())
    def test_matches_the_grouped_path(self, stream):
        vectors, labels, indices, capacity, strategy, reads = stream
        buf = ReplayBuffer(capacity, strategy, 3)
        ref = ParentBuffer(capacity, strategy, 3)
        classes = sorted(set(labels.tolist()))
        for i in range(len(labels)):
            batch = slice(i, i + 1)
            buf.update(vectors[batch], labels[batch], indices[batch])
            ref.update(vectors[batch], labels[batch], indices[batch])
            assert_same_state(buf, ref)
            if reads == "every" or i == len(labels) - 1:
                assert [buf.stored_indices(y) for y in classes] == [
                    ref.stored_indices(y) for y in classes
                ]
                assert buf.content_digest() == ref.content_digest()
                assert_same_state(buf, ref)

    @pytest.mark.parametrize("label", [-1, 2**32])
    def test_one_row_class_id_outside_the_checkpoint_range(self, label):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        with pytest.raises(ClassIdError, match=f"class id {label} "):
            buf.update(np.ones((1, 3)), np.array([label]), np.array([0]))
        assert buf.total_stored() == 0 and buf.stats.dim is None

    def test_signed_zero_row_sums_to_positive_zero(self):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        buf.update(np.array([[-0.0, 1.0]]), np.array([0]), np.array([0]))
        assert buf.stats._sums[0].tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_width_survives_copy_and_checkpoint(self, tmp_path):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        assert buf.stats.dim is None
        buf.update(np.ones((1, 3)), np.array([0]), np.array([0]))
        save_buffer(buf, tmp_path / "buffer.bin")
        for other in (buf.copy(), load_buffer(tmp_path / "buffer.bin")):
            assert other.stats.dim == 3
            with pytest.raises(ShapeError, match="dimension 3"):
                other.update(np.ones((1, 5)), np.array([0]), np.array([1]))


@st.composite
def reservoir_streams(draw):
    """Batches of 1-12 rows into reservoirs that fill, overflow and shrink.

    New classes keep arriving, so quotas shrink mid-stream and whole
    batches land past a class's fill.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes, n = int(rng.integers(1, 7)), int(rng.integers(1, 120))
    labels = np.sort(rng.integers(0, n_classes, n)) if rng.random() < 0.5 else (
        rng.integers(0, n_classes, n)
    )
    vectors = rng.standard_normal((n, int(rng.integers(1, 4))))
    cuts = np.cumsum(rng.integers(1, 13, n))
    batches = np.split(np.arange(n), cuts[cuts < n])
    capacity = int(rng.integers(0, 3 * n_classes + 4))
    return vectors, labels, batches, capacity, int(rng.integers(0, 1000))


class TestReservoirDraws:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(reservoir_streams())
    def test_one_call_per_batch_equals_algorithm_r_row_by_row(self, stream):
        vectors, labels, batches, capacity, seed = stream
        buf = ReplayBuffer(capacity, "reservoir", seed)
        ref = ParentBuffer(capacity, "reservoir", seed)
        for batch in batches:
            buf.update(vectors[batch], labels[batch], batch)
            ref.update(vectors[batch], labels[batch], batch)
            assert_same_state(buf, ref)

    def test_a_slot_drawn_twice_keeps_the_later_row(self):
        # Capacity 1 and 40 rows in one batch: most draws past the first
        # row miss, and any later hit must overwrite an earlier one.
        for seed in range(20):
            buf = ReplayBuffer(1, "reservoir", seed)
            ref = ParentBuffer(1, "reservoir", seed)
            rows = np.arange(80.0).reshape(40, 2)
            buf.update(rows, np.zeros(40, dtype=int), np.arange(40))
            ref.update(rows, np.zeros(40, dtype=int), np.arange(40))
            assert_same_state(buf, ref)
