import json
import struct
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
    DataError,
    FormatError,
    ReplayBuffer,
    ShapeError,
    SyntheticSpec,
    herding_order,
    load_buffer,
    save_buffer,
    synthesize,
    write_moment_csv,
)
from scroll import replay
from scroll.harness import _class_means
from scroll.replay import ONE_THREAD_MULADDS, STRATEGIES, _herd_lanes


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

    :func:`_herd_lanes` must pick exactly what this picks, bit for bit,
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


def herd(pool, target, picks=None):
    """The first ``picks`` (default all) of one pool's herd, as a list."""
    return _herd_lanes([(pool, target, len(pool) if picks is None else picks)])[0].tolist()


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
        assert herd(pool, target) == list(reference_herd(pool, target))


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
        picks = min(len(pool), max(8, 2**22 // pool.size))
        with np.errstate(all="ignore"):
            assert herd(pool, target, picks) == list(islice(reference_herd(pool, target), picks))

    def test_rows_near_the_float_limit_get_the_full_computation(self):
        # Their squares are finite, but the screen's products with the
        # chosen sum of nearly parallel rows would overflow.
        rng = np.random.default_rng(30)
        pool = (rng.standard_normal(512) + 1e-3 * rng.standard_normal((200, 512))) * 1e152
        target = pool.mean(axis=0)
        assert herd(pool, target) == list(reference_herd(pool, target))

    def test_memory_stays_linear_in_the_pool(self):
        # An (n, n) Gram matrix of this pool would take 128 MB.
        pool = np.random.default_rng(31).standard_normal((4000, 8))
        target = pool.mean(axis=0)
        tracemalloc.start()
        try:
            picks = herd(pool, target, 5)
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

    @pytest.mark.parametrize("n_rows", [2, 4])
    def test_rows_of_another_length_than_the_labels_are_a_shape_error(self, n_rows):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        with pytest.raises(ShapeError, match="disagree in length"):
            buf.update(np.ones((n_rows, 2)), np.array([0, 1, 0]), np.array([0, 1, 2]))
        assert buf.total_stored() == 0

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

    def test_uint64_dataset_index_past_int64_names_its_value(self):
        # Cast to int64, index 2**64 - 1 was stored as -1.
        buf = ReplayBuffer(4, "exemplar", seed=4)
        with pytest.raises(ClassIdError, match=f"dataset indices: {2**64 - 1} is past"):
            buf.update(np.ones((2, 3)), np.array([0, 1]), np.array([0, 2**64 - 1], np.uint64))
        assert buf.total_stored() == 0
        buf.update(np.ones((1, 3)), np.array([0]), np.array([2**63 - 1], np.uint64))
        assert buf.stored_indices(0) == [2**63 - 1]

    @pytest.mark.parametrize("capacity, seed", [(2**64 - 1, 2**63 - 1), (3, -(2**63))])
    def test_capacity_and_seed_at_the_header_limits_round_trip(self, capacity, seed, tmp_path):
        # One past these limits is a ConfigError (tests/test_cli.py).
        buf = ReplayBuffer(capacity, "reservoir", seed)
        buf.update(np.eye(3), np.array([0, 0, 1]), np.arange(3))
        save_buffer(buf, tmp_path / "buffer.bin")
        loaded = load_buffer(tmp_path / "buffer.bin")
        assert (loaded.capacity, loaded.seed) == (capacity, seed)
        assert scbf_bytes(loaded) == scbf_bytes(buf)

    def test_rows_grouped_by_class_in_batch_order(self, table):
        # Each class's rows are summed in batch order, so its running mean
        # keeps its bits.
        idx = np.random.default_rng(32).permutation(table.n_samples)[:40]
        buf = ReplayBuffer(table.n_samples, "exemplar", seed=4)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        for y in range(table.class_count):
            rows = idx[table.labels[idx] == y]
            assert buf._seen[y] == len(rows)
            np.testing.assert_array_equal(buf._sums[y], table.vectors[rows].sum(axis=0))


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
        for d in buf.moment_distances(_class_means(table)).values():
            assert d <= 1e-12

    def test_single_point_definition(self, table):
        buf = ReplayBuffer(1, "exemplar", seed=13)
        idx = np.flatnonzero(table.labels == 0)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        (stored,) = buf.stored_indices(0)
        mean = table.vectors[idx].mean(axis=0)
        expected = float(np.linalg.norm(table.vectors[stored] - mean))
        assert buf.moment_distances(_class_means(table))[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_class_absent(self, table):
        buf = ReplayBuffer(6, "exemplar", seed=14)
        idx = np.flatnonzero(table.labels == 3)
        buf.update(table.vectors[idx], table.labels[idx], idx)
        assert set(buf.moment_distances(_class_means(table))) == {3}

    def test_stored_class_absent_from_the_table_is_class_id_error(self):
        # Capacity 4, stored classes 0 and 5, a table of classes 0-2: the
        # distance of class 5 used to be a silent nan ("Mean of empty slice").
        rng = np.random.default_rng(19)
        buf = ReplayBuffer(4, "exemplar", seed=19)
        buf.update(rng.standard_normal((4, 3)), np.array([0, 5, 0, 5]), np.arange(4))
        table = SimpleNamespace(vectors=rng.standard_normal((6, 3)), labels=np.arange(6) % 3,
                                class_count=3)
        with pytest.raises(ClassIdError, match="class 5 "):
            buf.moment_distances(_class_means(table))

    @pytest.mark.parametrize("width", [7, 9])
    def test_means_of_another_width_are_a_shape_error(self, table, width):
        buf = feed(ReplayBuffer(6, "exemplar", seed=14), table, [0, 30, 60], 3)
        with pytest.raises(ShapeError, match=rf"class 0: shape \(8,\) expected, got \({width},\)"):
            buf.moment_distances(np.zeros((table.class_count, width)))


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
                    assert_greedy_prefix(stored, pool, vectors, buf._mean(y))
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
        keep = list(islice(reference_herd(rows, self._mean(y)), quota))
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


def assert_same_contents(buf, ref, means, first=0):
    """Every read agrees; ``first`` picks the read that has to order the buffer."""
    classes = sorted(ref._sums)
    reads = [
        lambda b: [b.stored_indices(y) for y in classes],
        lambda b: [(a.shape, a.tobytes()) for a in b.training_arrays()],
        lambda b: b.content_digest(),
        lambda b: b.moment_distances(means),
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
        # Class means by id; an id with no row is never stored, so its zero is never read.
        present = np.unique(labels)
        means = np.zeros((labels.max() + 1, vectors.shape[1]))
        means[present] = [vectors[labels == y].mean(axis=0) for y in present]
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
                assert_same_contents(buf, ref, means, first)
        assert_same_contents(buf, ref, means, first)

    def test_herds_only_when_order_is_read(self, table, monkeypatch):
        calls = []

        def counted(lanes):
            calls.extend(len(pool) for pool, _, _ in lanes)
            return _herd_lanes(lanes)

        monkeypatch.setattr(replay, "_herd_lanes", counted)
        # Room for every row, so no class ever overflows its quota.
        buf = ReplayBuffer(table.n_samples, "exemplar", seed=16)
        feed(buf, table, np.random.default_rng(16).permutation(table.n_samples), 7)
        assert calls == []
        buf.content_digest()
        assert sorted(calls) == [30] * table.class_count
        calls.clear()
        buf.training_arrays()
        buf.moment_distances(_class_means(table))
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
        asked, original = [], ReplayBuffer._quota

        def quota(self, y, classes):
            asked.append(y)
            return original(self, y, classes)

        monkeypatch.setattr(ReplayBuffer, "_quota", quota)
        feed(buf, table, [1, 31, 2, 61], 2)  # classes {0, 1}, then {0, 2}
        assert asked == [0, 1, 0, 2]
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

    @staticmethod
    def _two_class_file(tmp_path):
        """An ``SCBF`` file of two classes, each storing 2 of 3 rows, and
        the byte offset of each class header."""
        buf = ReplayBuffer(4, "exemplar", seed=3)
        rows = np.random.default_rng(16).standard_normal((6, 3))
        buf.update(rows, np.array([0, 0, 0, 1, 1, 1]), np.arange(6))
        path = tmp_path / "buffer.bin"
        save_buffer(buf, path)
        data = bytearray(path.read_bytes())
        # Magic, u16 version, u8 strategy, u64 capacity, i64 seed, u32
        # classes, u32 d; then per class u32 id, u32 stored, u64 seen, the
        # d-float sum, stored indices and stored rows.
        headers, at = [], 31
        for _ in range(2):
            headers.append(at)
            at += 16 + 8 * (3 + 2 + 2 * 3)
        assert [struct.unpack_from("<II", data, at) for at in headers] == [(0, 2), (1, 2)]
        return path, data, headers

    def test_class_ids_that_do_not_ascend_are_a_format_error(self, tmp_path):
        path, data, (first, second) = self._two_class_file(tmp_path)
        for at, y in ((second, 0), (first, 2)):  # ids [0, 0], then [2, 1]
            edited = bytearray(data)
            edited[at : at + 4] = struct.pack("<I", y)
            path.write_bytes(bytes(edited))
            with pytest.raises(FormatError, match="ascend strictly"):
                load_buffer(path)

    def test_seen_count_of_zero_or_below_the_stored_rows_is_a_format_error(self, tmp_path):
        # A class loaded with seen 0 was listed twice once the next update
        # met it as a new class, and the four slots split three ways.
        path, data, (first, _) = self._two_class_file(tmp_path)
        for seen in (0, 1):
            edited = bytearray(data)
            edited[first + 8 : first + 16] = struct.pack("<Q", seen)
            path.write_bytes(bytes(edited))
            with pytest.raises(FormatError, match=f"class 0 stores 2 rows but counts {seen}"):
                load_buffer(path)

    def test_seen_count_past_int64_is_a_format_error(self, tmp_path):
        # A seen of 2**64 - 1 once loaded, and the next reservoir update
        # raised numpy's ValueError drawing a slot past the int64 range.
        path, data, (first, _) = self._two_class_file(tmp_path)
        for seen in (2**63, 2**64 - 1):
            edited = bytearray(data)
            edited[first + 8 : first + 16] = struct.pack("<Q", seen)
            path.write_bytes(bytes(edited))
            with pytest.raises(FormatError, match=f"class 0 counts {seen} seen, past the int64"):
                load_buffer(path)
        data[first + 8 : first + 16] = struct.pack("<Q", 2**63 - 1)
        path.write_bytes(bytes(data))
        assert load_buffer(path)._seen[0] == 2**63 - 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_class_sum_is_a_data_error_at_load(self, tmp_path, value):
        path, data, (first, _) = self._two_class_file(tmp_path)
        at = first + 16 + 8  # past the class header, entry 1 of the sum
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="non-finite values in class sums"):
            load_buffer(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_stored_row_is_a_data_error_at_load(self, tmp_path, value):
        # A NaN row once loaded, and training_arrays() returned it.
        path, data, (_, second) = self._two_class_file(tmp_path)
        at = second + 16 + 8 * (3 + 2) + 8 * 4  # past the sum and indices: row 1, entry 1
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="non-finite values in stored rows"):
            load_buffer(path)

    def test_version_one_is_a_format_error(self, tmp_path):
        # Version 1 stored a reservoir count per class beside the seen count.
        path, data, _ = self._two_class_file(tmp_path)
        data[4:6] = struct.pack("<H", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unsupported buffer version 1"):
            load_buffer(path)

    def test_rows_past_the_quota_are_a_format_error(self, tmp_path):
        # Capacity 1 over two classes gives class 0 one slot and class 1 none.
        path, data, _ = self._two_class_file(tmp_path)
        data[7:15] = struct.pack("<Q", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="class 0 stores 2 rows, past its quota of 1"):
            load_buffer(path)

    def test_unknown_strategy_tag_is_a_format_error(self, tmp_path):
        path, data, _ = self._two_class_file(tmp_path)
        data[6] = len(STRATEGIES)  # after the magic and the u16 version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"unknown strategy tag {len(STRATEGIES)}"):
            load_buffer(path)

    @pytest.mark.parametrize("blob", ["rng state", "warnings"])
    @pytest.mark.parametrize("byte", [b"x", b"\xff"])
    def test_garbled_json_is_a_format_error(self, tmp_path, blob, byte):
        # One edited byte once let JSONDecodeError or UnicodeDecodeError escape.
        path, data, _ = self._two_class_file(tmp_path)
        assert data.endswith(b"[]")  # the warnings end the file
        at = data.index(b'{"bit_generator"') if blob == "rng state" else len(data) - 2
        data[at : at + 1] = byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"corrupt {blob}"):
            load_buffer(path)

    @pytest.mark.parametrize("old, new", [
        (b'"PCG64"', b'"PCG65"'),  # ValueError
        (b'"has_uint32"', b'"has_uint99"'),  # KeyError
        (b'"has_uint32": 0', b'"has_uint32":[]'),  # TypeError
        (b'"uinteger": 0', b'"uinteger":-1'),  # OverflowError
    ])
    def test_rng_state_of_the_wrong_shape_is_a_format_error(self, tmp_path, old, new):
        # "PCG65" once escaped as a bare ValueError.
        path, data, _ = self._two_class_file(tmp_path)
        assert data.count(old) == 1
        path.write_bytes(bytes(data).replace(old, new))
        with pytest.raises(FormatError, match="rng state is not a PCG64 state"):
            load_buffer(path)

    @staticmethod
    def _reservoir_file_with_rng_state(tmp_path, edit):
        """A reservoir ``SCBF`` file whose rng state JSON ``edit`` has rewritten in place."""
        buf = ReplayBuffer(4, "reservoir", seed=3)
        rows = np.random.default_rng(17).standard_normal((6, 3))
        buf.update(rows, np.array([0, 0, 0, 1, 1, 1]), np.arange(6))
        path = tmp_path / "buffer.bin"
        save_buffer(buf, path)
        data = path.read_bytes()
        at = data.index(b'{"bit_generator"')
        (size,) = struct.unpack("<I", data[at - 4 : at])
        state = json.loads(data[at : at + size])
        edit(state["state"])
        blob = json.dumps(state, sort_keys=True).encode()
        path.write_bytes(data[: at - 4] + struct.pack("<I", len(blob)) + blob + data[at + size :])
        return path

    def test_rng_state_with_a_fractional_state_is_a_format_error(self, tmp_path):
        # The state plus 0.5 once loaded, truncated to another generator state.
        path = self._reservoir_file_with_rng_state(
            tmp_path, lambda pcg: pcg.update(state=pcg["state"] + 0.5)
        )
        with pytest.raises(FormatError, match="rng state is not a PCG64 state of integers"):
            load_buffer(path)

    def test_rng_state_with_a_float_increment_is_a_format_error(self, tmp_path):
        # A float "inc" once loaded, rounded to another generator state.
        path = self._reservoir_file_with_rng_state(
            tmp_path, lambda pcg: pcg.update(inc=float(pcg["inc"]))
        )
        with pytest.raises(FormatError, match="rng state is not a PCG64 state of integers"):
            load_buffer(path)

    @pytest.mark.parametrize("blob", [b"{}", b"[1]", b'["a", null]', b'"a"', b"null"])
    def test_warnings_that_are_not_a_list_of_strings_are_a_format_error(self, tmp_path, blob):
        # A warnings blob of {} once loaded as buf.warnings == {}.
        path, data, _ = self._two_class_file(tmp_path)
        assert data[-6:] == struct.pack("<I", 2) + b"[]"
        path.write_bytes(bytes(data[:-6]) + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(FormatError, match="warnings must be"):
            load_buffer(path)

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
    and algorithm R draws and writes one row at a time, with a count of its
    own of the rows each class has seen. Oracle for both.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.reservoir_seen: dict[int, int] = {}

    def _add_sums(self, vectors, groups):
        for y, pos in groups.items():
            batch_sum = vectors[pos].sum(axis=0)
            if y in self._sums:
                self._sums[y] = self._sums[y] + batch_sum
                self._seen[y] += len(pos)
            else:
                self._sums[y] = batch_sum
                self._seen[y] = len(pos)
                self.dim = len(batch_sum)

    @staticmethod
    def _arrivals(labels):
        order = np.argsort(labels, kind="stable")
        ys = labels[order]
        if len(ys) and (ys[0] < 0 or ys[-1] > 2**32 - 1):
            raise ClassIdError(f"class id {int(ys[0] if ys[0] < 0 else ys[-1])} outside")
        bounds = [0, *((ys[1:] != ys[:-1]).nonzero()[0] + 1).tolist(), len(ys)]
        return {int(ys[a]): order[a:b] for a, b in zip(bounds, bounds[1:]) if b > a}

    def _pooled(self, y, new_idx, new_rows):
        self._settle()
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
        keep = list(islice(reference_herd(rows, self._mean(y)), quota))
        self._keep(y, idx[keep], rows[keep])

    def _update_reservoir(self, y, new_idx, new_rows, quota):
        seen = self.reservoir_seen.get(y, 0)
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
        self.reservoir_seen[y] = seen
        keep = list(range(len(idx)))
        while len(keep) > quota:
            del keep[int(self._rng.integers(0, len(keep)))]
        if len(keep) < len(idx):
            self._keep(y, idx[keep], rows[keep])


class TestOracles:
    @pytest.mark.parametrize("oracle", [EagerBuffer, ParentBuffer])
    def test_every_override_names_a_buffer_method(self, oracle):
        # An override left behind by a rename would never be called, and the
        # oracle would compare the buffer with itself.
        defined = [name for name, value in vars(oracle).items()
                   if callable(value) or isinstance(value, staticmethod)]
        assert defined
        assert [name for name in defined if name not in vars(ReplayBuffer)] == []


class TestCopy:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_copy_keeps_its_bytes_and_ends_where_the_original_ends(self, table, strategy):
        # Capacity 10 over four classes: quotas shrink, reservoir rows are
        # overwritten in place, and exemplar herds wait at the copy.
        order = np.random.default_rng(43).permutation(table.n_samples)
        buf = ReplayBuffer(10, strategy, seed=43)
        feed(buf, table, order[:21], 1)
        feed(buf, table, order[21:60], 3)
        assert strategy != "exemplar" or buf._waiting
        twin = buf.copy()
        at_copy = scbf_bytes(twin)
        feed(buf, table, order[60:], 4)
        assert scbf_bytes(twin) == at_copy
        feed(twin, table, order[60:], 4)
        assert scbf_bytes(twin) == scbf_bytes(buf)


def assert_same_state(buf, ref):
    """Equal internals, bit for bit (a -0.0 differs from +0.0), and RNG state.

    A reservoir class that holds a quota has seen what its running mean counts.
    """
    assert buf._classes == ref._classes
    assert buf._unordered == ref._unordered
    if ref.strategy == "reservoir":
        held = [y for y in buf._classes if buf._quota(y, buf._classes) > 0]
        assert {y: ref.reservoir_seen[y] for y in held} == {y: buf._seen[y] for y in held}
    assert buf.warnings == ref.warnings
    assert buf._rng.bit_generator.state == ref._rng.bit_generator.state
    assert buf._seen == ref._seen
    assert buf.dim == ref.dim
    buf._settle()
    ref._settle()
    for mine, theirs in ((buf._sums, ref._sums), (buf._indices, ref._indices),
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
        assert buf.total_stored() == 0 and buf.dim is None

    def test_signed_zero_row_sums_to_positive_zero(self):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        buf.update(np.array([[-0.0, 1.0]]), np.array([0]), np.array([0]))
        assert buf._sums[0].tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_width_survives_copy_and_checkpoint(self, tmp_path):
        buf = ReplayBuffer(4, "exemplar", seed=4)
        assert buf.dim is None
        buf.update(np.ones((1, 3)), np.array([0]), np.array([0]))
        save_buffer(buf, tmp_path / "buffer.bin")
        for other in (buf.copy(), load_buffer(tmp_path / "buffer.bin")):
            assert other.dim == 3
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


def refuse_herds(monkeypatch):
    def refuse(lanes):
        raise AssertionError("herded")

    monkeypatch.setattr(replay, "_herd_lanes", refuse)


class TestLateSelection:
    @pytest.mark.parametrize("batch", [1, 3], ids=["one-row", "grouped"])
    def test_counts_warnings_and_means_run_no_herd(self, table, batch, monkeypatch):
        # Class 0 fills, new classes shrink its quota from 12 to 3 (a
        # pending herd of its unordered rows), then one more class-0 row
        # overflows (a pending herd of the pool): 10 rows wait, fewer than
        # the capacity, so nothing settles.
        order = [0, 1, 2, 3, 4, 5, 30, 60, 90, 6]
        ref = feed(EagerBuffer(12, "exemplar", seed=20), table, order, batch)
        buf = ReplayBuffer(12, "exemplar", seed=20)
        refuse_herds(monkeypatch)
        feed(buf, table, order, batch)
        assert sum(target is not None for _, _, _, target in buf._waiting[0]) == 2
        assert buf.total_stored() == ref.total_stored() == 10 - 3 - 1
        assert buf.per_class_counts() == ref.per_class_counts()
        assert buf.warnings == ref.warnings
        for y in range(table.class_count):
            assert buf._mean(y).tobytes() == ref._mean(y).tobytes()
        monkeypatch.undo()
        assert [buf.stored_indices(y) for y in range(4)] == [
            ref.stored_indices(y) for y in range(4)
        ]

    def test_an_arrival_past_the_capacity_is_not_copied(self, table, monkeypatch):
        # Rows 6 and 7 of class 0 each leave a herd waiting (quota 6); then
        # 22 rows arrive at once. They run after the waiting events, and
        # never wait themselves: a copy would pass the bound on waiting rows.
        held = []
        settle = ReplayBuffer._settle

        def watched(self):
            held.extend(len(idx) for events in self._waiting.values()
                        for idx, _, _, _ in events if idx is not None)
            settle(self)

        monkeypatch.setattr(ReplayBuffer, "_settle", watched)
        buf, ref = ReplayBuffer(6, "exemplar", seed=22), EagerBuffer(6, "exemplar", seed=22)
        for b in (buf, ref):
            feed(b, table, range(8), 1)
            feed(b, table, range(8, 30), 22)
        assert held == [1, 1]
        assert scbf_bytes(buf) == scbf_bytes(ref)

    def test_a_batch_of_many_classes_waits_within_the_capacity(self, monkeypatch):
        # 50 classes of 20 rows in one 1000-row batch, 2 slots each: every
        # class arrival fits the capacity of 100 rows, but the batch does
        # not, so the herds settle in rounds and no copy of it is held.
        rng = np.random.default_rng(25)
        vectors = rng.standard_normal((1000, 64))
        labels, indices = np.repeat(np.arange(50), 20), np.arange(1000)
        waiting = []
        settle = ReplayBuffer._settle

        def watched(self):
            waiting.append(self._waiting_rows)
            settle(self)

        monkeypatch.setattr(ReplayBuffer, "_settle", watched)
        buf = ReplayBuffer(100, "exemplar", seed=25)
        tracemalloc.start()
        try:
            buf.update(vectors, labels, indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(waiting) > 1 and max(waiting) <= 100
        assert buf._waiting_rows <= 100
        assert peak < vectors.nbytes
        ref = EagerBuffer(100, "exemplar", seed=25).update(vectors, labels, indices)
        assert scbf_bytes(buf) == scbf_bytes(ref)

    def test_waiting_rows_never_exceed_the_capacity(self, table):
        buf = ReplayBuffer(13, "exemplar", seed=21)
        ref = EagerBuffer(13, "exemplar", seed=21)
        order = np.random.default_rng(21).permutation(table.n_samples)
        settles = 0
        for i in order.tolist():
            before = buf._waiting_rows
            buf.update(table.vectors[i : i + 1], table.labels[i : i + 1], [i])
            ref.update(table.vectors[i : i + 1], table.labels[i : i + 1], [i])
            held = sum(len(idx) for events in buf._waiting.values()
                       for idx, _, _, _ in events if idx is not None)
            assert held == buf._waiting_rows <= 13
            settles += buf._waiting_rows < before
        assert settles > 0
        assert scbf_bytes(buf) == scbf_bytes(ref)


@st.composite
def lockstep_lanes(draw):
    """Lanes of one width: pools of 1 to ``3d + 40`` rows, quotas of 1 to all.

    Small-integer grids and duplicated rows tie exactly, rows 1 ulp apart
    and mirrored rows tie to within rounding and take the exact fallback,
    and scaled and non-finite pools fail the range test. A pool has 1 to
    ``d + 4`` rows, 1 to ``3d + 40``, or one of two sizes past ``d + 2``
    that the call's other pools may share, so one call mixes pools that
    take Gram rows, pools of one size past the Gram bound (``d + 2`` rows,
    or 45 rows at d=128) whose screen updates are computed per step, and
    pools alone at their size, a group of one lane. Shapes come from a
    drawn seed, as in :func:`exemplar_streams`.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(rng.choice([1, 2, 3, 5, 8, 64, 128]))
    shared = rng.integers(d + 3, 3 * d + 41, 2)
    lanes = []
    for _ in range(int(rng.integers(1, 13))):
        n = int(rng.choice([rng.integers(1, d + 5), rng.integers(1, 3 * d + 41), *shared]))
        values = rng.choice(["normal", "grid", "duplicates", "ulp", "mirrored", "scaled",
                             "nonfinite"], p=[0.3, 0.15, 0.15, 0.15, 0.15, 0.05, 0.05])
        if values == "grid":
            pool = rng.integers(-2, 3, (n, d)).astype(np.float64)
        else:
            pool = rng.standard_normal((n, d))
        if values in ("duplicates", "ulp"):
            pool = pool[rng.integers(0, max(1, n // 3), n)]
        if values == "ulp":
            pool += rng.integers(-1, 2, pool.shape) * np.spacing(pool)
        elif values == "mirrored" and n > 1:
            pool[n // 2 :] = -pool[: n - n // 2]
        elif values == "scaled":
            pool *= 10.0 ** int(rng.choice([-160, -150, 101, 150]))
        elif values == "nonfinite":
            pool.flat[rng.integers(0, pool.size)] = rng.choice([np.inf, -np.inf, np.nan])
        with np.errstate(all="ignore"):
            target = [pool.mean(axis=0), pool[0].copy(), np.zeros(d),
                      rng.standard_normal(d)][int(rng.integers(0, 4))]
        lanes.append((pool, target, int(rng.integers(1, n + 1))))
    return lanes


class TestLockstepKernel:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lockstep_lanes())
    def test_matches_reference_pick_for_pick(self, lanes):
        with np.errstate(all="ignore"):
            picks = _herd_lanes(lanes)
            for (pool, target, quota), picked in zip(lanes, picks):
                assert picked.tolist() == list(islice(reference_herd(pool, target), quota))

    @pytest.mark.parametrize("large", [1, 2])
    def test_memory_stays_linear_in_the_pools(self, large):
        # 1000-row pools beside 40 pools of 5 rows: padding every lane to
        # the widest pool would hold 41 x 1000 screen entries and picks, and
        # 41 x 1000 x 8 floats of rows for the products.
        rng = np.random.default_rng(23)
        pools = [rng.standard_normal((n, 8)) for n in [1000] * large + [5] * 40]
        lanes = [(pool, pool.mean(axis=0), min(len(pool), 100)) for pool in pools]
        tracemalloc.start()
        try:
            picks = _herd_lanes(lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for (pool, target, quota), picked in zip(lanes, picks):
            assert picked.tolist() == list(islice(reference_herd(pool, target), quota))
        assert peak < 4 * sum(pool.nbytes for pool in pools)

    @pytest.mark.parametrize("shapes", [
        [(2100, 128)], [(2100, 128), (2100, 128)], [(300, 2048)],
        [(5, 512), (12, 512), (22, 512)],
    ], ids=["wide-alone", "wide-paired", "wider", "gram"])
    def test_every_product_stays_on_one_thread(self, shapes, monkeypatch):
        # A 2100 x 128 pool's product with one vector is 268,800
        # multiply-adds, past ONE_THREAD_MULADDS. On a 2-vCPU VM, numpy 2.4's
        # OpenBLAS threads such products from 460,800 multiply-adds on and
        # leaves a thread spinning through the small work after them. A
        # 22-row Gram product at d=512 is 247,808 multiply-adds.
        sizes = []

        def counted(a, b, **kwargs):
            sizes.append(np.prod(a.shape[-2:]) * (b.shape[-1] if b.ndim > 1 else 1))
            return matmul(a, b, **kwargs)

        matmul = np.matmul
        rng = np.random.default_rng(24)
        pools = [rng.standard_normal(shape) for shape in shapes]
        lanes = [(pool, pool.mean(axis=0), 3) for pool in pools]
        monkeypatch.setattr(np, "matmul", counted)
        picks = _herd_lanes(lanes)
        monkeypatch.undo()
        assert sizes and max(sizes) <= ONE_THREAD_MULADDS
        for (pool, target, quota), picked in zip(lanes, picks):
            assert picked.tolist() == list(islice(reference_herd(pool, target), quota))

    def test_gram_products_past_one_thread_leave_the_gram_group(self, monkeypatch):
        # At d=512 a 30-row pool's Gram product is 30**2 * 512 = 460,800
        # multiply-adds, past ONE_THREAD_MULADDS though the pool has far
        # fewer than d + 2 rows. Each size then herds as its own group: the
        # two 30-row pools in lockstep, the 31-row pool alone.
        calls = []

        def counted(lanes):
            calls.append(len(lanes))
            return lockstep(lanes)

        lockstep = replay._lockstep
        monkeypatch.setattr(replay, "_lockstep", counted)
        rng = np.random.default_rng(25)
        pools = [rng.standard_normal((n, 512)) for n in (30, 31, 30)]
        lanes = [(pool, pool.mean(axis=0), 12) for pool in pools]
        picks = _herd_lanes(lanes)
        assert calls == [2, 1]
        for (pool, target, quota), picked in zip(lanes, picks):
            assert picked.tolist() == list(islice(reference_herd(pool, target), quota))

    def test_near_ties_take_the_exact_distances(self, monkeypatch):
        # Mirrored rows around the target tie at every odd step, and rows
        # 1 ulp apart tie to within rounding, in lanes of different sizes.
        calls = []

        def counted(pool, near, *args):
            calls.append(len(near))
            return closest(pool, near, *args)

        closest = replay._closest
        monkeypatch.setattr(replay, "_closest", counted)
        rng = np.random.default_rng(22)
        rows = rng.standard_normal((3, 4))
        mirrored = np.concatenate([rows, -rows])
        ulp = np.repeat(rows[:1], 3, axis=0) + [[0.0], [1.0], [-1.0]] * np.spacing(rows[:1])
        lanes = [(mirrored, np.zeros(4), 6), (ulp, rows[0].copy(), 2), (rows, rows[1], 1)]
        picks = _herd_lanes(lanes)
        assert calls and max(calls) >= 2
        for (pool, target, quota), picked in zip(lanes, picks):
            assert picked.tolist() == list(islice(reference_herd(pool, target), quota))
