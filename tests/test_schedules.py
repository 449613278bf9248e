import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll import (
    ConfigError,
    Schedule,
    ScheduleSpec,
    SyntheticSpec,
    build_schedule,
    iter_batches,
    synthesize,
)
from scroll._seeding import seeded_rng


@pytest.fixture(scope="module")
def table():
    train, _ = synthesize(SyntheticSpec(6, 8, 15, cluster_spread=0.1, seed=42))
    return train


def batches_of(spec, table):
    schedule = build_schedule(spec, table.labels)
    return schedule, list(iter_batches(schedule, table))


class TestScheduleValidation:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(ConfigError, match="bijection"):
            Schedule(np.array([0, 0, 2]), np.array([0, 3]))

    def test_bounds_must_partition(self):
        with pytest.raises(ConfigError, match="batch_bounds"):
            Schedule(np.arange(4), np.array([0, 2, 2, 4]))
        with pytest.raises(ConfigError, match="batch_bounds"):
            Schedule(np.arange(4), np.array([1, 4]))


class TestBuildSchedule:
    def test_single_batch_is_identity(self):
        labels = np.array([0, 1, 0, 1, 2, 2])
        s = build_schedule(ScheduleSpec("single_batch"), labels)
        np.testing.assert_array_equal(s.permutation, np.arange(6))
        np.testing.assert_array_equal(s.batch_bounds, [0, 6])

    def test_class_split_groups_whole_classes(self):
        labels = np.repeat(np.arange(10), 7)
        s = build_schedule(ScheduleSpec("class_split", seed=5, classes_per_batch=2), labels)
        assert s.n_batches == 5
        for lo, hi in zip(s.batch_bounds[:-1], s.batch_bounds[1:]):
            batch_classes = set(labels[s.permutation[lo:hi]])
            assert len(batch_classes) == 2
        # no class may span two batches
        seen = set()
        for lo, hi in zip(s.batch_bounds[:-1], s.batch_bounds[1:]):
            batch_classes = set(labels[s.permutation[lo:hi]])
            assert not batch_classes & seen
            seen |= batch_classes

    def test_class_split_remainder_goes_to_last_batch(self):
        labels = np.repeat(np.arange(7), 3)
        s = build_schedule(ScheduleSpec("class_split", seed=1, classes_per_batch=3), labels)
        assert s.n_batches == 2
        sizes = np.diff(s.batch_bounds)
        assert sizes.tolist() == [9, 12]

    def test_class_split_too_many_classes_per_batch(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ConfigError, match="exceeds"):
            build_schedule(ScheduleSpec("class_split", classes_per_batch=3), labels)

    def test_random_iid_batch_sizes(self):
        labels = np.repeat(np.arange(2), 11)
        s = build_schedule(ScheduleSpec("random_iid", seed=3, batch_size=5), labels)
        assert np.diff(s.batch_bounds).tolist() == [5, 5, 5, 5, 2]

    def test_gaussian_tiny_sigma_runs_one_class_at_a_time(self):
        # Oracle: with well-separated peaks and sigma -> 0, each class's
        # samples must occupy one contiguous run of the permutation.
        labels = np.repeat(np.arange(5), 8)
        s = build_schedule(
            ScheduleSpec("gaussian", seed=7, sigma=1e-4, peak_spacing=1.0), labels
        )
        emitted = labels[s.permutation]
        changes = int(np.sum(emitted[1:] != emitted[:-1]))
        assert changes == 4  # K - 1 transitions means contiguous runs

    def test_gaussian_preserves_class_counts(self):
        labels = np.repeat(np.arange(4), 9)
        s = build_schedule(ScheduleSpec("gaussian", seed=2, sigma=0.2), labels)
        np.testing.assert_array_equal(
            np.bincount(labels[s.permutation]), np.bincount(labels)
        )

    @pytest.mark.parametrize("kind,extra", [
        ("single_batch", {}),
        ("class_split", {"classes_per_batch": 2}),
        ("random_iid", {"batch_size": 4}),
        ("gaussian", {"sigma": 0.15}),
    ])
    def test_permutation_is_bijection_for_all_kinds(self, kind, extra):
        labels = np.repeat(np.arange(6), 5)
        for seed in range(5):
            s = build_schedule(ScheduleSpec(kind, seed=seed, **extra), labels)
            np.testing.assert_array_equal(np.sort(s.permutation), np.arange(30))

    def test_determinism(self):
        labels = np.repeat(np.arange(4), 6)
        spec = ScheduleSpec("gaussian", seed=11, sigma=0.1)
        a = build_schedule(spec, labels)
        b = build_schedule(spec, labels)
        np.testing.assert_array_equal(a.permutation, b.permutation)
        np.testing.assert_array_equal(a.batch_bounds, b.batch_bounds)


class TestIterBatches:
    def test_identity_single_batch(self, table):
        _, batches = batches_of(ScheduleSpec("single_batch"), table)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0].vectors, table.vectors)
        np.testing.assert_array_equal(batches[0].labels, table.labels)

    def test_partition_property(self, table):
        _, batches = batches_of(
            ScheduleSpec("random_iid", seed=9, batch_size=7), table
        )
        all_idx = np.concatenate([b.indices for b in batches])
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(table.n_samples))
        stacked = np.concatenate([b.vectors for b in batches])
        np.testing.assert_array_equal(stacked, table.vectors[all_idx])

    def test_explicit_reverse(self, table):
        n = table.n_samples
        spec = ScheduleSpec(
            "explicit", permutation=tuple(range(n - 1, -1, -1)), bounds=(0, n)
        )
        _, batches = batches_of(spec, table)
        np.testing.assert_array_equal(batches[0].vectors, table.vectors[::-1])

    def test_length_mismatch(self, table):
        schedule = build_schedule(
            ScheduleSpec("single_batch"), np.array([0, 1, 1, 0])
        )
        with pytest.raises(ConfigError, match="covers 4 samples"):
            list(iter_batches(schedule, table))


class TestSpecSerialization:
    def test_round_trip(self):
        for spec in (
            ScheduleSpec("single_batch", seed=1),
            ScheduleSpec("class_split", seed=2, classes_per_batch=3),
            ScheduleSpec("random_iid", seed=3, batch_size=8),
            ScheduleSpec("gaussian", seed=4, sigma=0.3, peak_spacing=0.8),
            ScheduleSpec("explicit", permutation=(1, 0), bounds=(0, 2)),
        ):
            assert ScheduleSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown schedule"):
            ScheduleSpec.from_dict({"kind": "single_batch", "speed": 3})

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown schedule kind"):
            ScheduleSpec.from_dict({"kind": "sorted"})


def loop_gaussian(spec, labels):
    """The gaussian schedule drawn one step at a time with ``Generator.choice``.

    Oracle for the windowed draw in ``build_schedule``.
    """
    k = int(labels.max()) + 1
    n = labels.shape[0]
    rng = seeded_rng(spec.seed, 23)
    ranks = rng.permutation(k)
    peaks = 0.5 + spec.peak_spacing * ((ranks + 0.5) / k - 0.5)
    queues = [list(np.flatnonzero(labels == y)) for y in range(k)]
    remaining = np.array([len(q) for q in queues])
    cursor = np.zeros(k, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    inv_two_sigma_sq = 1.0 / (2.0 * spec.sigma * spec.sigma)
    for i in range(n):
        s = i / n
        live = np.flatnonzero(remaining > 0)
        logw = -((s - peaks[live]) ** 2) * inv_two_sigma_sq
        w = np.exp(logw - logw.max())
        y = int(rng.choice(live, p=w / w.sum()))
        order[i] = queues[y][cursor[y]]
        cursor[y] += 1
        remaining[y] -= 1
    return order


@st.composite
def gaussian_cases(draw):
    """Labels with uneven and empty classes, and a gaussian spec.

    Shapes come from a drawn seed: derandomized drawing of each size
    would put most examples at the smallest one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = int(rng.integers(1, 51))
    sizes = rng.integers(0, 30, k) * (rng.random(k) < 0.9)
    sizes[rng.integers(0, k)] += 1
    labels = rng.permutation(np.repeat(np.arange(k), sizes))
    spec = ScheduleSpec(
        "gaussian", seed=int(rng.integers(0, 2**31)),
        sigma=float(10 ** rng.uniform(-2.5, 0.5)),
        peak_spacing=float(rng.choice([1.0, rng.uniform(0.05, 3.0)])),
    )
    return spec, labels


class TestGaussianDraw:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(gaussian_cases())
    def test_matches_one_choice_per_step(self, case):
        spec, labels = case
        schedule = build_schedule(spec, labels)
        np.testing.assert_array_equal(schedule.permutation, loop_gaussian(spec, labels))

    @pytest.mark.parametrize("sigma", [1e-155, 1e-200, float("nan")])
    def test_sigma_without_finite_weight_scale_is_config_error(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            ScheduleSpec("gaussian", sigma=sigma)

    def test_smallest_usable_sigma_still_builds(self):
        labels = np.repeat(np.arange(4), 5)
        spec = ScheduleSpec("gaussian", seed=3, sigma=1e-150)
        assert build_schedule(spec, labels).n_samples == 20

    def test_overflowing_peak_distance_is_config_error(self):
        # Finite 1/(2 sigma^2), but peaks 1e200 apart square past float range.
        spec = ScheduleSpec("gaussian", seed=1, peak_spacing=1e200)
        with pytest.raises(ConfigError, match="overflow"):
            build_schedule(spec, np.repeat(np.arange(5), 4))
