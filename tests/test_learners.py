import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll import (
    AdaptedPredictor,
    AdapterParams,
    ClassIdError,
    ConfigError,
    DataError,
    FormatError,
    LinAlgFailure,
    LinearHead,
    NccState,
    NoClassError,
    RidgeState,
    ShapeError,
    load_state,
    save_state,
)


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def brute_force_ncc(state, x):
    # Independent scan: squared distance to every seen prototype.
    best, best_d = None, None
    for y in range(state.class_count):
        if state.counts[y] == 0:
            continue
        d = float(np.sum((x - state.prototypes[y]) ** 2))
        if best is None or d < best_d:
            best, best_d = y, d
    return best


def distance_tensor_ncc(state, xs):
    """The (n, K, d) distance rule: argmin squared distance over seen classes."""
    diffs = xs[:, None, :] - state.prototypes[None, :, :]
    d2 = np.sum(diffs * diffs, axis=-1)
    d2[:, state.counts == 0] = np.inf
    return np.argmin(d2, axis=1), d2


def brute_force_linear(head, x):
    best, best_s = 0, None
    for y in range(head.class_count):
        s = float(np.dot(head.weights[y], x) + head.biases[y])
        if best_s is None or s > best_s:
            best, best_s = y, s
    return best


class TestNccUpdate:
    def test_first_sample_becomes_prototype(self):
        s = NccState(2, 2)
        s.update(np.array([1.0, 0.0]), 0)
        np.testing.assert_array_equal(s.prototypes[0], [1.0, 0.0])
        assert s.counts[0] == 1

    def test_prototype_is_running_mean(self):
        rng = np.random.default_rng(1)
        xs = unit_rows(rng, 3, 4)
        s = NccState(1, 4)
        for x in xs:
            s.update(x, 0)
        assert np.abs(s.prototypes[0] - xs.mean(axis=0)).max() <= 1e-12

    def test_no_cross_class_interference(self):
        rng = np.random.default_rng(2)
        s = NccState(2, 3)
        s.update(unit_rows(rng, 1, 3)[0], 1)
        before = s.prototypes[1].copy()
        for x in unit_rows(rng, 5, 3):
            s.update(x, 0)
        np.testing.assert_array_equal(s.prototypes[1], before)

    def test_batch_update_matches_sequential(self):
        rng = np.random.default_rng(3)
        xs = unit_rows(rng, 40, 6)
        ys = rng.integers(0, 4, 40)
        a = NccState(4, 6).update_batch(xs, ys)
        b = NccState(4, 6)
        for x, y in zip(xs, ys):
            b.update(x, y)
        # Both add the rows of each class in stream order.
        np.testing.assert_array_equal(a.class_sums, b.class_sums)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_class_id_out_of_range(self):
        with pytest.raises(ClassIdError):
            NccState(2, 2).update(np.array([1.0, 0.0]), 2)

    def test_non_integer_class_id_is_class_id_error(self):
        # int(1.9) would count the sample as class 1.
        state = NccState(3, 2)
        with pytest.raises(ClassIdError, match="integer dtype"):
            state.update(np.array([1.0, 0.0]), 1.9)
        assert state.counts.sum() == 0

    def test_non_integer_sizes_are_config_errors(self):
        # 2.5 once escaped as a TypeError from numpy.
        with pytest.raises(ConfigError, match="^class_count must be an integer"):
            NccState(2.5, 3)
        with pytest.raises(ConfigError, match="^dim must be >= 1, got 0"):
            NccState(2, 0)

    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    def test_non_integer_batch_labels_are_class_id_error(self, kind):
        state = kind(3, 2)
        with pytest.raises(ClassIdError, match="integer dtype"):
            state.update_batch(np.eye(2), [0.9, 2.7])
        np.testing.assert_array_equal(state.class_sums, 0.0)
        state.update_batch(np.zeros((0, 2)), [])  # an empty list has no dtype to judge


class TestNccPredict:
    def test_exact_prototype_hit(self):
        s = NccState(2, 2)
        s.update(np.array([1.0, 0.0]), 0)
        s.update(np.array([0.0, 1.0]), 1)
        assert s.predict(np.array([1.0, 0.0])) == 0

    def test_tie_goes_to_smaller_id(self):
        s = NccState(2, 2)
        s.update(np.array([1.0, 0.0]), 0)
        s.update(np.array([0.0, 1.0]), 1)
        q = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert s.predict(q) == 0

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(4)
        s = NccState(5, 8)
        s.update_batch(unit_rows(rng, 60, 8), rng.integers(0, 5, 60))
        queries = unit_rows(rng, 100, 8)
        preds = s.predict_batch(queries)
        for x, p in zip(queries, preds):
            assert p == brute_force_ncc(s, x)

    def test_unseen_class_excluded(self):
        s = NccState(3, 2)
        s.update(np.array([0.0, 1.0]), 2)
        # class 0 prototype is the zero vector but unseen; nearest must be 2
        assert s.predict(np.array([0.1, 0.1])) == 2

    def test_empty_state_raises(self):
        with pytest.raises(NoClassError):
            NccState(3, 2).predict(np.array([1.0, 0.0]))

    def test_prediction_memory_is_linear_in_queries_and_prototypes(self):
        # The distance-tensor rule needs n * K * d floats, about 0.5 GB here.
        n, k, d = 64, 1000, 512
        rng = np.random.default_rng(15)
        s = NccState(k, d).update_batch(rng.standard_normal((k, d)), np.arange(k))
        queries = rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            s.predict_batch(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * (n * k + k * d)


@st.composite
def ncc_cases(draw):
    """An NCC state with unseen classes and duplicate prototypes, plus queries."""
    k, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Each seen class draws its rows, or copies an earlier class's rows in
    # the same order, which makes the two prototypes bitwise equal.
    xs, ys, blocks = [], [], []
    for y in range(k):
        choice = draw(st.sampled_from(["unseen", "fresh", "copy"]))
        if choice == "unseen":
            continue
        if choice == "copy" and blocks:
            rows = blocks[draw(st.integers(0, len(blocks) - 1))]
        else:
            rows = rng.standard_normal((draw(st.integers(1, 4)), d))
        blocks.append(rows)
        xs.append(rows)
        ys.append(np.full(len(rows), y))
    state = NccState(k, d)
    if xs:
        state.update_batch(np.concatenate(xs), np.concatenate(ys))
    scale = 10.0 ** draw(st.integers(-3, 3))
    queries = scale * rng.standard_normal((draw(st.integers(1, 20)), d))
    # Some queries sit on a prototype or halfway between two.
    if state.counts.any():
        seen = np.flatnonzero(state.counts)
        a, b = rng.choice(seen, 2), rng.choice(seen, 2)
        protos = state.prototypes
        queries = np.concatenate([queries, protos[a], (protos[a] + protos[b]) / 2])
    return state, queries


class TestNccPredictProperties:
    # The same examples on every run, and no deadline: a slow host must not
    # fail a correct run.
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(ncc_cases())
    def test_agrees_with_distance_tensor(self, case):
        state, queries = case
        if not state.counts.any():
            with pytest.raises(NoClassError):
                state.predict_batch(queries)
            return
        preds = state.predict_batch(queries)
        expected, d2 = distance_tensor_ncc(state, queries)
        protos = state.prototypes
        seen = np.flatnonzero(state.counts)
        max_c2 = max(float(protos[y] @ protos[y]) for y in seen)
        for x, p, e, row in zip(queries, preds, expected, d2):
            assert state.counts[p] > 0
            # Bitwise-equal prototypes always go to the smaller id.
            assert not any(np.array_equal(protos[y], protos[p]) for y in seen if y < p)
            if p != e:
                # Only a tie to rounding may be broken differently.
                tol = 1e-12 * (float(x @ x) + max_c2)
                assert abs(row[p] - row[e]) <= tol, (p, e, row[p], row[e], tol)


class TestRidgeUpdate:
    @pytest.mark.parametrize("args, message", [
        ((3.0, 2), "^class_count must be an integer"),
        ((3, 2, "1"), "^lam must be a number"),
        ((3, 2, True), "^lam must be a number"),
    ], ids=["float-class-count", "str-lam", "bool-lam"])
    def test_mistyped_arguments_are_config_errors(self, args, message):
        # The first two once escaped as a TypeError, and lam=True ran as 1.0.
        with pytest.raises(ConfigError, match=message):
            RidgeState(*args)

    def test_single_sample_statistics(self):
        s = RidgeState(2, 2, lam=1.0)
        s.update(np.array([1.0, 0.0]), 0)
        np.testing.assert_array_equal(s.cov, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(s.class_sums[0], [1.0, 0.0])
        np.testing.assert_array_equal(s.class_sums[1], [0.0, 0.0])
        assert s.seen == 1

    def test_update_order_commutes(self):
        rng = np.random.default_rng(5)
        x1, x2 = unit_rows(rng, 2, 3)
        a = RidgeState(2, 3).update(x1, 0).update(x2, 1)
        b = RidgeState(2, 3).update(x2, 1).update(x1, 0)
        assert np.abs(a.cov - b.cov).max() <= 1e-12
        assert np.abs(a.class_sums - b.class_sums).max() <= 1e-12

    def test_cov_matches_dense_product(self):
        rng = np.random.default_rng(6)
        xs = unit_rows(rng, 50, 7)
        ys = rng.integers(0, 3, 50)
        s = RidgeState(3, 7)
        for x, y in zip(xs, ys):
            s.update(x, y)
        assert np.abs(s.cov - xs.T @ xs).max() <= 1e-10

    def test_non_integer_class_id_is_class_id_error(self):
        state = RidgeState(3, 2)
        with pytest.raises(ClassIdError, match="integer dtype"):
            state.update(np.array([1.0, 0.0]), 1.9)
        assert state.seen == 0

    def test_batch_update_matches_sequential(self):
        rng = np.random.default_rng(7)
        xs = unit_rows(rng, 30, 5)
        ys = rng.integers(0, 2, 30)
        a = RidgeState(2, 5).update_batch(xs, ys)
        b = RidgeState(2, 5)
        for x, y in zip(xs, ys):
            b.update(x, y)
        assert np.abs(a.cov - b.cov).max() <= 1e-12
        assert np.abs(a.class_sums - b.class_sums).max() <= 1e-12


class TestOneRowUpdates:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_match_the_add_at_path_bit_for_bit(self, seed):
        # Oracle: the np.add.at and np.bincount updates every batch took
        # before one-row ridge batches got a plain in-place add.
        rng = np.random.default_rng(seed)
        k, d, n = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 60))
        grid = np.array([-0.0, 0.0, -1.0, 0.1, 3.0, 1e300, -1e300])
        rows = np.where(rng.random((n, d)) < 0.5, grid[rng.integers(0, 7, (n, d))],
                        rng.standard_normal((n, d)))
        labels = rng.integers(0, k, n)
        ncc, ridge = NccState(k, d), RidgeState(k, d)
        sums, counts = np.zeros((k, d)), np.zeros(k, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):  # +-1e300 rows may overflow
            for x, y in zip(rows, labels):
                one = rng.choice(["array", "list", "vector"])
                if one == "vector":
                    ncc.update(x, y)
                    ridge.update(x, y)
                else:
                    ys = [int(y)] if one == "list" else np.array([y])
                    ncc.update_batch(x[None, :], ys)
                    ridge.update_batch(x[None, :], ys)
                np.add.at(sums, np.array([y]), x[None, :])
                counts += np.bincount([y], minlength=k)
                assert ncc.class_sums.tobytes() == sums.tobytes()
                assert ridge.class_sums.tobytes() == sums.tobytes()
                assert ncc.counts.tobytes() == counts.tobytes()
        assert ridge.seen == n

    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    @pytest.mark.parametrize("label", [-1, 3])
    def test_one_row_class_id_out_of_range(self, kind, label):
        state = kind(3, 2)
        with pytest.raises(ClassIdError, match=f"class id {label} outside"):
            state.update_batch(np.ones((1, 2)), [label])
        assert not state.class_sums.any()


class TestRidgeSolve:
    def test_single_sample_closed_form(self):
        # (e1 e1^T + I) w = e1  =>  w = e1 / 2
        s = RidgeState(1, 2, lam=1.0).update(np.array([1.0, 0.0]), 0)
        head = s.solve()
        np.testing.assert_allclose(head.weights[0], [0.5, 0.0], atol=1e-15)
        np.testing.assert_array_equal(head.biases, [0.0])

    def test_unseen_class_gets_zero_row(self):
        rng = np.random.default_rng(8)
        s = RidgeState(3, 4)
        s.update_batch(unit_rows(rng, 20, 4), np.zeros(20, dtype=int))
        head = s.solve()
        np.testing.assert_array_equal(head.weights[1], np.zeros(4))
        np.testing.assert_array_equal(head.weights[2], np.zeros(4))

    def test_matches_batch_closed_form(self):
        # Oracle: solve (X^T X + lam * N * I) W = X^T Y densely from scratch.
        rng = np.random.default_rng(9)
        for _ in range(5):
            n, d, k = int(rng.integers(20, 200)), int(rng.integers(3, 20)), 4
            lam = float(rng.uniform(0.1, 2.0))
            xs = unit_rows(rng, n, d)
            ys = rng.integers(0, k, n)
            onehot = np.eye(k)[ys]
            expected = np.linalg.solve(
                xs.T @ xs + lam * n * np.eye(d), xs.T @ onehot
            ).T
            state = RidgeState(k, d, lam).update_batch(xs, ys)
            solved = state.solve().weights
            rel = np.linalg.norm(solved - expected) / np.linalg.norm(expected)
            assert rel < 1e-8

    def test_overflowed_statistics_raise(self):
        # Finite rows whose outer products overflow: cov holds +-inf.
        with np.errstate(over="ignore"):
            s = RidgeState(3, 4).update_batch(np.full((2, 4), 1e200) * [1, -1, 1, 1], [1, 2])
        assert not np.isfinite(s.cov).all()
        with pytest.raises(LinAlgFailure, match="not finite"):
            s.solve()

    def test_overflowed_regularizer_raises(self):
        # lam * seen overflows to inf, so the system is not finite.
        s = RidgeState(2, 3, lam=1e308).update_batch(np.eye(3)[:2], [0, 1])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            LinAlgFailure, match="not finite"
        ):
            s.solve()


@pytest.fixture(scope="module")
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


@st.composite
def ridge_states(draw):
    """A ridge state of unit rows, d up to 256, fewer or more rows than d."""
    d, k = draw(st.integers(1, 256)), draw(st.integers(1, 6))
    n = draw(st.integers(1, 2 * d + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = unit_rows(rng, n, d)
    if draw(st.booleans()):
        xs[n // 2 :] = xs[: n - n // 2]  # duplicate rows
    lam = draw(st.floats(1e-3, 1e2))
    return RidgeState(k, d, lam).update_batch(xs, rng.integers(0, k, n))


class TestRidgeSolveOracle:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(ridge_states())
    def test_matches_scipy_cho_solve(self, scipy_linalg, state):
        system = state.cov + state.lam * state.seen * np.eye(state.dim)
        factor = scipy_linalg.cho_factor(system, lower=True)
        expected = scipy_linalg.cho_solve(factor, state.class_sums.T).T
        solved = state.solve().weights
        scale = np.abs(expected).max()
        assert np.abs(solved - expected).max() <= 1e-12 * scale


def ridge_block_rows(d):
    """Rows per pending block: 2**18 multiply-adds a flush if that is 4-256 rows, else 256."""
    rows = 2**18 // d**2
    return min(256, rows) if rows >= 4 else 256


def blocked_cov(xs, size):
    """Oracle: blocks of ``size`` rows from sample 0, the partial one added at read time."""
    cov = np.zeros((xs.shape[1], xs.shape[1]))
    full = xs.shape[0] - xs.shape[0] % size
    for start in range(0, full, size):
        block = xs[start : start + size]
        cov += block.T @ block
    rest = xs[full:]
    return cov + rest.T @ rest if rest.shape[0] else cov


@st.composite
def ridge_feeds(draw):
    """One row sequence cut into batches of 1, ragged batches, or batches
    wider than a block, at d of 1-300 (blocks of 256 rows down to 4, and
    256 again past d=256), with an operation that must not change bits
    after each batch.

    Shapes come from a drawn seed: derandomized drawing of each size
    would put most examples at the smallest one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(rng.integers(1, 301))
    size = ridge_block_rows(d)
    n = int(rng.integers(0, 3 * size + 3))
    k = int(rng.integers(1, 5))
    xs = unit_rows(rng, n, d)
    if n and rng.random() < 0.3:
        xs = xs[rng.integers(0, n, n)]  # duplicate rows
    cutting = draw(st.sampled_from(["ones", "ragged", "wide"]))
    if cutting == "ones":
        cuts = np.arange(1, n)
    elif cutting == "ragged":
        cuts = np.flatnonzero(rng.random(max(n - 1, 0)) < 0.3) + 1
    else:
        cuts = np.cumsum(rng.integers(size + 1, 2 * size + 3, n + 1))
        cuts = cuts[cuts < n]
    batches = np.split(np.arange(n), cuts)
    ops = rng.choice(
        ["none", "cov", "solve", "copy", "save"], len(batches), p=[0.6, 0.1, 0.1, 0.1, 0.1]
    )
    return xs, rng.integers(0, k, n), k, batches, ops


class TestRidgePendingBlock:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(ridge_feeds())
    def test_cov_bits_depend_only_on_the_sample_order(self, feed):
        xs, ys, k, batches, ops = feed
        d = xs.shape[1]
        size = ridge_block_rows(d)
        state, copies = RidgeState(k, d), []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.bin"
            for batch, op in zip(batches, ops):
                if len(batch) == 1 and op == "none":
                    state.update(xs[batch[0]], ys[batch[0]])
                else:
                    state.update_batch(xs[batch], ys[batch])
                for twin in copies:
                    twin.update_batch(xs[batch], ys[batch])
                assert state._block.shape == (size, d)
                assert 0 <= state._pending < size
                if op == "cov":
                    expected = blocked_cov(xs[: state.seen], size)
                    assert state.cov.tobytes() == expected.tobytes()
                elif op == "solve":
                    state.solve()
                elif op == "copy":
                    twin = state.copy()
                    if len(copies) < 2:  # every copy is fed the rest of the stream
                        copies.append(twin)
                elif op == "save":
                    save_state(state, path)
                    loaded = load_state(path)
                    assert loaded.cov.tobytes() == state.cov.tobytes()
                    assert loaded._pending == 0
        expected = blocked_cov(xs, size)
        assert state.cov.tobytes() == expected.tobytes()
        for twin in copies:
            assert twin.cov.tobytes() == state.cov.tobytes()
            assert twin.class_sums.tobytes() == state.class_sums.tobytes()
            assert twin.seen == state.seen == len(xs)


    @pytest.mark.parametrize("pending", [0, 3], ids=["flushed", "pending"])
    def test_cov_is_read_only_with_or_without_pending_rows(self, pending):
        rng = np.random.default_rng(5)
        d = 64  # 64-row blocks: 64 rows flush, 67 leave three pending
        n = 64 + pending
        state = RidgeState(2, d).update_batch(unit_rows(rng, n, d), np.zeros(n, int))
        assert state._pending == pending
        before = state.cov.copy()
        with pytest.raises(ValueError, match="read-only"):
            state.cov[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.cov += 1.0
        assert state.cov.tobytes() == before.tobytes()

    @pytest.mark.parametrize("d, rows", [(64, 64), (128, 16), (256, 4), (257, 256), (2048, 256)])
    def test_block_rows_stay_on_one_thread_up_to_d256_then_take_256(self, d, rows):
        assert RidgeState(1, d)._block.shape == (rows, d)


class TestNccToLinear:
    def test_unit_prototypes(self):
        s = NccState(2, 2)
        s.update(np.array([1.0, 0.0]), 0)
        s.update(np.array([0.0, 1.0]), 1)
        head = s.to_linear_head()
        np.testing.assert_array_equal(head.weights, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(head.biases, [-0.5, -0.5])

    def test_zero_prototype_maps_to_zero(self):
        s = NccState(2, 3)
        s.update(np.array([0.0, 1.0, 0.0]), 1)
        head = s.to_linear_head()
        np.testing.assert_array_equal(head.weights[0], np.zeros(3))
        assert head.biases[0] == 0.0

    def test_equivalent_to_distance_rule(self):
        # Oracle: the distance-based prediction itself.
        rng = np.random.default_rng(10)
        s = NccState(6, 16)
        s.update_batch(unit_rows(rng, 300, 16), rng.integers(0, 6, 300))
        head = s.to_linear_head()
        queries = unit_rows(rng, 1000, 16)
        np.testing.assert_array_equal(
            head.predict_batch(queries), distance_tensor_ncc(s, queries)[0]
        )


class TestLinearPredict:
    def test_identity_head(self):
        head = LinearHead(np.eye(3), np.zeros(3))
        assert head.predict(np.array([0.0, 1.0, 0.0])) == 1

    def test_all_zero_head_ties_to_class_zero(self):
        head = LinearHead(np.zeros((4, 2)), np.zeros(4))
        assert head.predict(np.array([0.3, -0.2])) == 0

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        head = LinearHead(rng.standard_normal((5, 6)), rng.standard_normal(5))
        for x in rng.standard_normal((50, 6)):
            assert head.predict(x) == brute_force_linear(head, x)

    def test_shape_mismatch(self):
        head = LinearHead(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeError):
            head.predict(np.array([1.0, 2.0]))

    def test_batch_prediction_rejects_a_single_row(self):
        head = LinearHead(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeError, match="2-d batch"):
            head.predict_batch(np.array([0.0, 1.0, 0.0]))


def scored_predictors(rng, k, d):
    """A bare head, an NCC state with unseen classes, and an adapted predictor,
    each with its one-shot scoring rule: all queries in one product."""
    head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k))
    state = NccState(k, d).update_batch(rng.standard_normal((3 * k, d)), np.arange(3 * k) % k)
    state.counts[[1, k - 2]] = 0
    down, up = rng.standard_normal((4, d)), rng.standard_normal((d, 4))
    adapted = AdaptedPredictor(head, AdapterParams(down, up, head))

    def head_scores(xs):
        return xs @ head.weights.T + head.biases

    def ncc_scores(xs):
        ncc_head = state.to_linear_head()
        scores = xs @ ncc_head.weights.T + ncc_head.biases
        scores[:, state.counts == 0] = -np.inf
        return scores

    def adapted_scores(xs):
        return head_scores(xs + np.maximum(xs @ down.T, 0.0) @ up.T)

    return [(head, head_scores), (state, ncc_scores), (adapted, adapted_scores)]


class TestBlockedScoring:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 4000])
    def test_matches_one_shot_argmax(self, n):
        rng = np.random.default_rng(n)
        queries = rng.standard_normal((n, 12))
        for predictor, one_shot in scored_predictors(rng, 9, 12):
            preds = predictor.predict_batch(queries)
            assert preds.dtype == np.int64
            np.testing.assert_array_equal(preds, np.argmax(one_shot(queries), axis=1))

    def test_no_unseen_class_is_predicted(self):
        rng = np.random.default_rng(62)
        _, (state, _), _ = scored_predictors(rng, 9, 12)
        preds = state.predict_batch(rng.standard_normal((600, 12)))
        assert (state.counts[preds] > 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ncc_query_is_data_error(self, bad):
        rng = np.random.default_rng(67)
        _, (state, _), _ = scored_predictors(rng, 9, 12)
        queries = rng.standard_normal((300, 12))
        queries[280, 5] = bad
        with pytest.raises(DataError, match="non-finite"):
            state.predict_batch(queries)

    def test_empty_batch_of_the_wrong_width_is_shape_error(self):
        rng = np.random.default_rng(63)
        for predictor, _ in scored_predictors(rng, 9, 12):
            assert predictor.predict_batch(np.zeros((0, 12))).shape == (0,)
            with pytest.raises(ShapeError):
                predictor.predict_batch(np.zeros((0, 13)))

    def test_prediction_memory_is_blocked(self):
        # One product over every query held n x K scores, twice over with
        # the bias sum: 6.4 MB here, where a 256-row block holds 0.2 MB.
        n, k, d = 4000, 100, 256
        rng = np.random.default_rng(64)
        state = NccState(k, d).update_batch(rng.standard_normal((k, d)), np.arange(k))
        state.counts[:5] = 0
        queries = rng.standard_normal((n, d))
        for predict in (state.predict_batch, state.to_linear_head().predict_batch):
            tracemalloc.start()
            try:
                predict(queries)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Scores of two blocks, the NCC head's K x d weights, and the
            # n predictions with one n-long temporary.
            assert peak <= 8 * (2 * 256 * k + k * d + 2 * n)


class TestPermutationInvariance:
    def test_states_and_heads_agree_across_orderings(self):
        rng = np.random.default_rng(12)
        xs = unit_rows(rng, 200, 10)
        ys = rng.integers(0, 5, 200)
        perm = rng.permutation(200)

        ncc_a = NccState(5, 10).update_batch(xs, ys)
        ncc_b = NccState(5, 10)
        for i in perm:
            ncc_b.update(xs[i], ys[i])
        assert np.abs(ncc_a.prototypes - ncc_b.prototypes).max() < 1e-9

        ridge_a = RidgeState(5, 10).update_batch(xs, ys)
        ridge_b = RidgeState(5, 10)
        for i in perm:
            ridge_b.update(xs[i], ys[i])
        assert np.abs(ridge_a.cov - ridge_b.cov).max() < 1e-9
        assert np.abs(ridge_a.class_sums - ridge_b.class_sums).max() < 1e-9

        ha, hb = ridge_a.solve(), ridge_b.solve()
        rel = np.linalg.norm(ha.weights - hb.weights) / np.linalg.norm(ha.weights)
        assert rel < 1e-8

        queries = unit_rows(rng, 500, 10)
        np.testing.assert_array_equal(ha.predict_batch(queries), hb.predict_batch(queries))
        np.testing.assert_array_equal(
            ncc_a.predict_batch(queries), ncc_b.predict_batch(queries)
        )


class TestCheckpoints:
    def test_ncc_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        s = NccState(3, 4).update_batch(unit_rows(rng, 12, 4), rng.integers(0, 3, 12))
        path = tmp_path / "state.bin"
        save_state(s, path)
        loaded = load_state(path)
        assert isinstance(loaded, NccState)
        np.testing.assert_array_equal(loaded.class_sums, s.class_sums)
        np.testing.assert_array_equal(loaded.prototypes, s.prototypes)
        np.testing.assert_array_equal(loaded.counts, s.counts)

    def test_version_one_rejected(self, tmp_path):
        s = NccState(2, 3).update(np.ones(3), 0)
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 1"):
            load_state(path)

    def test_ridge_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        s = RidgeState(3, 4, lam=0.7).update_batch(
            unit_rows(rng, 12, 4), rng.integers(0, 3, 12)
        )
        path = tmp_path / "state.bin"
        save_state(s, path)
        loaded = load_state(path)
        assert isinstance(loaded, RidgeState)
        assert loaded.lam == s.lam and loaded.seen == s.seen
        np.testing.assert_array_equal(loaded.cov, s.cov)
        np.testing.assert_array_equal(loaded.class_sums, s.class_sums)
        np.testing.assert_array_equal(loaded.solve().weights, s.solve().weights)
