import ast
import inspect
import os
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scroll
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
from scroll.errors import all_finite
from scroll.learners import (
    _KIND_NCC,
    _KIND_RIDGE,
    ONE_THREAD_MULADDS,
    STATE_MAGIC,
    STATE_VERSION,
    _blocked_cholesky,
    _blocked_product,
    _cholesky_solve,
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
        s.update_batch([[1.0, 0.0]], [0])
        np.testing.assert_array_equal(s.prototypes[0], [1.0, 0.0])
        assert s.counts[0] == 1

    def test_prototype_is_running_mean(self):
        rng = np.random.default_rng(1)
        xs = unit_rows(rng, 3, 4)
        s = NccState(1, 4)
        for x in xs:
            s.update_batch(x[None, :], [0])
        assert np.abs(s.prototypes[0] - xs.mean(axis=0)).max() <= 1e-12

    def test_no_cross_class_interference(self):
        rng = np.random.default_rng(2)
        s = NccState(2, 3)
        s.update_batch(unit_rows(rng, 1, 3), [1])
        before = s.prototypes[1].copy()
        for x in unit_rows(rng, 5, 3):
            s.update_batch(x[None, :], [0])
        np.testing.assert_array_equal(s.prototypes[1], before)

    def test_batch_update_matches_sequential(self):
        rng = np.random.default_rng(3)
        xs = unit_rows(rng, 40, 6)
        ys = rng.integers(0, 4, 40)
        a = NccState(4, 6).update_batch(xs, ys)
        b = NccState(4, 6)
        for x, y in zip(xs, ys):
            b.update_batch(x[None, :], [y])
        # Both add the rows of each class in stream order.
        np.testing.assert_array_equal(a.class_sums, b.class_sums)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_class_id_out_of_range(self):
        with pytest.raises(ClassIdError):
            NccState(2, 2).update_batch([[1.0, 0.0]], [2])

    def test_non_integer_class_id_is_class_id_error(self):
        # int(1.9) would count the sample as class 1.
        state = NccState(3, 2)
        with pytest.raises(ClassIdError, match="integer dtype"):
            state.update_batch([[1.0, 0.0]], [1.9])
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
        s.update_batch([[1.0, 0.0]], [0])
        s.update_batch([[0.0, 1.0]], [1])
        assert s.predict_batch([[1.0, 0.0]])[0] == 0

    def test_tie_goes_to_smaller_id(self):
        s = NccState(2, 2)
        s.update_batch([[1.0, 0.0]], [0])
        s.update_batch([[0.0, 1.0]], [1])
        q = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert s.predict_batch(q[None, :])[0] == 0

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
        s.update_batch([[0.0, 1.0]], [2])
        # class 0 prototype is the zero vector but unseen; nearest must be 2
        assert s.predict_batch([[0.1, 0.1]])[0] == 2

    def test_empty_state_raises(self):
        with pytest.raises(NoClassError):
            NccState(3, 2).predict_batch([[1.0, 0.0]])

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
        s.update_batch([[1.0, 0.0]], [0])
        np.testing.assert_array_equal(s.cov, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(s.class_sums[0], [1.0, 0.0])
        np.testing.assert_array_equal(s.class_sums[1], [0.0, 0.0])
        assert s.seen == 1

    def test_update_order_commutes(self):
        rng = np.random.default_rng(5)
        x1, x2 = unit_rows(rng, 2, 3)
        a = RidgeState(2, 3).update_batch(x1[None, :], [0]).update_batch(x2[None, :], [1])
        b = RidgeState(2, 3).update_batch(x2[None, :], [1]).update_batch(x1[None, :], [0])
        assert np.abs(a.cov - b.cov).max() <= 1e-12
        assert np.abs(a.class_sums - b.class_sums).max() <= 1e-12

    def test_cov_matches_dense_product(self):
        rng = np.random.default_rng(6)
        xs = unit_rows(rng, 50, 7)
        ys = rng.integers(0, 3, 50)
        s = RidgeState(3, 7)
        for x, y in zip(xs, ys):
            s.update_batch(x[None, :], [y])
        assert np.abs(s.cov - xs.T @ xs).max() <= 1e-10

    def test_non_integer_class_id_is_class_id_error(self):
        state = RidgeState(3, 2)
        with pytest.raises(ClassIdError, match="integer dtype"):
            state.update_batch([[1.0, 0.0]], [1.9])
        assert state.seen == 0

    def test_batch_update_matches_sequential(self):
        rng = np.random.default_rng(7)
        xs = unit_rows(rng, 30, 5)
        ys = rng.integers(0, 2, 30)
        a = RidgeState(2, 5).update_batch(xs, ys)
        b = RidgeState(2, 5)
        for x, y in zip(xs, ys):
            b.update_batch(x[None, :], [y])
        assert np.abs(a.cov - b.cov).max() <= 1e-12
        assert np.abs(a.class_sums - b.class_sums).max() <= 1e-12


class TestOneRowUpdates:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_match_the_add_at_path_bit_for_bit(self, seed):
        # Oracle: the np.add.at and np.bincount updates every batch took
        # before class sums moved to _add_rows. One-row batches take a plain
        # add; a longer batch reaches the deep path (a class of more than
        # isqrt(n) rows), the depth path, or both: one class holding half
        # the stream beside classes of a row or two.
        rng = np.random.default_rng(seed)
        k, d, n = int(rng.integers(1, 40)), int(rng.integers(1, 9)), int(rng.integers(1, 120))
        grid = np.array([-0.0, 0.0, -1.0, 0.1, 3.0, 1e300, -1e300])
        rows = np.where(rng.random((n, d)) < 0.5, grid[rng.integers(0, 7, (n, d))],
                        rng.standard_normal((n, d)))
        labels = rng.integers(0, k, n)
        mix = rng.choice(["uniform", "one class", "one class and the rest"])
        if mix != "uniform":
            labels[rng.random(n) < (1.0 if mix == "one class" else 0.5)] = rng.integers(0, k)
        ncc, ridge = NccState(k, d), RidgeState(k, d)
        sums, counts = np.zeros((k, d)), np.zeros(k, dtype=np.int64)
        start = 0
        with np.errstate(over="ignore", invalid="ignore"):  # +-1e300 rows may overflow
            while start < n:
                stop = start + (1 if rng.random() < 0.3 else int(rng.integers(1, n - start + 1)))
                xs, ys = rows[start:stop], labels[start:stop]
                form = rng.choice(["list", "int32", "uint64", "int64"])
                given_ys = ys.tolist() if form == "list" else ys.astype(form)
                ncc.update_batch(xs, given_ys)
                ridge.update_batch(xs, given_ys)
                np.add.at(sums, ys, xs)
                counts += np.bincount(ys, minlength=k)
                assert ncc.class_sums.tobytes() == sums.tobytes()
                assert ridge.class_sums.tobytes() == sums.tobytes()
                assert ncc.counts.tobytes() == counts.tobytes()
                start = stop
        assert ridge.seen == n

    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    @pytest.mark.parametrize("label", [-1, 3])
    def test_one_row_class_id_out_of_range(self, kind, label):
        state = kind(3, 2)
        with pytest.raises(ClassIdError, match=f"class id {label} outside"):
            state.update_batch(np.ones((1, 2)), [label])
        assert not state.class_sums.any()


class TestBatchLengths:
    @pytest.mark.parametrize("kind", ["ncc", "ridge"])
    def test_rows_and_labels_of_different_lengths_are_a_shape_error(self, kind):
        state = NccState(2, 3) if kind == "ncc" else RidgeState(2, 3)
        with pytest.raises(ShapeError, match="disagree in length"):
            state.update_batch(np.ones((3, 3)), [0, 1])


class TestUnsignedLabels:
    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    def test_uint64_label_past_int64_names_its_value(self, kind):
        # Cast to int64, 2**63 + 1 was reported as class id -9223372036854775807.
        state = kind(3, 2)
        with pytest.raises(ClassIdError, match=f"{2**63 + 1} is past the int64 range"):
            state.update_batch(np.ones((2, 2)), np.array([0, 2**63 + 1], dtype=np.uint64))
        assert not state.class_sums.any()

    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    def test_python_int_past_uint64_names_its_value(self, kind):
        # numpy reads [2**64] as an object array, once reported as its dtype.
        state = kind(3, 2)
        with pytest.raises(ClassIdError, match=f"{2**64} is past the int64 range"):
            state.update_batch(np.ones((1, 2)), [2**64])
        assert not state.class_sums.any()

    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    def test_python_ints_on_both_sides_of_int64_name_the_value(self, kind):
        # numpy reads [-1, 2**63] as float64, once reported as its dtype.
        state = kind(3, 2)
        with pytest.raises(ClassIdError, match=f"{2**63} is past the int64 range"):
            state.update_batch(np.ones((2, 2)), [-1, 2**63])
        assert not state.class_sums.any()

    def test_uint64_labels_in_range_pass(self):
        state = NccState(3, 2).update_batch(np.ones((2, 2)), np.array([0, 2], dtype=np.uint64))
        assert state.counts.tolist() == [1, 0, 1]


def scst_bytes(state) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        save_state(state, path)
        return path.read_bytes()


class TestCopy:
    @pytest.mark.parametrize("kind", [NccState, RidgeState])
    def test_copy_keeps_its_bytes_and_ends_where_the_original_ends(self, kind):
        # d=8 takes 256-row ridge blocks: the copy is taken with 150 rows
        # pending, and the rest of the stream flushes a block in place.
        rng = np.random.default_rng(42)
        xs, ys = unit_rows(rng, 300, 8), rng.integers(0, 4, 300)
        batches = np.split(np.arange(300), [1, 2, 10, 40, 41, 150, 151, 230])
        state = kind(4, 8)
        for batch in batches[:6]:
            state.update_batch(xs[batch], ys[batch])
        assert kind is NccState or state._pending == 150
        twin = state.copy()
        at_copy = scst_bytes(twin)
        for batch in batches[6:]:
            state.update_batch(xs[batch], ys[batch])
        assert scst_bytes(twin) == at_copy
        for batch in batches[6:]:
            twin.update_batch(xs[batch], ys[batch])
        assert scst_bytes(twin) == scst_bytes(state)


class TestRidgeSolve:
    def test_state_with_no_samples_solves_to_a_zero_head(self):
        head = RidgeState(3, 4).solve()
        assert head.weights.tobytes() == np.zeros((3, 4)).tobytes()
        assert head.biases.tobytes() == np.zeros(3).tobytes()

    def test_single_sample_closed_form(self):
        # (e1 e1^T + I) w = e1  =>  w = e1 / 2
        s = RidgeState(1, 2, lam=1.0).update_batch([[1.0, 0.0]], [0])
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
        # lam * seen overflows to inf, so the system is not finite; building
        # it warns of nothing (pytest turns warnings into errors).
        s = RidgeState(2, 3, lam=1e308).update_batch(np.eye(3)[:2], [0, 1])
        with pytest.raises(LinAlgFailure, match="not finite"):
            s.solve()

    def test_weights_that_overflow_are_a_data_error_without_a_warning(self):
        # A finite system of 1e-300 on the diagonal against sums of 1e300:
        # the weights overflow inside the solve's products.
        s = RidgeState(2, 3, lam=1e-300).update_batch(np.zeros((1, 3)), [0])
        s.class_sums[0] = 1e300
        with pytest.raises(DataError, match="non-finite"):
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
        rhs = state.class_sums.T
        factor = scipy_linalg.cho_factor(system, lower=True)
        plain = scipy_linalg.cho_solve(factor, rhs)
        # One refinement step on a residual taken in extended precision: plain
        # cho_solve alone can sit about 1e-12 of the largest weight off.
        wide = np.longdouble
        residual = rhs.astype(wide) - system.astype(wide) @ plain.astype(wide)
        expected = (plain + scipy_linalg.cho_solve(factor, residual.astype(np.float64))).T
        solved = state.solve().weights
        scale = np.abs(expected).max()
        assert np.abs(solved - expected).max() <= 1e-12 * scale


def _matrix_products(fn) -> list[str]:
    """The ``@`` products in ``fn``'s source, which no spy on ``np.matmul`` sees."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]


#: Runs a tiny ridge config at d=64 and d=128 in both stage-two modes and
#: prints the sha256 of each saved ``SCAD`` file.
THREAD_PROBE = """
import hashlib, sys, tempfile
from pathlib import Path
from scroll import ExperimentConfig, execute, save_predictor
for dim in (64, 128):
    for mode in ("adapter", "full_head"):
        cfg = ExperimentConfig.from_dict({
            "seed": 3,
            "data": {"synthetic": {"class_count": 12, "dim": dim, "samples_per_class": 20,
                                   "cluster_spread": 0.3, "seed": 4}},
            "schedule": {"kind": "random_iid", "batch_size": 10, "seed": 5},
            "classifier": {"kind": "ridge", "lambda": 0.01},
            "buffer": {"capacity": 60, "strategy": "exemplar", "seed": 6},
            "adapt": {"mode": mode, "epochs": 3, "seed": 7},
        })
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "predictor.scad"
            save_predictor(execute(cfg).predictor, path)
            print(dim, mode, hashlib.sha256(path.read_bytes()).hexdigest())
"""


class TestBlockedRidgeSolve:
    @pytest.mark.parametrize("d", [1, 63, 64, 65, 128, 256])
    def test_every_product_and_factorization_stays_on_one_thread(self, d, monkeypatch):
        # LAPACK sees only diagonal blocks of at most 64 rows. Products past
        # ONE_THREAD_MULADDS are cut into row blocks: at K=100 a diagonal
        # block's inverse times its rows of the right-hand side is
        # 64 x 64 x 100 = 409,600 multiply-adds whole.
        products, blocks = [], []

        def counted(a, b, **kwargs):
            products.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, **kwargs)

        def spied(call):
            def run(a, *args):
                blocks.append(a.shape[0])
                return call(a, *args)
            return run

        matmul = np.matmul
        rng = np.random.default_rng(d)
        n, k = 2 * d + 1, 100
        state = RidgeState(k, d, lam=0.1).update_batch(unit_rows(rng, n, d), rng.integers(0, k, n))
        system = state.cov + state.lam * state.seen * np.eye(d)
        expected = np.linalg.solve(system, state.class_sums.T).T
        monkeypatch.setattr(np, "matmul", counted)
        for name in ("cholesky", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, spied(getattr(np.linalg, name)))
        weights = state.solve().weights
        monkeypatch.undo()
        assert products and max(products) <= ONE_THREAD_MULADDS
        assert blocks and max(blocks) <= 64
        np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        for fn in (RidgeState.solve, _blocked_cholesky, _cholesky_solve, _blocked_product):
            assert _matrix_products(fn) == []

    def test_saved_predictors_do_not_depend_on_the_blas_thread_count(self):
        # The whole run, stage one's solve included, gives the same SCAD
        # bytes on one OpenBLAS thread and on two.
        src = str(Path(scroll.__file__).resolve().parent.parent)
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", THREAD_PROBE],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            digests.append(out.stdout.splitlines())
        assert len(digests[0]) == 4 and digests[0] == digests[1]


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
                    assert loaded._pending == state._pending
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
        s.update_batch([[1.0, 0.0]], [0])
        s.update_batch([[0.0, 1.0]], [1])
        head = s.to_linear_head()
        np.testing.assert_array_equal(head.weights, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(head.biases, [-0.5, -0.5])

    def test_zero_prototype_maps_to_zero(self):
        s = NccState(2, 3)
        s.update_batch([[0.0, 1.0, 0.0]], [1])
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
        assert head.predict_batch([[0.0, 1.0, 0.0]])[0] == 1

    def test_all_zero_head_ties_to_class_zero(self):
        head = LinearHead(np.zeros((4, 2)), np.zeros(4))
        assert head.predict_batch([[0.3, -0.2]])[0] == 0

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        head = LinearHead(rng.standard_normal((5, 6)), rng.standard_normal(5))
        for x in rng.standard_normal((50, 6)):
            assert head.predict_batch(x[None, :])[0] == brute_force_linear(head, x)

    def test_shape_mismatch(self):
        head = LinearHead(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeError):
            head.predict_batch([[1.0, 2.0]])

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
            ncc_b.update_batch(xs[i : i + 1], ys[i : i + 1])
        assert np.abs(ncc_a.prototypes - ncc_b.prototypes).max() < 1e-9

        ridge_a = RidgeState(5, 10).update_batch(xs, ys)
        ridge_b = RidgeState(5, 10)
        for i in perm:
            ridge_b.update_batch(xs[i : i + 1], ys[i : i + 1])
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
        s = NccState(2, 3).update_batch(np.ones((1, 3)), [0])
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 1"):
            load_state(path)

    @pytest.mark.parametrize("kind", ["ncc", "ridge"])
    def test_version_two_rejected(self, kind, tmp_path):
        # Version 2 stored a ridge cov with the pending rows folded in, so a
        # resumed stream flushed its blocks at other rows.
        s = NccState(2, 3) if kind == "ncc" else RidgeState(2, 3)
        s.update_batch(np.ones((1, 3)), [0])
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 2"):
            load_state(path)

    def test_ridge_pending_rows_beyond_the_block_are_a_format_error(self, tmp_path):
        s = RidgeState(2, 3).update_batch(np.ones((1, 3)), [0])
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        # Header: magic, u16 version, u8 kind, u32 K, u32 d; then lam, seen, pending.
        at = 4 + 2 + 1 + 4 + 4 + 8 + 8
        data[at : at + 4] = struct.pack("<I", len(s._block))
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="pending rows"):
            load_state(path)

    @pytest.mark.parametrize("seen", [0.0, 1000.0])
    def test_ridge_pending_rows_must_match_the_sample_count(self, tmp_path, seen):
        # Two pending rows once loaded beside a count of 0, and then solved
        # to all-zero weights, or beside a count of 1000.
        s = RidgeState(2, 3).update_batch(np.eye(3)[:2], [0, 1])
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        # Header: magic, u16 version, u8 kind, u32 K, u32 d; then lam, seen.
        at = 4 + 2 + 1 + 4 + 4 + 8
        data[at : at + 8] = struct.pack("<d", seen)
        path.write_bytes(bytes(data))
        with pytest.raises(
            FormatError, match=f"^2 pending rows do not match {int(seen)} samples"
        ):
            load_state(path)

    @pytest.mark.parametrize("kind", ["ncc", "ridge"])
    def test_header_beyond_the_payload_is_a_format_error_before_allocating(self, tmp_path, kind):
        # K=3, d=2**31 once raised MemoryError: 48 GiB of NCC class sums, and
        # a ridge second-moment matrix of 2**62 entries.
        path = tmp_path / "state.bin"
        tag = _KIND_NCC if kind == "ncc" else _KIND_RIDGE
        data = STATE_MAGIC + struct.pack("<HBII", STATE_VERSION, tag, 3, 2**31)
        if kind == "ridge":
            data += struct.pack("<ddI", 1.0, 0.0, 0)  # lam, seen, pending
        path.write_bytes(data)
        with pytest.raises(FormatError, match=r"^truncated .*class sums"):
            load_state(path)

    @pytest.mark.parametrize("field, value", [
        ("seen", np.nan), ("seen", np.inf), ("seen", -5.0), ("seen", 2.5),
        ("lam", np.nan), ("lam", np.inf), ("lam", 0.0), ("lam", -1.0),
    ])
    def test_bad_ridge_scalars_are_format_errors(self, tmp_path, field, value):
        # A NaN or infinite count once escaped as ValueError or OverflowError,
        # -5.0 and 2.5 loaded as -5 and 2, and a NaN lam raised ConfigError.
        s = RidgeState(2, 3).update_batch(np.ones((1, 3)), [0])
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        # Header: magic, u16 version, u8 kind, u32 K, u32 d; then lam, seen.
        at = 4 + 2 + 1 + 4 + 4 + (8 if field == "seen" else 0)
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        message = "sample count must be" if field == "seen" else "lam must be positive"
        with pytest.raises(FormatError, match=message):
            load_state(path)

    def test_negative_ncc_count_is_a_format_error(self, tmp_path):
        # A count of -3 once loaded, and class 1, which saw no row, then won
        # predict_batch with its zero prototype.
        s = NccState(2, 2).update_batch(np.array([[1.0, 0.0]]), [0])
        path = tmp_path / "state.bin"
        save_state(s, path)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<q", -3)  # the last int64 count: class 1's
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="counts must be non-negative, got -3"):
            load_state(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ncc_class_sum_is_a_data_error_at_load(self, tmp_path, value):
        # A NaN or infinite sum once loaded, and failed only in predict_batch.
        path = tmp_path / "state.bin"
        save_state(NccState(2, 3).update_batch(np.ones((1, 3)), [0]), path)
        data = bytearray(path.read_bytes())
        at = 4 + 2 + 1 + 4 + 4 + 8  # header (magic, u16 version, u8 kind, u32 K, u32 d), entry 1
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="non-finite values in class sums"):
            load_state(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ridge_second_moment_is_a_data_error_at_load(self, tmp_path, value):
        # A NaN or infinite cov entry once loaded, and failed only in solve.
        path = tmp_path / "state.bin"
        save_state(RidgeState(2, 3).update_batch(np.ones((1, 3)), [0]), path)
        data = bytearray(path.read_bytes())
        # Header: magic, u16 version, u8 kind, u32 K, u32 d; lam, seen, pending; then cov.
        at = 4 + 2 + 1 + 4 + 4 + 8 + 8 + 4 + 8 * 4
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="non-finite values in second-moment matrix"):
            load_state(path)

    def test_unknown_kind_tag_is_a_format_error(self, tmp_path):
        path = tmp_path / "state.bin"
        save_state(NccState(2, 3).update_batch(np.ones((1, 3)), [0]), path)
        data = bytearray(path.read_bytes())
        data[6] = 7  # after the magic and the u16 version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unknown state kind tag 7"):
            load_state(path)

    @pytest.mark.parametrize("kind", ["ncc", "ridge"])
    @pytest.mark.parametrize("k, d", [(0, 3), (2, 0)])
    def test_header_with_zero_classes_or_width_is_a_format_error(self, tmp_path, kind, k, d):
        # Such a header once raised ConfigError from the state constructors.
        s = NccState(2, 3) if kind == "ncc" else RidgeState(2, 3)
        path = tmp_path / "state.bin"
        save_state(s.update_batch(np.ones((1, 3)), [0]), path)
        data = bytearray(path.read_bytes())
        data[7:15] = struct.pack("<II", k, d)  # after the magic, u16 version and u8 kind
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"degenerate state header: K={k}, d={d}"):
            load_state(path)

    @pytest.mark.parametrize("d, entry", [(3, 0), (100, 80)], ids=["first-block", "later-block"])
    def test_loaded_cov_that_is_not_positive_definite_raises_lin_alg_failure(
        self, tmp_path, d, entry
    ):
        # cov[entry, entry] = -10 leaves -10 + 1 (the pending row) + 1 (lam * seen)
        # on the diagonal. At d=100 the first 64-row block factors, and the
        # block holding row 80 does not.
        path = tmp_path / "state.bin"
        save_state(RidgeState(2, d).update_batch(np.ones((1, d)), [0]), path)
        data = bytearray(path.read_bytes())
        # Header: magic, u16 version, u8 kind, u32 K, u32 d; lam, seen, pending; then cov.
        at = 4 + 2 + 1 + 4 + 4 + 8 + 8 + 4 + 8 * (entry * d + entry)
        data[at : at + 8] = struct.pack("<d", -10.0)
        path.write_bytes(bytes(data))
        loaded = load_state(path)
        with pytest.raises(LinAlgFailure, match="could not be factorized"):
            loaded.solve()

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


class TestAllFinite:
    # No errstate here: tier-1 turns every warning into an error, so an
    # overflow or inf - inf warning from the sum would fail the test.
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_overflowing_sum_of_finite_entries_is_finite(self, dtype):
        top = np.finfo(dtype).max
        assert all_finite(np.array([top, top], dtype=dtype))
        assert all_finite(np.full((40, 30), top, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_any_nan_or_infinity_is_not_finite(self, dtype, bad):
        rng = np.random.default_rng(68)
        table = rng.standard_normal((50, 16)).astype(dtype)
        for flat_index, value in zip((3, 16 * 37 + 6), bad):  # columns 3 and 6
            table.flat[flat_index] = value
        assert not all_finite(table)
        assert not all_finite(table[:, ::3])

    def test_empty_is_finite(self):
        assert all_finite(np.zeros(0))
        assert all_finite(np.zeros((0, 5), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_agrees_with_isfinite_on_random_tables(self, dtype):
        rng = np.random.default_rng(69)
        for _ in range(50):
            # Scales up to 1e37 make float32 sums overflow without a cast overflowing.
            table = (rng.standard_normal((20, 8)) * 10.0 ** rng.integers(-5, 38)).astype(dtype)
            if rng.random() < 0.5:
                table.flat[rng.integers(table.size)] = rng.choice([np.nan, np.inf, -np.inf])
            assert all_finite(table) == bool(np.isfinite(table).all())
