import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll import (
    AdaptConfig,
    AdaptedPredictor,
    AdaptError,
    AdapterParams,
    ClassIdError,
    ConfigError,
    DataError,
    LinearHead,
    NccState,
    ReplayBuffer,
    RidgeState,
    ShapeError,
    adadelta_step,
    adapt,
    forward,
    init_adapter,
    init_head,
    load_predictor,
    loss_and_grads,
    save_predictor,
    write_training_curve,
)
from scroll._seeding import seeded_rng
from scroll.learners import ONE_THREAD_MULADDS


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_params(rng, d=6, h=3, k=4):
    head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k))
    return AdapterParams(rng.standard_normal((h, d)), rng.standard_normal((d, h)), head)


def filled_buffer(rng, k=3, d=6, per_class=12, capacity=18):
    buf = ReplayBuffer(capacity, "exemplar", seed=5)
    xs = unit_rows(rng, k * per_class, d)
    ys = np.repeat(np.arange(k), per_class)
    buf.update(xs, ys, np.arange(k * per_class))
    return buf


class TestInitHead:
    def test_ncc_kind_delegates_to_conversion(self):
        s = NccState(2, 2)
        s.update(np.array([1.0, 0.0]), 0)
        s.update(np.array([0.0, 1.0]), 1)
        head = init_head("ncc", s)
        np.testing.assert_array_equal(head.weights, s.to_linear_head().weights)
        np.testing.assert_array_equal(head.biases, s.to_linear_head().biases)

    def test_ridge_kind_is_bit_identical_to_solve(self):
        rng = np.random.default_rng(31)
        s = RidgeState(3, 5).update_batch(unit_rows(rng, 30, 5), rng.integers(0, 3, 30))
        head = init_head("ridge", s)
        np.testing.assert_array_equal(head.weights, s.solve().weights)

    def test_random_kind_deterministic_and_bounded(self):
        a = init_head("random", class_count=4, dim=9, seed=3)
        b = init_head("random", class_count=4, dim=9, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert np.abs(a.weights).max() <= 1.0 / 3.0
        np.testing.assert_array_equal(a.biases, np.zeros(4))

    def test_missing_state_is_an_error(self):
        with pytest.raises(AdaptError):
            init_head("ncc", None)
        with pytest.raises(AdaptError):
            init_head("ridge", NccState(2, 2))


class TestForward:
    def test_zero_down_projection_is_identity(self):
        rng = np.random.default_rng(32)
        head = LinearHead(rng.standard_normal((3, 5)), rng.standard_normal(3))
        params = AdapterParams(np.zeros((2, 5)), rng.standard_normal((5, 2)), head)
        z = rng.standard_normal(5)
        logits, _ = forward(params, z)
        np.testing.assert_allclose(logits, head.scores(z), atol=1e-15)

    def test_zero_up_projection_is_identity(self):
        rng = np.random.default_rng(33)
        head = LinearHead(rng.standard_normal((3, 5)), rng.standard_normal(3))
        params = AdapterParams(rng.standard_normal((2, 5)), np.zeros((5, 2)), head)
        zs = rng.standard_normal((7, 5))
        logits, _ = forward(params, zs)
        np.testing.assert_allclose(logits, head.scores(zs), atol=1e-15)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(34)
        params = random_params(rng)
        zs = rng.standard_normal((5, 6))
        logits, _ = forward(params, zs)
        for i, z in enumerate(zs):
            hidden = np.maximum(params.down @ z, 0.0)
            g = z + params.up @ hidden
            expected = params.head.weights @ g + params.head.biases
            np.testing.assert_allclose(logits[i], expected, atol=1e-12)


class TestLossAndGrads:
    def test_equal_logits_give_log_k(self):
        head = LinearHead(np.zeros((2, 4)), np.zeros(2))
        params = AdapterParams(np.zeros((2, 4)), np.zeros((4, 2)), head)
        zs = np.random.default_rng(35).standard_normal((6, 4))
        loss, _ = loss_and_grads(params, zs, np.array([0, 1, 0, 1, 0, 1]), 2.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_temperature_approaches_log_k(self):
        rng = np.random.default_rng(36)
        params = random_params(rng, k=5)
        zs = rng.standard_normal((8, 6))
        ys = rng.integers(0, 5, 8)
        loss, grads = loss_and_grads(params, zs, ys, 1e6)
        assert loss == pytest.approx(math.log(5.0), rel=1e-4)
        assert max(np.abs(g).max() for g in grads.values()) < 1e-3

    @staticmethod
    def _numeric_grad(params, zs, ys, tau, name, indices, step=1e-5):
        bare = isinstance(params, LinearHead)
        head = params if bare else params.head
        tensors = {"weights": head.weights, "biases": head.biases}
        if not bare:
            tensors.update(down=params.down, up=params.up)

        def loss_with(offset_value):
            arrays = {k: v.copy() for k, v in tensors.items()}
            arrays[name][indices] = offset_value
            p = LinearHead(arrays["weights"], arrays["biases"])
            if not bare:
                p = AdapterParams(arrays["down"], arrays["up"], p)
            return loss_and_grads(p, zs, ys, tau)[0]

        base = tensors[name][indices]
        return (loss_with(base + step) - loss_with(base - step)) / (2 * step)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            adapter = random_params(rng)
            zs = rng.standard_normal((4, 6))
            ys = rng.integers(0, 4, 4)
            for params, names in (
                (adapter, {"down", "up", "weights", "biases"}),
                (adapter.head, {"weights", "biases"}),
            ):
                _, grads = loss_and_grads(params, zs, ys, 2.0)
                assert set(grads) == names
                for name, grad in grads.items():
                    flat = rng.integers(0, grad.size)
                    idx = np.unravel_index(flat, grad.shape)
                    numeric = self._numeric_grad(params, zs, ys, 2.0, name, idx)
                    analytic = grad[idx]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / denom < 1e-4

    def test_loss_is_bitwise_the_mean_of_row_losses(self):
        # Oracle: the per-row losses averaged by np.mean.
        rng = np.random.default_rng(56)
        head = LinearHead(rng.standard_normal((5, 7)), rng.standard_normal(5))
        for n in (1, 7, 50):
            zs, ys = rng.standard_normal((n, 7)), rng.integers(0, 5, n)
            scaled = head.scores(zs) / 2.0
            scaled -= scaled.max(axis=1, keepdims=True)
            row_loss = np.log(np.exp(scaled).sum(axis=1)) - scaled[np.arange(n), ys]
            assert loss_and_grads(head, zs, ys, 2.0)[0] == float(np.mean(row_loss))

    def test_bare_head_gradients_equal_zero_up_adapter(self):
        rng = np.random.default_rng(47)
        head = LinearHead(rng.standard_normal((4, 6)), rng.standard_normal(4))
        frozen = AdapterParams(rng.standard_normal((3, 6)), np.zeros((6, 3)), head)
        zs = rng.standard_normal((9, 6))
        ys = rng.integers(0, 4, 9)
        bare_loss, bare = loss_and_grads(head, zs, ys, 2.0)
        frozen_loss, full = loss_and_grads(frozen, zs, ys, 2.0)
        assert bare_loss == frozen_loss
        assert set(bare) == {"weights", "biases"}
        for name, grad in bare.items():
            np.testing.assert_array_equal(grad, full[name])


    def test_out_receives_the_gradients_bit_for_bit(self):
        rng = np.random.default_rng(57)
        adapter = random_params(rng, d=7, h=3, k=5)
        zs, ys = rng.standard_normal((11, 7)), rng.integers(0, 5, 11)
        for params in (adapter, adapter.head):
            loss, grads = loss_and_grads(params, zs, ys, 2.0)
            out = {name: np.full_like(g, np.nan) for name, g in grads.items()}
            out_loss, out_grads = loss_and_grads(params, zs, ys, 2.0, out)
            assert out_loss == loss
            for name, grad in grads.items():
                assert out_grads[name] is out[name]
                np.testing.assert_array_equal(out[name], grad)

    def test_label_outside_the_classes_is_class_id_error(self):
        rng = np.random.default_rng(58)
        head = LinearHead(rng.standard_normal((3, 4)), np.zeros(3))
        for bad in (3, -1):
            with pytest.raises(ClassIdError):
                loss_and_grads(head, rng.standard_normal((2, 4)), np.array([0, bad]), 1.0)

    def test_non_integer_labels_are_class_id_error(self):
        # Truncated to int64, labels [0.9, 1.7] would train classes 0 and 1.
        rng = np.random.default_rng(59)
        head = LinearHead(rng.standard_normal((3, 4)), np.zeros(3))
        with pytest.raises(ClassIdError, match="integer dtype"):
            loss_and_grads(head, rng.standard_normal((2, 4)), [0.9, 1.7], 1.0)


class TestAdadeltaStep:
    def test_zero_gradient_leaves_parameter(self):
        p = np.array([1.0, -2.0])
        new_p, g2, s2 = adadelta_step(p, np.zeros(2), np.zeros(2), np.zeros(2), 0.95, 1e-6)
        np.testing.assert_array_equal(new_p, p)
        np.testing.assert_array_equal(g2, np.zeros(2))

    def test_first_step_formula(self):
        # Oracle: direct evaluation of the published first-step magnitude.
        for g, rho, eps in ((2.0, 0.9, 1e-6), (0.3, 0.95, 1e-8), (-1.5, 0.5, 1e-4)):
            p = np.array([0.0])
            new_p, _, _ = adadelta_step(
                p, np.array([g]), np.zeros(1), np.zeros(1), rho, eps
            )
            expected = -math.sqrt(eps) / math.sqrt((1 - rho) * g * g + eps) * g
            assert new_p[0] == pytest.approx(expected, rel=1e-12)

    def test_constant_stream_magnitude_is_scale_free(self):
        # Oracle: scalar simulation of the same rule; after a warm-up the
        # per-step magnitude must be (nearly) independent of gradient scale.
        def simulate(g, steps=200, rho=0.95, eps=1e-6):
            p = np.zeros(1)
            g2 = np.zeros(1)
            s2 = np.zeros(1)
            last = 0.0
            for _ in range(steps):
                new_p, g2, s2 = adadelta_step(p, np.array([g]), g2, s2, rho, eps)
                last = abs(float(new_p[0] - p[0]))
                p = new_p
            return last

        small, large = simulate(0.5), simulate(500.0)
        assert abs(small - large) / small < 0.05

    def test_lr_zero_freezes_parameter(self):
        p = np.array([3.0])
        new_p, _, _ = adadelta_step(p, np.array([1.0]), np.zeros(1), np.zeros(1), 0.95, 1e-6, lr=0.0)
        np.testing.assert_array_equal(new_p, p)


class TestAdapt:
    def test_mode_none_is_the_identity(self):
        rng = np.random.default_rng(38)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), rng.standard_normal(3))
        pred = adapt(head, buf, AdaptConfig(mode="none"))
        assert pred.adapter is None
        queries = rng.standard_normal((40, 6))
        np.testing.assert_array_equal(
            pred.predict_batch(queries), head.predict_batch(queries)
        )

    def test_zero_learning_rates_preserve_function(self):
        rng = np.random.default_rng(39)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), rng.standard_normal(3))
        cfg = AdaptConfig(mode="adapter", epochs=1, lr_head=0.0, lr_adapter=0.0,
                          optimizer="sgd", seed=2)
        pred = adapt(head, buf, cfg)
        queries = rng.standard_normal((40, 6))
        np.testing.assert_array_equal(
            pred.predict_batch(queries), head.predict_batch(queries)
        )
        np.testing.assert_array_equal(pred.head.weights, head.weights)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            AdaptConfig(mode="adapter", epochs=0)

    def test_empty_buffer_rejected(self):
        rng = np.random.default_rng(40)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        with pytest.raises(AdaptError, match="empty"):
            adapt(head, ReplayBuffer(4, "exemplar", seed=1), AdaptConfig(mode="adapter"))

    def test_fresh_adapter_starts_at_head_function(self):
        rng = np.random.default_rng(41)
        head = LinearHead(rng.standard_normal((4, 8)), rng.standard_normal(4))
        params = init_adapter(head, None, seed=9)
        zs = rng.standard_normal((30, 8))
        logits, _ = forward(params, zs)
        np.testing.assert_array_equal(np.argmax(logits, axis=1), head.predict_batch(zs))
        np.testing.assert_allclose(logits, head.scores(zs), atol=1e-15)

    def test_full_batch_descent_decreases_loss(self):
        rng = np.random.default_rng(42)
        buf = filled_buffer(rng)
        zs, ys = buf.training_arrays()
        head = LinearHead(0.1 * rng.standard_normal((3, 6)), np.zeros(3))
        cfg = AdaptConfig(
            mode="adapter", epochs=10, batch_size=len(ys), optimizer="sgd",
            lr_head=0.05, lr_adapter=0.05, temperature=2.0, seed=3,
        )
        pred = adapt(head, buf, cfg)
        losses = [loss for _, loss, _ in pred.curve]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        cfg = AdaptConfig(mode="adapter", epochs=4, seed=11)
        a = adapt(head, buf, cfg)
        b = adapt(head, buf, cfg)
        np.testing.assert_array_equal(a.head.weights, b.head.weights)
        np.testing.assert_array_equal(a.adapter.down, b.adapter.down)
        np.testing.assert_array_equal(a.adapter.up, b.adapter.up)
        assert a.curve == b.curve

    def test_full_head_mode_keeps_identity_features(self):
        rng = np.random.default_rng(44)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        pred = adapt(head, buf, AdaptConfig(mode="full_head", epochs=3, seed=4))
        assert pred.adapter is None
        assert np.abs(pred.head.weights - head.weights).max() > 0

    def test_divergence_is_a_data_error(self):
        rng = np.random.default_rng(48)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        for mode in ("full_head", "adapter"):
            cfg = AdaptConfig(mode=mode, epochs=2, optimizer="sgd", lr_head=1e308,
                              lr_adapter=1e308, temperature=1e-3, seed=7)
            with np.errstate(all="ignore"), pytest.raises(DataError):
                adapt(head, buf, cfg)

    @pytest.mark.parametrize("mode", ["full_head", "adapter"])
    def test_divergence_raises_without_numpy_warnings(self, mode):
        # No errstate here: tier-1 turns every warning into an error, so a
        # numpy RuntimeWarning on the way to the DataError fails the test.
        rng = np.random.default_rng(48)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        cfg = AdaptConfig(mode=mode, epochs=2, optimizer="sgd", lr_head=1e308,
                          lr_adapter=1e308, temperature=1e-3, seed=7)
        with pytest.raises(DataError, match="non-finite"):
            adapt(head, buf, cfg)

    def test_diverging_adapter_under_a_frozen_head_is_a_data_error(self):
        rng = np.random.default_rng(49)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        cfg = AdaptConfig(mode="adapter", epochs=2, optimizer="sgd", lr_head=0.0,
                          lr_adapter=1e308, temperature=1e-3, seed=7)
        with pytest.raises(DataError, match="adapter parameters"):
            adapt(head, buf, cfg)

    def test_overflowing_loss_under_finite_parameters_is_a_data_error(self):
        # Frozen parameters stay finite, but 1e304-scale logits give losses
        # whose sum overflows; the curve must not silently record inf.
        rng = np.random.default_rng(50)
        buf = filled_buffer(rng)
        head = LinearHead(3e304 * np.eye(3, 6), np.zeros(3))
        cfg = AdaptConfig(mode="full_head", epochs=1, optimizer="sgd", lr_head=0.0,
                          temperature=1e-3, batch_size=6, seed=7)
        with pytest.raises(DataError, match="training loss is not finite"):
            adapt(head, buf, cfg)

    def test_threshold_mismatch_warns_but_runs(self):
        rng = np.random.default_rng(45)
        buf = filled_buffer(rng)  # 18 < default threshold 500
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        pred = adapt(head, buf, AdaptConfig(mode="full_head", epochs=1, seed=5))
        assert any("threshold" in w for w in pred.warnings)


def frozen_adapter_reference(head, buf, cfg, rng):
    """Head-only training as an adapter whose ``up`` stays at zero.

    Oracle for ``full_head``: every step runs the adapter forward and
    backward pass, keeps only the head's gradients, and rebuilds the
    parameters; the curve's buffer accuracy goes through ``forward``.
    """
    zs, ys = buf.training_arrays()
    params = AdapterParams(rng.standard_normal((2, head.dim)), np.zeros((head.dim, 2)), head)
    slots = {name: [np.zeros_like(t), np.zeros_like(t)]
             for name, t in (("weights", head.weights), ("biases", head.biases))}
    order_rng = seeded_rng(cfg.seed, 33)
    curve = []
    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(ys))
        total = 0.0
        for lo in range(0, len(ys), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            loss, grads = loss_and_grads(params, zs[sel], ys[sel], cfg.temperature)
            total += loss * len(sel)
            tensors = {"weights": params.head.weights, "biases": params.head.biases}
            for name in tensors:
                if cfg.optimizer == "sgd":
                    tensors[name] = tensors[name] - cfg.lr_head * grads[name]
                else:
                    tensors[name], *slots[name] = adadelta_step(
                        tensors[name], grads[name], *slots[name], cfg.rho, cfg.eps,
                        cfg.lr_head,
                    )
            params = AdapterParams(
                params.down, params.up, LinearHead(tensors["weights"], tensors["biases"])
            )
        logits, _ = forward(params, zs)
        curve.append((epoch, total / len(ys), float(np.mean(np.argmax(logits, axis=1) == ys))))
    return params.head, curve


class TestHeadOnly:
    def test_matches_frozen_adapter_reference(self):
        rng = np.random.default_rng(49)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), rng.standard_normal(3))
        for optimizer in ("adadelta", "sgd"):
            cfg = AdaptConfig(mode="full_head", epochs=5, batch_size=7, lr_head=0.2,
                              temperature=1.5, optimizer=optimizer, seed=8)
            pred = adapt(head, buf, cfg)
            ref_head, ref_curve = frozen_adapter_reference(head, buf, cfg, rng)
            np.testing.assert_array_equal(pred.head.weights, ref_head.weights)
            np.testing.assert_array_equal(pred.head.biases, ref_head.biases)
            assert pred.curve == ref_curve

    def test_builds_and_runs_no_adapter(self, monkeypatch):
        module = importlib.import_module("scroll.adapt")

        def refuse(*args, **kwargs):
            raise AssertionError("full_head must not touch the adapter")

        monkeypatch.setattr(module, "init_adapter", refuse)
        monkeypatch.setattr(module, "forward", refuse)
        rng = np.random.default_rng(50)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        pred = adapt(head, buf, AdaptConfig(mode="full_head", epochs=3, seed=4))
        assert pred.adapter is None
        assert len(pred.curve) == 3


class TestAdaptedPredictorQueries:
    def test_wrong_width_with_adapter_is_shape_error(self):
        rng = np.random.default_rng(51)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        pred = adapt(head, buf, AdaptConfig(mode="adapter", epochs=1, seed=6))
        with pytest.raises(ShapeError):
            pred.predict_batch(rng.standard_normal((5, 7)))

    def test_single_row_batch_is_shape_error(self):
        rng = np.random.default_rng(52)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        for mode in ("adapter", "full_head"):
            pred = adapt(head, buf, AdaptConfig(mode=mode, epochs=1, seed=6))
            with pytest.raises(ShapeError, match="2-d batch"):
                pred.predict_batch(rng.standard_normal(6))


@st.composite
def predictor_cases(draw):
    """A predictor with or without an adapter, and 0-1000 queries.

    Heads may repeat a class's weights and bias (bitwise-equal classes);
    queries may repeat rows; small-integer entries make exact logit ties.
    """
    k, d = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())

    def entries(*shape):
        return rng.integers(-3, 4, shape).astype(float) if grid else rng.standard_normal(shape)

    weights, biases = entries(k, d), entries(k)
    for y in range(1, k):
        if draw(st.booleans()):
            twin = draw(st.integers(0, y - 1))
            weights[y], biases[y] = weights[twin], biases[twin]
    head = LinearHead(weights, biases)
    adapter = None
    if draw(st.booleans()):
        h = draw(st.integers(1, 8))
        adapter = AdapterParams(entries(h, d), entries(d, h), head)
    n = draw(st.integers(1, 1000) | st.sampled_from((0, 255, 256, 257, 513, 1000)))
    pool = entries(draw(st.integers(1, 1000)), d)
    queries = pool[rng.integers(0, len(pool), n)]
    return AdaptedPredictor(head, adapter), queries, grid


def unblocked_logits(pred, zs):
    """All queries scored in one product per layer, as before blocking."""
    feat = zs
    if pred.adapter is not None:
        act = np.maximum(zs @ pred.adapter.down.T, 0.0)
        feat = zs + act @ pred.adapter.up.T
    return feat @ pred.head.weights.T + pred.head.biases


class TestBlockedPredictions:
    # The same examples on every run, and no deadline: a slow host must not
    # fail a correct run.
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(predictor_cases())
    def test_agrees_with_unblocked_oracle(self, case):
        pred, queries, exact = case
        preds = pred.predict_batch(queries)
        assert preds.dtype == np.int64 and preds.shape == (len(queries),)
        logits = unblocked_logits(pred, queries)
        expected = np.argmax(logits, axis=1)
        if exact:
            # Small-integer entries: every logit is exact, so ties between
            # bitwise-equal classes go to the smaller id on both sides.
            np.testing.assert_array_equal(preds, expected)
        for p, e, row in zip(preds, expected, logits):
            if p != e:
                # Otherwise only a tie to rounding may be broken differently.
                # Bitwise-equal classes are such a tie: the BLAS may round
                # their two columns differently, depending on the row count,
                # even within one unblocked product.
                tol = 1e-12 * max(abs(row[p]), abs(row[e]))
                assert abs(row[p] - row[e]) <= tol, (p, e, row[p], row[e], tol)

    def test_empty_batch_still_checks_width(self):
        rng = np.random.default_rng(53)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        for adapter in (None, init_adapter(head, 2, seed=1)):
            pred = AdaptedPredictor(head, adapter)
            assert pred.predict_batch(np.zeros((0, 6))).shape == (0,)
            with pytest.raises(ShapeError):
                pred.predict_batch(np.zeros((0, 7)))


def reference_adadelta_step(param, grad, accum_grad_sq, accum_step_sq, rho, eps, lr):
    """The AdaDelta rule with a fresh array for every intermediate."""
    new_grad_sq = rho * accum_grad_sq + (1.0 - rho) * grad * grad
    step = -np.sqrt(accum_step_sq + eps) / np.sqrt(new_grad_sq + eps) * grad
    new_step_sq = rho * accum_step_sq + (1.0 - rho) * step * step
    return param + lr * step, new_grad_sq, new_step_sq


def pure_update_reference(init, buf, cfg):
    """Replay training where every step builds new parameter arrays.

    Oracle for ``adapt``'s in-place updates: the same minibatch order and
    gradients, with each tensor replaced by a pure SGD or
    :func:`reference_adadelta_step` update. Returns the final tensors and
    the per-epoch mean losses.
    """
    zs, ys = buf.training_arrays()
    tensors = {"weights": init.weights.copy(), "biases": init.biases.copy()}
    rates = dict.fromkeys(tensors, cfg.lr_head)
    if cfg.mode == "adapter":
        adapter = init_adapter(init, cfg.bottleneck, cfg.seed)
        tensors.update(down=adapter.down, up=adapter.up)
        rates.update(down=cfg.lr_adapter, up=cfg.lr_adapter)
    slots = {name: [np.zeros_like(t), np.zeros_like(t)] for name, t in tensors.items()}
    order_rng = seeded_rng(cfg.seed, 33)
    losses = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(ys))
        total = 0.0
        for lo in range(0, len(ys), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            params = LinearHead(tensors["weights"], tensors["biases"])
            if cfg.mode == "adapter":
                params = AdapterParams(tensors["down"], tensors["up"], params)
            loss, grads = loss_and_grads(params, zs[sel], ys[sel], cfg.temperature)
            total += loss * len(sel)
            for name in tensors:
                if cfg.optimizer == "sgd":
                    tensors[name] = tensors[name] - rates[name] * grads[name]
                else:
                    tensors[name], *slots[name] = reference_adadelta_step(
                        tensors[name], grads[name], *slots[name], cfg.rho, cfg.eps,
                        rates[name],
                    )
        losses.append(total / len(ys))
    return tensors, losses


def large_buffer(rng, k=4, d=8, per_class=100, capacity=300):
    buf = ReplayBuffer(capacity, "exemplar", seed=7)
    xs = unit_rows(rng, k * per_class, d)
    buf.update(xs, np.repeat(np.arange(k), per_class), np.arange(k * per_class))
    return buf


class TestInPlaceUpdates:
    def test_matches_pure_update_reference(self):
        rng = np.random.default_rng(54)
        buf = large_buffer(rng)
        assert buf.total_stored() > 256
        head = LinearHead(rng.standard_normal((4, 8)), rng.standard_normal(4))
        for mode in ("adapter", "full_head"):
            for optimizer in ("adadelta", "sgd"):
                cfg = AdaptConfig(mode=mode, epochs=3, batch_size=32, lr_head=0.2,
                                  lr_adapter=0.05, optimizer=optimizer, seed=9)
                pred = adapt(head, buf, cfg)
                ref, ref_losses = pure_update_reference(head, buf, cfg)
                np.testing.assert_array_equal(pred.head.weights, ref["weights"])
                np.testing.assert_array_equal(pred.head.biases, ref["biases"])
                if mode == "adapter":
                    np.testing.assert_array_equal(pred.adapter.down, ref["down"])
                    np.testing.assert_array_equal(pred.adapter.up, ref["up"])
                assert [loss for _, loss, _ in pred.curve] == ref_losses

    def test_products_stay_in_blocks_and_one_step_per_batch(self, monkeypatch):
        module = importlib.import_module("scroll.adapt")
        rows, steps = [], []
        scores, fwd, step = LinearHead.scores, module.forward, module.loss_and_grads

        def scores_rows(self, xs):
            rows.append(np.atleast_2d(xs).shape[0])
            return scores(self, xs)

        def forward_rows(params, zs):
            rows.append(np.atleast_2d(zs).shape[0])
            return fwd(params, zs)

        def counted(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(LinearHead, "scores", scores_rows)
        monkeypatch.setattr(module, "forward", forward_rows)
        monkeypatch.setattr(module, "loss_and_grads", counted)
        rng = np.random.default_rng(55)
        buf = large_buffer(rng)
        head = LinearHead(rng.standard_normal((4, 8)), np.zeros(4))
        for mode in ("adapter", "full_head"):
            rows.clear()
            steps.clear()
            adapt(head, buf, AdaptConfig(mode=mode, epochs=3, batch_size=64, seed=2))
            # Products above 256 rows at K=10, d=64 wake a second BLAS thread.
            assert max(rows) == 256
            assert len(steps) == 3 * math.ceil(buf.total_stored() / 64)

    def test_buffer_check_products_stay_on_one_thread(self, monkeypatch):
        # 256-row checks at K=50, d=128 (1.6e6 multiply-adds per product)
        # woke a second BLAS thread, which spun through the training after.
        rows = []
        scores = AdaptedPredictor._scores

        def recorded(self, zs):
            rows.append(zs.shape[0])
            return scores(self, zs)

        monkeypatch.setattr(AdaptedPredictor, "_scores", recorded)
        rng = np.random.default_rng(66)
        k, d = 50, 128
        buf = large_buffer(rng, k=k, d=d, per_class=6, capacity=300)
        zs, ys = buf.training_arrays()
        head = LinearHead(rng.standard_normal((k, d)), np.zeros(k))
        for mode, bottleneck, widest in (("adapter", None, k), ("adapter", 64, 64),
                                         ("full_head", None, k)):
            rows.clear()
            cfg = AdaptConfig(mode=mode, epochs=2, bottleneck=bottleneck, seed=3)
            pred = adapt(head, buf, cfg)
            assert max(rows) * d * widest <= ONE_THREAD_MULADDS
            assert sum(rows) == 2 * len(ys)
            assert pred.curve[-1][2] == float(np.mean(pred.predict_batch(zs) == ys))


@st.composite
def fused_step_cases(draw):
    """A buffer, a starting head and a config for every mode and optimizer.

    Shapes come from a drawn seed: derandomized drawing of each size would
    put most examples at the smallest one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d = int(rng.integers(1, 7)), int(rng.integers(1, 10))
    per_class = int(rng.integers(1, 12))
    buf = ReplayBuffer(int(rng.integers(1, k * per_class + 1)), "exemplar", seed=1)
    buf.update(rng.standard_normal((k * per_class, d)), np.repeat(np.arange(k), per_class),
               np.arange(k * per_class))
    stored = buf.total_stored()
    head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k))
    rates = [0.0, float(rng.uniform(0.01, 0.5))]
    cfg = AdaptConfig(
        mode="full_head", epochs=int(rng.integers(1, 4)),
        batch_size=int(rng.choice([1, int(rng.integers(1, stored + 1)), stored + 3])),
        lr_head=rates[rng.random() < 0.8], lr_adapter=rates[rng.random() < 0.8],
        temperature=float(rng.uniform(0.5, 5.0)),
        bottleneck=int(rng.integers(1, 2 * d + 2)) if rng.random() < 0.7 else None,
        seed=int(rng.integers(0, 1000)),
    )
    return head, buf, cfg


class TestFusedSteps:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(fused_step_cases())
    def test_matches_pure_update_reference(self, case):
        head, buf, base = case
        zs, ys = buf.training_arrays()
        for mode in ("adapter", "full_head"):
            for optimizer in ("adadelta", "sgd"):
                cfg = dataclasses.replace(base, mode=mode, optimizer=optimizer)
                pred = adapt(head, buf, cfg)
                curve = []
                for epoch in range(1, cfg.epochs + 1):
                    ref, losses = pure_update_reference(
                        head, buf, dataclasses.replace(cfg, epochs=epoch)
                    )
                    ref_head = LinearHead(ref["weights"], ref["biases"])
                    ref_adapter = None
                    if mode == "adapter":
                        ref_adapter = AdapterParams(ref["down"], ref["up"], ref_head)
                    hits = AdaptedPredictor(ref_head, ref_adapter).predict_batch(zs) == ys
                    curve.append((epoch, losses[-1], float(np.mean(hits))))
                np.testing.assert_array_equal(pred.head.weights, ref["weights"])
                np.testing.assert_array_equal(pred.head.biases, ref["biases"])
                if mode == "adapter":
                    np.testing.assert_array_equal(pred.adapter.down, ref["down"])
                    np.testing.assert_array_equal(pred.adapter.up, ref["up"])
                assert pred.curve == curve

    def test_one_optimizer_call_per_group_per_step(self, monkeypatch):
        module = importlib.import_module("scroll.adapt")
        calls = []
        update = module._adadelta_update

        def counted(param, *args):
            calls.append(param.size)
            return update(param, *args)

        monkeypatch.setattr(module, "_adadelta_update", counted)
        rng = np.random.default_rng(59)
        buf = large_buffer(rng)
        head = LinearHead(rng.standard_normal((4, 8)), np.zeros(4))
        steps = 3 * math.ceil(buf.total_stored() / 64)
        for mode, sizes in (("full_head", [4 * 8 + 4]), ("adapter", [4 * 8 + 4, 2 * 3 * 8])):
            calls.clear()
            adapt(head, buf, AdaptConfig(mode=mode, epochs=3, batch_size=64, bottleneck=3))
            assert calls == sizes * steps
        calls.clear()
        adapt(head, buf, AdaptConfig(mode="adapter", epochs=1, optimizer="sgd"))
        assert calls == []


class TestPredictorCheckpoint:
    def test_round_trip_with_adapter(self, tmp_path):
        rng = np.random.default_rng(46)
        buf = filled_buffer(rng)
        head = LinearHead(rng.standard_normal((3, 6)), np.zeros(3))
        pred = adapt(head, buf, AdaptConfig(mode="adapter", epochs=2, seed=6), "ridge")
        path = tmp_path / "pred.bin"
        save_predictor(pred, path)
        loaded = load_predictor(path)
        np.testing.assert_array_equal(loaded.head.weights, pred.head.weights)
        np.testing.assert_array_equal(loaded.adapter.down, pred.adapter.down)
        np.testing.assert_array_equal(loaded.adapter.up, pred.adapter.up)
        assert loaded.provenance == pred.provenance
        queries = rng.standard_normal((25, 6))
        np.testing.assert_array_equal(
            loaded.predict_batch(queries), pred.predict_batch(queries)
        )

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_training_curve([(1, 0.5, 0.75), (2, 0.25, 1.0)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,buffer_acc"
        assert lines[1] == "1,0.5,0.75"
