"""Every entry point that takes embedding rows checks them by one contract.

``learners.check_rows`` and ``learners.check_batch`` decide for all of
them: rows that are not a 2-d batch of the model's width, or labels that
are not one 1-d label per row, raise ``ShapeError``; a non-finite entry
raises ``DataError``; a non-integer label dtype or an id outside
``[0, K)``, an unsigned 64-bit id past the int64 range included, raises
``ClassIdError``. ``herding_order``'s target must be finite and of the
pool's width. Before the contract, a NaN row was
scored as class 0 by the linear and adapted predictors, picked first by
herding, and reached ``adapt`` only as diverged head parameters, after
its first epoch; so no training step may run on faulty input.
"""

import importlib

import numpy as np
import pytest

from scroll import (
    AdaptConfig,
    AdaptedPredictor,
    LinearHead,
    NccState,
    RidgeState,
    adapt,
    herding_order,
)
from scroll.adapt import forward, init_adapter, loss_and_grads
from scroll.errors import ClassIdError, DataError, ShapeError

K, D, N = 3, 4, 6


def rows_and_labels():
    rng = np.random.default_rng(7)
    return rng.standard_normal((N, D)), np.arange(N) % K


def head():
    return LinearHead(np.random.default_rng(8).standard_normal((K, D)), np.zeros(K))


class Buffer:
    """What ``adapt`` reads of a replay buffer, over given arrays."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys

    def training_arrays(self):
        return self.xs, self.ys

    def content_digest(self):
        return "arrays"


def seen_ncc():
    xs, ys = rows_and_labels()
    return NccState(K, D).update_batch(xs, ys)


#: Entry points that take rows and labels: name -> call(xs, ys).
LABELLED = {
    "NccState.update_batch": lambda xs, ys: NccState(K, D).update_batch(xs, ys),
    "RidgeState.update_batch": lambda xs, ys: RidgeState(K, D).update_batch(xs, ys),
    "loss_and_grads(head)": lambda xs, ys: loss_and_grads(head(), xs, ys, 2.0),
    "loss_and_grads(adapter)": lambda xs, ys: loss_and_grads(
        init_adapter(head(), 2, seed=1), xs, ys, 2.0
    ),
    "adapt(full_head)": lambda xs, ys: adapt(
        head(), Buffer(xs, ys), AdaptConfig(mode="full_head", epochs=1, seed=1)
    ),
    "adapt(adapter)": lambda xs, ys: adapt(
        head(), Buffer(xs, ys), AdaptConfig(mode="adapter", epochs=1, seed=1)
    ),
}

#: Entry points that take rows only: name -> call(xs).
UNLABELLED = {
    "LinearHead.predict_batch": lambda xs: head().predict_batch(xs),
    "NccState.predict_batch": lambda xs: seen_ncc().predict_batch(xs),
    "AdaptedPredictor.predict_batch(head)": lambda xs: AdaptedPredictor(head()).predict_batch(xs),
    "AdaptedPredictor.predict_batch(adapter)": lambda xs: AdaptedPredictor(
        head(), init_adapter(head(), 2, seed=1)
    ).predict_batch(xs),
    "forward": lambda xs: forward(init_adapter(head(), 2, seed=1), xs),
    "herding_order": lambda xs: herding_order(xs, np.zeros(D)),
}


def _set(xs, value):
    xs = xs.copy()
    xs[2, 1] = value
    return xs


def _label(ys, value):
    ys = ys.copy()
    ys[1] = value
    return ys


#: Row faults: name -> (edit(xs), error).
ROW_FAULTS = {
    "1-d rows": (lambda xs: xs[0], ShapeError),
    "wrong width": (lambda xs: xs[:, :-1], ShapeError),
    "nan": (lambda xs: _set(xs, np.nan), DataError),
    "+inf": (lambda xs: _set(xs, np.inf), DataError),
    "-inf": (lambda xs: _set(xs, -np.inf), DataError),
}

#: Label faults: name -> (edit(ys), error).
LABEL_FAULTS = {
    "float labels": (lambda ys: ys.astype(np.float64), ClassIdError),
    "2-d labels": (lambda ys: ys[:, None], ShapeError),
    "one label short": (lambda ys: ys[:-1], ShapeError),
    "id below 0": (lambda ys: _label(ys, -1), ClassIdError),
    "id at K": (lambda ys: _label(ys, K), ClassIdError),
    "uint64 id past int64": (lambda ys: _label(ys.astype(np.uint64), 2**63 + 1), ClassIdError),
}

#: Non-finite herding targets, which once gave every row a nan or inf
#: distance and the identity order back: name -> target.
TARGET_FAULTS = {
    "nan": [np.nan] + [0.0] * (D - 1),
    "+inf": [np.inf] + [0.0] * (D - 1),
    "-inf": [-np.inf] + [0.0] * (D - 1),
}


@pytest.fixture()
def no_steps(monkeypatch):
    """Fail any training step: a fault must be found before the first one."""

    def refuse(*args):
        raise AssertionError("the input must be checked before the first step")

    monkeypatch.setattr(importlib.import_module("scroll.adapt"), "_step", refuse)


@pytest.mark.parametrize("fault", ROW_FAULTS)
@pytest.mark.parametrize("entry", LABELLED)
def test_row_fault_of_a_labelled_entry_point(entry, fault, no_steps):
    edit, error = ROW_FAULTS[fault]
    xs, ys = rows_and_labels()
    with pytest.raises(error):
        LABELLED[entry](edit(xs), ys)


@pytest.mark.parametrize("fault", LABEL_FAULTS)
@pytest.mark.parametrize("entry", LABELLED)
def test_label_fault_of_a_labelled_entry_point(entry, fault, no_steps):
    edit, error = LABEL_FAULTS[fault]
    xs, ys = rows_and_labels()
    with pytest.raises(error):
        LABELLED[entry](xs, edit(ys))


@pytest.mark.parametrize("fault", ROW_FAULTS)
@pytest.mark.parametrize("entry", UNLABELLED)
def test_row_fault_of_an_unlabelled_entry_point(entry, fault, no_steps):
    edit, error = ROW_FAULTS[fault]
    xs, _ = rows_and_labels()
    with pytest.raises(error):
        UNLABELLED[entry](edit(xs))


@pytest.mark.parametrize("fault", TARGET_FAULTS)
def test_target_fault_of_herding_order(fault):
    xs, _ = rows_and_labels()
    with pytest.raises(DataError, match="target mean"):
        herding_order(xs, TARGET_FAULTS[fault])


@pytest.mark.parametrize("entry", [*LABELLED, *UNLABELLED])
def test_clean_input_passes(entry):
    xs, ys = rows_and_labels()
    if entry in LABELLED:
        LABELLED[entry](xs, ys)
    else:
        UNLABELLED[entry](xs)
