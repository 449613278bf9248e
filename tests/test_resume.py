"""A stream saved and loaded mid-way ends in the bytes of the uninterrupted stream."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll import (
    NccState,
    ReplayBuffer,
    RidgeState,
    load_buffer,
    load_state,
    save_buffer,
    save_state,
)
from scroll.replay import STRATEGIES


@st.composite
def resumed_streams(draw):
    """A labelled table, random cuts of a random order, and the batch to save after.

    Widths 64-256 give ridge pending blocks of 4-64 rows, so most saves
    fall inside a block; capacities span fewer slots than classes up to
    more than the stream. Shapes come from a drawn seed: derandomized
    drawing of each size would put most examples at the smallest one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes, n = int(rng.integers(1, 7)), int(rng.integers(1, 161))
    d = int(rng.choice([3, 64, 128, 256]))
    vectors = rng.standard_normal((n, d))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    labels = rng.integers(0, n_classes, n)
    order = rng.permutation(n)
    cuts = np.flatnonzero(rng.random(n - 1) < rng.random()) + 1
    batches = np.split(order, cuts)
    capacity = int(rng.integers(0, n + 8))
    return vectors, labels, n_classes, batches, capacity, int(rng.integers(0, len(batches)))


def checkpoint_bytes(save, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save(obj, path)
        return path.read_bytes()


def resumed(save, load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save(obj, path)
        return load(path)


class TestResume:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(resumed_streams())
    def test_saved_and_loaded_stream_ends_in_the_same_bytes(self, stream):
        vectors, labels, k, batches, capacity, at = stream
        d = vectors.shape[1]

        def fresh():
            states = [NccState(k, d), RidgeState(k, d)]
            buffers = [ReplayBuffer(capacity, strategy, seed=5) for strategy in STRATEGIES]
            return states, buffers

        whole, cut = fresh(), fresh()
        for t, batch in enumerate(batches):
            for states, buffers in (whole, cut):
                for state in states:
                    state.update_batch(vectors[batch], labels[batch])
                for buf in buffers:
                    buf.update(vectors[batch], labels[batch], batch)
            if t == at:
                # The exemplar buffer may hold waiting arrivals here.
                cut = (
                    [resumed(save_state, load_state, s) for s in cut[0]],
                    [resumed(save_buffer, load_buffer, b) for b in cut[1]],
                )
        for mine, theirs in zip(cut[0], whole[0]):
            assert checkpoint_bytes(save_state, mine) == checkpoint_bytes(save_state, theirs)
        for mine, theirs in zip(cut[1], whole[1]):
            assert checkpoint_bytes(save_buffer, mine) == checkpoint_bytes(save_buffer, theirs)
