"""The shared binary container: who opens binary files, and what a damaged file does at load."""

import ast
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scroll
from scroll import (
    AdaptedPredictor, DataError, EmbeddingTable, FormatError, LinearHead, NccState, ReplayBuffer,
    RidgeState, init_adapter, load_buffer, load_embeddings, load_predictor, load_state,
    save_buffer, save_embeddings, save_predictor, save_state,
)

SOURCES = sorted(Path(scroll.__file__).parent.glob("*.py"))


def binary_opens(source: str) -> list[int]:
    """Lines that call ``open`` with a mode holding ``b``, or read or write bytes by path."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        binary_mode = any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes)
        if (name == "open" and binary_mode) or name in ("read_bytes", "write_bytes", "fromfile"):
            lines.append(node.lineno)
    return lines


def test_only_binio_opens_binary_files():
    # Each loader once opened its own file and checked its own magic and version.
    assert binary_opens('open(p, "rb")\nopen(p, mode="wb")\nopen(p)\np.read_bytes()') == [1, 2, 4]
    found = {path.name: binary_opens(path.read_text()) for path in SOURCES}
    assert found.pop("_binio.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def _originals() -> dict:
    """One small object of each saved kind, with the save and load functions of its format."""
    rng = np.random.default_rng(28)
    rows = rng.standard_normal((9, 3))
    labels = np.arange(9) % 3
    ridge = RidgeState(3, 3, lam=0.5).update_batch(rows, labels)
    assert ridge._pending  # the rows wait in the pending block
    buffers = {}
    for strategy in ("exemplar", "reservoir"):
        buffers[strategy] = ReplayBuffer(4, strategy, seed=2)
        buffers[strategy].update(rows, labels, np.arange(9))
    head = LinearHead(rng.standard_normal((3, 3)), rng.standard_normal(3))
    adapter = init_adapter(head, 2, seed=1)
    adapter.up[:] = rng.standard_normal((3, 2))
    table = EmbeddingTable(rows.astype(np.float32).astype(np.float64), labels, 3)
    states = (save_state, load_state)
    return {
        "SCST-ncc": (NccState(3, 3).update_batch(rows, labels), *states),
        "SCST-ridge": (ridge, *states),
        **{f"SCBF-{s}": (buf, save_buffer, load_buffer) for s, buf in buffers.items()},
        "SCAD-head": (AdaptedPredictor(head, provenance={"init": "ncc"}),
                      save_predictor, load_predictor),
        "SCAD-adapter": (AdaptedPredictor(head, adapter, provenance={"init": "ridge"}),
                         save_predictor, load_predictor),
        "SCRL": (table, save_embeddings, lambda path: load_embeddings(path)[0]),
    }


ORIGINALS = _originals()

mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16)),
        st.tuples(st.just("insert"), st.integers(0, 2**16), st.binary(min_size=1, max_size=9)),
    ),
    min_size=1, max_size=3,
)


def mutated(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, at, *arg in edits:
        if kind == "flip" and data:
            data[at % len(data)] ^= arg[0]
        elif kind == "truncate":
            del data[at % (len(data) + 1):]
        elif kind == "insert":
            at %= len(data) + 1
            data[at:at] = arg[0]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(ORIGINALS))
@settings(max_examples=120, derandomize=True, deadline=None)
@given(edits=mutations)
def test_a_damaged_file_is_an_error_or_saves_back_byte_stable(name, edits):
    # An edited file raises FormatError or DataError, or loads an object
    # that its save function writes back, and that loads and saves again
    # to the same bytes.
    original, save, load = ORIGINALS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "damaged.bin"), Path(tmp, "again.bin")
        save(original, path)
        path.write_bytes(mutated(path.read_bytes(), edits))
        try:
            loaded = load(path)
        except (FormatError, DataError):
            return
        save(loaded, path)
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes()
