import struct
import warnings

import numpy as np
import pytest

from scroll import (
    DataError,
    DegenerateInputError,
    EmbeddingTable,
    FormatError,
    SyntheticSpec,
    load_embeddings,
    normalize,
    save_embeddings,
    synthesize,
)
from scroll import embeddings
from scroll._binio import Reader
from scroll.embeddings import _NORM_BLOCK_ELEMENTS, _row_norms


def make_table(vectors, labels, k, normalized=False):
    return EmbeddingTable(np.asarray(vectors, float), np.asarray(labels), k, normalized)


class TestTableInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="row 1"):
            make_table([[1.0, 0.0], [np.nan, 1.0]], [0, 1], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_each_kind_of_non_finite_entry(self, bad):
        rows = np.ones((300, 4))
        rows[217, 2] = bad
        with pytest.raises(DataError, match="row 217"):
            make_table(rows, np.arange(300) % 3, 3)

    def test_rejects_missing_class(self):
        with pytest.raises(DataError, match="class 1"):
            make_table([[1.0, 0.0], [0.0, 1.0]], [0, 0], 2)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DataError):
            make_table([[1.0, 0.0], [0.0, 1.0]], [0, 2], 2)

    def test_rejects_bad_norm_when_flagged(self):
        with pytest.raises(DataError, match="norm"):
            make_table([[3.0, 4.0], [0.0, 1.0]], [0, 1], 2, normalized=True)

    def test_vectors_are_read_only(self):
        t = make_table([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        with pytest.raises(ValueError):
            t.vectors[0, 0] = 5.0


class TestNormalize:
    def test_three_four_five(self):
        t = make_table([[3.0, 4.0], [0.0, 2.0]], [0, 1], 2)
        out = normalize(t)
        assert out.normalized
        np.testing.assert_array_equal(out.vectors[0], [0.6, 0.8])

    def test_unit_row_unchanged_within_tolerance(self):
        row = np.array([0.6, 0.8])
        t = make_table([row, [0.0, 1.0]], [0, 1], 2)
        out = normalize(t)
        assert np.abs(out.vectors[0] - row).max() <= 1e-12

    def test_zero_row_is_degenerate(self):
        t = make_table([[0.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        with pytest.raises(DegenerateInputError, match="row 0"):
            normalize(t)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_rows_are_scaled_not_overflowed(self, scale):
        # sqrt(sum x^2) is inf for [1e200, 1e200] and 0 for [1e-200, 1e-200].
        rng = np.random.default_rng(8)
        ordinary = rng.standard_normal((3, 2))
        t = make_table(np.vstack([[scale, scale], ordinary]), [0, 1, 1, 0], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(t)
        np.testing.assert_allclose(out.vectors[0], [0.5**0.5, 0.5**0.5], rtol=1e-15)
        # Every ordinary row keeps the plain x / ||x|| bits.
        expected = ordinary / np.linalg.norm(ordinary, axis=1)[:, None]
        np.testing.assert_array_equal(out.vectors[1:], expected)

    def test_zero_row_among_extreme_rows_is_degenerate(self):
        t = make_table([[1e-200, 0.0], [0.0, 0.0], [1e200, 1.0]], [0, 1, 1], 2)
        with pytest.raises(DegenerateInputError, match="row 1"):
            normalize(t)

    def test_exact_idempotence(self):
        rng = np.random.default_rng(3)
        t = make_table(rng.standard_normal((21, 5)), np.repeat(np.arange(3), 7), 3)
        once = normalize(t)
        twice = normalize(once)
        assert twice is once
        np.testing.assert_array_equal(twice.vectors, once.vectors)

    def test_all_rows_unit_after_normalize(self):
        rng = np.random.default_rng(4)
        t = make_table(rng.standard_normal((30, 7)) * 10, np.repeat(np.arange(5), 6), 5)
        out = normalize(t)
        norms = np.linalg.norm(out.vectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6


class TestRowNorms:
    @pytest.mark.parametrize("d", [1, 3, 256])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_bits_equal_the_one_shot_norm(self, d, blocks, extra):
        n = blocks * (_NORM_BLOCK_ELEMENTS // d) + extra
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, d))
        # Rows near 1e+150 and 1e-150 square near the ends of the float range.
        rows[::3] *= 1e150
        rows[1::3] *= 1e-150
        np.testing.assert_array_equal(_row_norms(rows), np.linalg.norm(rows, axis=1))

    def test_normalize_bits_equal_the_one_shot_division(self):
        rng = np.random.default_rng(65)
        rows = rng.standard_normal((2 * (_NORM_BLOCK_ELEMENTS // 7) + 3, 7))
        table = normalize(make_table(rows, np.arange(len(rows)) % 4, 4))
        np.testing.assert_array_equal(
            table.vectors, rows / np.linalg.norm(rows, axis=1)[:, None]
        )


class TestReader:
    def test_array_is_a_view_of_the_buffer(self):
        data = b"SCRL" + np.arange(6, dtype="<f4").tobytes()
        r = Reader(data)
        r.expect_magic(b"SCRL")
        values = r.array("<f4", 6, "embedding rows")
        np.testing.assert_array_equal(values, np.arange(6))
        assert np.shares_memory(values, np.frombuffer(data, np.uint8))
        assert not values.flags.writeable
        r.expect_end()

    def test_truncated_array_names_the_byte_range(self):
        r = Reader(b"SCRL" + bytes(10))
        r.expect_magic(b"SCRL")
        with pytest.raises(
            FormatError, match=r"^truncated embedding rows: need bytes \[4, 28\) "
            r"but data ends at byte 14$"
        ):
            r.array("<f4", 6, "embedding rows")


class TestBinaryFormat:
    def test_round_trip_file_to_file(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((12, 4)).astype(np.float32).astype(np.float64)
        t = make_table(vectors, np.repeat(np.arange(3), 4), 3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_embeddings(t, p1, "binary")
        loaded, mapping = load_embeddings(p1, "binary")
        assert mapping == {0: 0, 1: 1, 2: 2}
        np.testing.assert_array_equal(loaded.vectors, t.vectors)
        np.testing.assert_array_equal(loaded.labels, t.labels)
        save_embeddings(loaded, p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_small_example_shape(self, tmp_path):
        t = make_table([[1, 0], [0, 1], [1, 1], [2, 2]], [0, 0, 1, 1], 2)
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        loaded, _ = load_embeddings(path, "binary")
        assert loaded.n_samples == 4 and loaded.dim == 2 and loaded.class_count == 2

    def test_truncated_mid_row_reports_offset(self, tmp_path):
        t = make_table([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 0], 2)
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        blob = path.read_bytes()
        cut = len(blob) - 15
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match=f"byte {cut}"):
            load_embeddings(path, "binary")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(path, "binary")

    def test_non_finite_rejected(self, tmp_path):
        t = make_table([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        blob = bytearray(path.read_bytes())
        blob[18:22] = np.array([np.inf], "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite"):
            load_embeddings(path, "binary")

    def test_class_count_is_checked_before_the_rows(self, tmp_path):
        # The rows are scanned once, when the table is built, after the
        # header's class count has been compared with the labels.
        t = make_table([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        blob = bytearray(path.read_bytes())
        blob[14:18] = struct.pack("<I", 3)
        blob[18:22] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="header declares 3 classes"):
            load_embeddings(path, "binary")

    def test_normalized_flag_detected(self, tmp_path):
        t = normalize(make_table([[3.0, 4.0], [5.0, 12.0]], [0, 1], 2))
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        loaded, _ = load_embeddings(path, "binary")
        assert loaded.normalized

    @pytest.mark.parametrize("declared", [2, 4])
    def test_header_class_count_must_match_labels(self, tmp_path, declared):
        t = make_table([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 2], 3)
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        blob = bytearray(path.read_bytes())
        # magic (4 bytes), version (2), then N, d, K as little-endian uint32.
        assert blob[14:18] == struct.pack("<I", 3)
        blob[14:18] = struct.pack("<I", declared)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"declares {declared} classes.* 3 distinct"):
            load_embeddings(path, "binary")


class TestCsvFormat:
    def test_label_remap_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1,label\n1.0,0.0,3\n0.0,1.0,7\n0.5,0.5,3\n")
        loaded, mapping = load_embeddings(path, "csv")
        assert mapping == {3: 0, 7: 1}
        np.testing.assert_array_equal(loaded.labels, [0, 1, 0])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        t = make_table(rng.standard_normal((9, 3)), np.repeat(np.arange(3), 3), 3)
        path = tmp_path / "t.csv"
        save_embeddings(t, path, "csv")
        loaded, _ = load_embeddings(path, "csv")
        np.testing.assert_array_equal(loaded.vectors, t.vectors)
        np.testing.assert_array_equal(loaded.labels, t.labels)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(FormatError, match="line 1"):
            load_embeddings(path, "csv")

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1,label\n1.0,0.0,0\n0.5,1\n")
        with pytest.raises(FormatError, match="line 3"):
            load_embeddings(path, "csv")

    def test_unparsable_float_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1,label\nx,0.0,0\n")
        with pytest.raises(FormatError, match="line 2"):
            load_embeddings(path, "csv")


class TestLoadedNorms:
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_a_load_computes_row_norms_once(self, tmp_path, monkeypatch, fmt):
        # The loader sets the normalized flag from one pass of row norms,
        # which the constructor no longer repeats to verify the flag.
        rng = np.random.default_rng(8)
        t = normalize(make_table(rng.standard_normal((40, 5)), np.arange(40) % 4, 4))
        path = tmp_path / f"t.{fmt}"
        save_embeddings(t, path, fmt)
        calls = []

        def counted(rows):
            calls.append(rows.shape)
            return _row_norms(rows)

        monkeypatch.setattr(embeddings, "_row_norms", counted)
        loaded, _ = load_embeddings(path, fmt)
        assert loaded.normalized
        assert calls == [(40, 5)]

    @pytest.mark.parametrize("fmt, scale", [
        ("csv", 3.0), ("csv", 1e200), ("binary", 3.0), ("binary", 3e38),
    ])
    def test_non_unit_rows_load_unflagged_without_warning(self, tmp_path, fmt, scale):
        # A CSV row of 1e200 entries has a sum of squares past float64's
        # range; the binary format stores float32, whose largest entries
        # square to about 1e77.
        t = make_table([[scale, 0.0], [0.0, scale], [scale, scale]], [0, 1, 0], 2)
        path = tmp_path / f"t.{fmt}"
        save_embeddings(t, path, fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded, _ = load_embeddings(path, fmt)
        assert not loaded.normalized

    def test_nan_row_raises_the_tables_data_error(self, tmp_path):
        t = make_table([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
        path = tmp_path / "t.bin"
        save_embeddings(t, path, "binary")
        blob = bytearray(path.read_bytes())
        blob[26:30] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite value in row 1"):
            load_embeddings(path, "binary")


class TestSynthesize:
    def test_deterministic(self):
        spec = SyntheticSpec(3, 8, 10, cluster_spread=0.2, shift_strength=0.1, seed=9)
        a_train, a_test = synthesize(spec)
        b_train, b_test = synthesize(spec)
        np.testing.assert_array_equal(a_train.vectors, b_train.vectors)
        np.testing.assert_array_equal(a_test.vectors, b_test.vectors)

    def test_zero_spread_collapses_to_means(self):
        spec = SyntheticSpec(2, 8, 50, cluster_spread=0.0, shift_strength=0.0, seed=1)
        train, test = synthesize(spec)
        for y in (0, 1):
            rows = train.vectors[train.labels == y]
            np.testing.assert_array_equal(rows, np.repeat(rows[:1], 50, axis=0))
        np.testing.assert_array_equal(train.vectors, test.vectors)

    def test_both_splits_normalized(self):
        spec = SyntheticSpec(4, 6, 5, cluster_spread=0.3, shift_strength=0.2, seed=2)
        train, test = synthesize(spec)
        for t in (train, test):
            assert t.normalized
            assert np.abs(np.linalg.norm(t.vectors, axis=1) - 1).max() <= 1e-6

    def test_nearest_mean_rule_is_perfect_at_low_spread(self):
        # Oracle: classify every test row by its nearest class mean, where the
        # means are recomputed from the train split directly.
        spec = SyntheticSpec(5, 16, 40, cluster_spread=0.05, shift_strength=0.0, seed=11)
        train, test = synthesize(spec)
        means = np.stack(
            [train.vectors[train.labels == y].mean(axis=0) for y in range(5)]
        )
        dists = ((test.vectors[:, None, :] - means[None]) ** 2).sum(-1)
        preds = dists.argmin(axis=1)
        assert np.array_equal(preds, test.labels)

    def test_shift_moves_test_split(self):
        base = dict(class_count=3, dim=8, samples_per_class=10, cluster_spread=0.0, seed=4)
        _, test0 = synthesize(SyntheticSpec(shift_strength=0.0, **base))
        _, test1 = synthesize(SyntheticSpec(shift_strength=0.5, **base))
        assert np.abs(test0.vectors - test1.vectors).max() > 0.01
