import numpy as np
import pytest

from coreglasso import CoreScores, InputError
from coreglasso.io import (
    _write_rows,
    read_features_csv,
    read_scores_json,
    read_square_csv,
    read_table_csv,
    write_edges_tsv,
    write_matrix_csv,
    write_scores_json,
    write_trace_csv,
)


class TestReadTable:
    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "x.csv"
        # The second file starts with a UTF-8 byte-order mark, as Excel
        # writes "CSV UTF-8"; it must not turn the first column into labels.
        for raw in (b"1.0,2.0\n3.0,4.0\n", b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n"):
            p.write_bytes(raw)
            values, row_labels = read_table_csv(p)
            np.testing.assert_array_equal(values, [[1, 2], [3, 4]])
            assert row_labels is None

    def test_header_detected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("s1,s2\n1.0,2.0\n3.0,4.0\n")
        values, row_labels = read_table_csv(p)
        assert row_labels is None
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])

    def test_labels_detected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        values, row_labels = read_table_csv(p)
        assert row_labels == ["a", "b"]
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])

    def test_header_and_labels(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("node,s1,s2\na,1.0,2.0\nb,3.0,4.0\n")
        values, row_labels = read_table_csv(p)
        assert row_labels == ["a", "b"]
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])

    def test_bad_value_has_line_number(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InputError, match=r"x\.csv:2"):
            read_table_csv(p)

    def test_ragged_rows_flagged(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputError, match="ragged"):
            read_table_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(InputError, match=r"x\.csv:1: empty file"):
            read_table_csv(p)
        p.write_text("a,b\n")
        with pytest.raises(InputError, match=r"x\.csv:1: no data rows"):
            read_table_csv(p)

    def test_non_finite_values_left_to_the_value_types(self, tmp_path):
        # The parser keeps NaN and inf; FeatureMatrix rejects them, and the
        # reader puts the file's path in front of its message.
        p = tmp_path / "x.csv"
        p.write_text("1.0,nan\n3.0,inf\n")
        values, _ = read_table_csv(p)
        assert np.isnan(values[0, 1]) and np.isinf(values[1, 1])
        with pytest.raises(InputError, match=r"x\.csv: feature matrix contains non-finite"):
            read_features_csv(p)


class TestSquareAndFeatures:
    def test_square_enforced(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(InputError, match="square"):
            read_square_csv(p)

    def test_asymmetric_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.0,1.0\n2.0,0.0\n")
        with pytest.raises(InputError, match="symmetric"):
            read_square_csv(p)

    def test_features_roundtrip(self, tmp_path, rng):
        x = rng.standard_normal((5, 8))
        p = tmp_path / "f.csv"
        _write_rows(p, ([f"n{i}", *row] for i, row in enumerate(x.tolist())))
        fm = read_features_csv(p)
        np.testing.assert_array_equal(fm.values, x)
        assert fm.node_labels == tuple(f"n{i}" for i in range(5))

    @pytest.mark.parametrize("corner", ["", "node"], ids=["unnamed-index", "named-index"])
    def test_pandas_layout(self, tmp_path, corner):
        # DataFrame.to_csv writes integer column names over an integer index
        # column, unnamed (an empty corner cell) or named.
        p = tmp_path / "f.csv"
        p.write_text(f"{corner},0,1,2\n0,1.5,2.0,0.3\n1,0.2,0.1,0.9\n")
        fm = read_features_csv(p)
        np.testing.assert_array_equal(fm.values, [[1.5, 2.0, 0.3], [0.2, 0.1, 0.9]])
        assert fm.node_labels == ("0", "1")
        p.write_text(f"{corner},0,1\n0,0.0,1.0\n1,1.0,0.0\n")
        values, row_labels = read_square_csv(p)
        np.testing.assert_array_equal(values, [[0, 1], [1, 0]])
        assert row_labels == ["0", "1"]


class TestScoresJson:
    def test_roundtrip(self, tmp_path):
        scores = CoreScores(np.array([0.5, 0.25, 0.25]), budget=1.0)
        p = tmp_path / "c.json"
        write_scores_json(p, scores, labels=["a", "b", "c"])
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        for path in (p, bom):
            back = read_scores_json(path)
            np.testing.assert_array_equal(back.values, scores.values)
            assert back.budget == 1.0

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{broken")
        with pytest.raises(InputError, match="invalid JSON"):
            read_scores_json(p)

    def test_missing_fields(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"values": [0.1]}')
        with pytest.raises(InputError, match="malformed"):
            read_scores_json(p)


class TestWriters:
    def test_edges_tsv_upper_triangle_only(self, tmp_path):
        theta = np.eye(3)
        theta[0, 2] = theta[2, 0] = -0.5
        p = tmp_path / "e.tsv"
        write_edges_tsv(p, theta)
        lines = p.read_text().splitlines()
        assert lines[0] == "i\tj\ttheta"
        assert lines[1:] == ["0\t2\t-0.5"]

    def test_trace_csv_half_steps(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace_csv(p, [1.0, 2.0, 3.0, 4.0])
        lines = p.read_text().splitlines()
        assert lines[1] == "1,graph,1.0"
        assert lines[2] == "1,scores,2.0"
        assert lines[3] == "2,graph,3.0"

    def test_matrix_csv_roundtrip_exact(self, tmp_path, rng):
        m = rng.standard_normal((4, 4))
        p = tmp_path / "m.csv"
        write_matrix_csv(p, m)
        values, _ = read_table_csv(p)
        np.testing.assert_array_equal(values, m)

    def test_cells_golden_bytes(self, tmp_path):
        # Every cell is str() of a Python scalar: floats in their shortest
        # round-trip repr, ints as integers.
        values = [0.1, 1 / 3, 1e-05, 1e16, -0.0, 5e-324]
        p = tmp_path / "m.csv"
        write_matrix_csv(p, [values[:3], values[3:]])
        assert p.read_bytes() == (
            b"0.1,0.3333333333333333,1e-05\n"
            b"1e+16,-0.0,5e-324\n"
        )
        theta = np.array([[1.0, 0.1, 1e16], [0.1, 1.0, 5e-324], [1e16, 5e-324, 1.0]])
        write_edges_tsv(p, theta)
        assert p.read_bytes() == (
            b"i\tj\ttheta\n0\t1\t0.1\n0\t2\t1e+16\n1\t2\t5e-324\n"
        )
        write_trace_csv(p, [1 / 3, 1e-05, np.float64(-0.0)])
        assert p.read_bytes() == (
            b"outer_iter,half_step,objective\n"
            b"1,graph,0.3333333333333333\n1,scores,1e-05\n2,graph,-0.0\n"
        )

    def test_lf_line_endings(self, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix_csv(p, np.zeros((2, 2)))
        raw = p.read_bytes()
        assert b"\r" not in raw
