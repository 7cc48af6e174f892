import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit import sample as sample_module
from rdtoolkit.errors import (
    BadTreatmentCode,
    DataError,
    MissingColumn,
    NonFiniteOutcome,
    NonFiniteScore,
)
from rdtoolkit.sample import RdSample, _ingest_rows, ingest_csv, mass_points

from conftest import make_sample, write_csv


class TestIngest:
    def test_basic_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y", "t", "z"],
                         [[-0.5, 1.0, 0, 2.0], [0.5, 2.0, 1, 3.0]])
        s = ingest_csv(path, {"score": "x", "outcome": "y",
                              "treatment": "t", "covariates": ["z"]},
                       cutoff=0.0)
        assert s.n == 2
        assert s.score.tolist() == [-0.5, 0.5]
        assert s.outcome.tolist() == [1.0, 2.0]
        assert s.received.tolist() == [0, 1]
        assert s.covariates["z"].tolist() == [2.0, 3.0]

    def test_missing_column_reports_header(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y"], [[0, 1]])
        with pytest.raises(MissingColumn, match=r"'w'.*\['x', 'y'\]"):
            ingest_csv(path, {"score": "x", "outcome": "w"}, cutoff=0.0)

    def test_non_finite_score_reports_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y"],
                         [[0.1, 1], ["nan", 2], [0.3, 3]])
        with pytest.raises(NonFiniteScore) as err:
            ingest_csv(path, {"score": "x", "outcome": "y"}, cutoff=0.0)
        assert "row 1" in str(err.value)

    def test_blank_score_is_non_finite(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y"], [["", 1]])
        with pytest.raises(NonFiniteScore):
            ingest_csv(path, {"score": "x", "outcome": "y"}, cutoff=0.0)

    def test_non_finite_outcome(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y"], [[0.1, "inf"]])
        with pytest.raises(NonFiniteOutcome):
            ingest_csv(path, {"score": "x", "outcome": "y"}, cutoff=0.0)

    def test_treatment_code_must_be_binary(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y", "t"], [[0.1, 1, 2]])
        with pytest.raises(BadTreatmentCode):
            ingest_csv(path, {"score": "x", "outcome": "y",
                              "treatment": "t"}, cutoff=0.0)

    def test_covariate_na_tokens_become_nan(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y", "z"],
                         [[0.1, 1, "NA"], [0.2, 2, "n/a"], [0.3, 3, 1.5]])
        s = ingest_csv(path, {"score": "x", "outcome": "y",
                              "covariates": ["z"]}, cutoff=0.0)
        z = s.covariates["z"]
        assert np.isnan(z[0]) and np.isnan(z[1]) and z[2] == 1.5

    def test_short_row_cells_are_missing(self, tmp_path):
        # a row shorter than the header reads its missing cells as NA
        cases = [("x,y\n0.1,1\n-0.2\n", {}, NonFiniteOutcome),
                 ("y,x\n1,0.1\n2\n", {}, NonFiniteScore),
                 ("x,y,t\n0.1,1,1\n-0.2,2\n", {"treatment": "t"},
                  BadTreatmentCode)]
        for text, extra, error in cases:
            path = tmp_path / "d.csv"
            path.write_text(text)
            with pytest.raises(error) as err:
                ingest_csv(str(path), {"score": "x", "outcome": "y", **extra},
                           cutoff=0.0)
            assert err.value.row == 1
        path.write_text("x,y,z\n0.1,1,2.5\n-0.2,2\n")
        s = ingest_csv(str(path), {"score": "x", "outcome": "y",
                                   "covariates": ["z"]}, cutoff=0.0)
        assert s.covariates["z"][0] == 2.5 and np.isnan(s.covariates["z"][1])

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1\n\n0.2,2\n")
        s = ingest_csv(str(path), {"score": "x", "outcome": "y"}, cutoff=0.0)
        assert s.n == 2

    def test_row_index_counts_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1\n\n0.3,3\nnan,4\n")
        with pytest.raises(NonFiniteScore) as err:
            ingest_csv(str(path), {"score": "x", "outcome": "y"}, cutoff=0.0)
        assert err.value.row == 3

    def test_semicolon_delimiter(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y"],
                         [[0.1, 1], [0.2, 2]], delimiter=";")
        s = ingest_csv(path, {"score": "x", "outcome": "y"}, cutoff=0.0,
                       delimiter=";")
        assert s.n == 2

    def test_per_unit_cutoff_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y", "c"],
                         [[0.5, 1, 0.0], [1.5, 2, 1.0]])
        s = ingest_csv(path, {"score": "x", "outcome": "y", "cutoff": "c"},
                       cutoff=0.0)
        assert s.effective_cutoffs().tolist() == [0.0, 1.0]
        assert s.centered_score().tolist() == [0.5, 0.5]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), min_size=1, max_size=30))
    def test_score_roundtrip_exact(self, values):
        # repr() of a float is lossless, so ingestion must be bit-exact
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(pathlib.Path(tmp) / "d.csv", ["x", "y"],
                             [[repr(v), 0.0] for v in values])
            s = ingest_csv(path, {"score": "x", "outcome": "y"}, cutoff=0.0)
        np.testing.assert_array_equal(s.score, np.array(values))


# Numeric cells; and missing-value tokens, non-finite, quoted and
# unparseable cells, and treatment codes outside {0, 1}.
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["0", "1", "0.0", "1.0", "-0.0", " 2.5 ", "+.5", "1e-3"]))
_OTHER_CELLS = st.sampled_from(
    ["", " ", "NA", "na", "nan", "NaN", "n/a", "null", "None", ".", "inf",
     "-inf", "Infinity", '"1.5"', '"2"', "abc", "1_0", "2", "-1", "0x10"])


@st.composite
def _csv_case(draw):
    """Text of a small delimited file, a column map and a delimiter."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ["x", "y", "t", "c", "z", "w"]
    dirty = draw(st.booleans())
    # a quoted cell holding delimiters shifts every later cell for any
    # parser that splits on the delimiter alone
    quoted = st.just(f'"1{delimiter}2{delimiter}3"')
    cell = (st.one_of(_NUMBER_CELLS, _OTHER_CELLS, quoted) if dirty
            else _NUMBER_CELLS)
    treat_cell = (st.one_of(st.sampled_from(["0", "1", "0.0", "1.0"]),
                            _OTHER_CELLS)
                  if dirty else st.sampled_from(["0", "1", "0.0", "1.0"]))
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["row"] * 6 + (["blank", "spaces", "short", "long"] if dirty
                           else [])))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("   ")
        else:
            row = [draw(cell) for _ in header]
            row[2] = draw(treat_cell)
            if kind == "short":
                row = row[:draw(st.integers(1, len(header) - 1))]
            elif kind == "long":
                row.append(draw(cell))
            lines.append(delimiter.join(row))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    outcome = draw(st.sampled_from(["y", "x"]))  # "x": score == outcome
    column_map = {"score": "x", "outcome": outcome}
    if draw(st.booleans()):
        column_map["treatment"] = "t"
    if draw(st.booleans()):
        column_map["cutoff"] = "c"
    column_map["covariates"] = draw(
        st.lists(st.sampled_from(["z", "w", "x"]), max_size=2))
    return text, column_map, delimiter


def _ingest_outcome(reader, path, column_map, delimiter):
    """The sample a reader returns, or the type and message it raises."""
    try:
        return reader(path, column_map, 0.0, delimiter)
    except DataError as exc:
        return type(exc), str(exc)


def _same_sample(a, b):
    """Bit-for-bit equality of every array, including NaN payloads."""
    def same(u, v):
        if u is None or v is None:
            return u is v
        return (u.dtype == v.dtype and u.shape == v.shape
                and u.tobytes() == v.tobytes())
    return (a.cutoff == b.cutoff and same(a.score, b.score)
            and same(a.outcome, b.outcome) and same(a.received, b.received)
            and same(a.unit_cutoffs, b.unit_cutoffs)
            and list(a.covariates) == list(b.covariates)
            and all(same(a.covariates[k], b.covariates[k])
                    for k in a.covariates))


class TestParseTiers:
    """ingest_csv's numpy tier must agree with the row parser bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_csv_case())
    def test_matches_row_parser(self, case):
        text, column_map, delimiter = case
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "d.csv"
            path.write_bytes(text.encode())
            fast = _ingest_outcome(ingest_csv, str(path), column_map,
                                   delimiter)
            rows = _ingest_outcome(_ingest_rows, str(path), column_map,
                                   delimiter)
        if isinstance(rows, RdSample):
            assert isinstance(fast, RdSample) and _same_sample(fast, rows)
        else:
            assert fast == rows

    def test_quoted_delimiter_keeps_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('note,x,pad,y\n"1,2,3",4,7,5\n')
        s = ingest_csv(str(path), {"score": "x", "outcome": "y"})
        assert s.score.tolist() == [4.0] and s.outcome.tolist() == [5.0]

    def test_numeric_file_skips_row_parser(self, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("row parser used for an all-numeric file")

        monkeypatch.setattr(sample_module, "_ingest_rows", unreachable)
        path = write_csv(tmp_path / "d.csv", ["x", "y", "t", "z"],
                         [[-0.5, 1.0, 0, 2.0], [0.5, 2.0, 1, "nan"]])
        s = ingest_csv(path, {"score": "x", "outcome": "y",
                              "treatment": "t", "covariates": ["z"]})
        assert s.score.tolist() == [-0.5, 0.5]
        assert s.received.tolist() == [0, 1]
        assert np.isnan(s.covariates["z"][1])


class TestSampleModel:
    def test_arrays_are_frozen(self, step_sample):
        with pytest.raises(ValueError):
            step_sample.score[0] = 9.0

    def test_mass_points_census(self):
        s = make_sample([1.0, 1.0, 2.0, 3.0, 3.0, 3.0], range(6), cutoff=2.0)
        mp = mass_points(s)
        assert mp.distinct_values.tolist() == [1.0, 2.0, 3.0]
        assert mp.m == 3
        assert mp.counts.tolist() == [2, 1, 3]
        assert mp.below_neighbor == 1.0

    def test_below_neighbor_is_largest_below(self):
        s = make_sample([-3.0, -1.0, 0.0, 2.0], [0, 0, 0, 0])
        assert mass_points(s).below_neighbor == -1.0

    def test_subset_preserves_covariates(self, noisy_sample):
        sub = noisy_sample.subset(noisy_sample.score > 0)
        assert sub.n == int((noisy_sample.score > 0).sum())
        assert set(sub.covariates) == {"age", "income"}
        assert (sub.score > 0).all()

    def test_replace_outcome(self, noisy_sample):
        z = noisy_sample.covariates["age"]
        s2 = noisy_sample.replace_outcome(z)
        np.testing.assert_array_equal(s2.outcome, z)
        np.testing.assert_array_equal(s2.score, noisy_sample.score)
        # the design arrays are shared, and still frozen
        assert s2.score is noisy_sample.score
        assert not (s2.score.flags.writeable
                    or s2.covariates["age"].flags.writeable)

    def test_normalized_recenters_cutoffs(self):
        s = RdSample(score=np.array([0.5, 1.5]), outcome=np.array([1.0, 2.0]),
                     cutoff=0.0, unit_cutoffs=np.array([0.0, 1.0]))
        norm = s.normalized()
        assert norm.cutoff == 0.0
        assert norm.score.tolist() == [0.5, 0.5]
        assert norm.unit_cutoffs is None

    def test_non_finite_score_rejected_at_construction(self):
        with pytest.raises(NonFiniteScore):
            make_sample([0.0, np.inf], [1.0, 2.0])

    def test_received_must_be_binary(self):
        with pytest.raises(BadTreatmentCode):
            make_sample([0.0, 1.0], [1.0, 2.0], received=[0, 2])
