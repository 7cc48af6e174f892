import hashlib
import os
import pathlib
import re
import sys
import tempfile
import threading
import urllib.request
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit import sample as sample_module
from rdtoolkit.bandwidth import select_mse_bandwidth
from rdtoolkit.continuity import rbc_inference
from rdtoolkit.errors import (
    BadSpec,
    BadTreatmentCode,
    DataError,
    MissingColumn,
    NonFiniteCutoff,
    NonFiniteOutcome,
    NonFiniteScore,
)
from rdtoolkit.parallel import run_indexed
from rdtoolkit.defaults import READ_BLOCK
from rdtoolkit.sample import RdSample, ingest_csv, ingest_with_digest

from conftest import make_sample, write_csv


def _row_parser(path, column_map, cutoff, delimiter):
    """The sample built from the row parser's table alone."""
    bindings = sample_module._bindings(column_map, cutoff)
    return sample_module._sample(
        sample_module._ingest_rows(path, bindings, delimiter), bindings,
        cutoff)


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

    @pytest.mark.parametrize("error, message", [
        (NonFiniteScore, "non-finite or missing score at row 7"),
        (NonFiniteOutcome, "non-finite or missing outcome at row 7"),
        (BadTreatmentCode, "treatment code outside {0, 1} at row 7"),
        (NonFiniteCutoff, "non-finite or missing cutoff at row 7"),
    ])
    @pytest.mark.parametrize("value, suffix",
                             [("", ""), ("x'1", " (value \"x'1\")")])
    def test_row_error_message(self, error, message, value, suffix):
        exc = error(7, value) if value else error(7)
        assert isinstance(exc, DataError)
        assert exc.row == 7 and str(exc) == message + suffix

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

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        # csv.reader raises TypeError for these, which is no DataError
        path = write_csv(tmp_path / "d.csv", ["x", "y"], [[0.1, 1]])
        with pytest.raises(BadSpec, match="one character"):
            ingest_csv(path, {"score": "x", "outcome": "y"},
                       delimiter=delimiter)

    def test_per_unit_cutoff_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "y", "c"],
                         [[0.5, 1, 0.0], [1.5, 2, 1.0]])
        s = ingest_csv(path, {"score": "x", "outcome": "y", "cutoff": "c"},
                       cutoff=0.0)
        assert s.unit_cutoffs.tolist() == [0.0, 1.0]
        assert s.centered_score().tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("reader", [ingest_csv, _row_parser],
                             ids=["ingest_csv", "_ingest_rows"])
    def test_cutoff_column_centres_score(self, tmp_path, reader):
        # both parse tiers store X - C with cutoff 0, whatever the scalar
        # cutoff; the column stays as per-unit labels
        path = write_csv(tmp_path / "d.csv", ["x", "y", "c"],
                         [[10.5, 1, 10.0], [19.25, 2, 20.0], [30.0, 3, 30.0]])
        s = reader(path, {"score": "x", "outcome": "y", "cutoff": "c"},
                   5.0, ",")
        assert s.cutoff == 0.0
        assert s.score.tolist() == [0.5, -0.75, 0.0]
        assert s.unit_cutoffs.tolist() == [10.0, 20.0, 30.0]

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
# unparseable cells, and treatment codes outside {0, 1}.  Any number may
# be quoted; the other quoted cells include doubled quotes, text after
# the closing quote, quoted missing-value tokens and numbers with inner
# spaces, and two cells hold a quote inside an unquoted cell.
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["0", "1", "0.0", "1.0", "-0.0", " 2.5 ", "+.5", "1e-3"]),
).flatmap(lambda cell: st.sampled_from([cell, f'"{cell}"']))
_OTHER_CELLS = st.sampled_from(
    ["", " ", "NA", "na", "nan", "NaN", "n/a", "null", "None", ".", "inf",
     "-inf", "Infinity", '"1.5"', '"2"', "abc", "1_0", "2", "-1", "0x10",
     '"1""5"', '"a""b"', '"1"5', '"0" ', '1"5', 'a"b', '"NA"', '""',
     '" 2.5 "', '" -1 "'])


@st.composite
def _csv_case(draw):
    """Text of a small delimited file, a column map, a delimiter and a
    file-name suffix."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = ["x", "y", "t", "c", "z", "w"]
    # a quoted header cell, which may span two lines; the spaces around
    # a name are stripped, the line break with them
    quote = st.sampled_from(["{}", '"{}"', '"{}' + newline + '"',
                             '"' + newline + '{}"'])
    names = [draw(quote).format(name) for name in header]
    dirty = draw(st.booleans())
    # a quoted cell holding delimiters shifts every later cell for any
    # parser that splits on the delimiter alone
    quoted = st.just(f'"1{delimiter}2{delimiter}3"')
    cell = (st.one_of(_NUMBER_CELLS, _OTHER_CELLS, quoted) if dirty
            else _NUMBER_CELLS)
    codes = st.sampled_from(["0", "1", "0.0", "1.0", '"0"', '"1"'])
    treat_cell = st.one_of(codes, _OTHER_CELLS) if dirty else codes
    lines = [delimiter.join(names)]
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
    # a byte-order mark may open the file
    text = (draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines)
            + draw(st.sampled_from(["", newline])))
    outcome = draw(st.sampled_from(["y", "x"]))  # "x": score == outcome
    column_map = {"score": "x", "outcome": outcome}
    if draw(st.booleans()):
        column_map["treatment"] = "t"
    if draw(st.booleans()):
        column_map["cutoff"] = "c"
    column_map["covariates"] = draw(
        st.lists(st.sampled_from(["z", "w", "x"]), max_size=2))
    # numpy opens a path ending in a compressed suffix as compressed
    suffix = draw(st.sampled_from([".csv", ".txt", "", ".csv.gz"]))
    return text, column_map, delimiter, suffix


def _ingest_outcome(reader, path, column_map, delimiter):
    """The sample a reader returns, or the type and message it raises."""
    try:
        return reader(path, column_map, 0.0, delimiter)
    except DataError as exc:
        return type(exc), str(exc)


def _cache_home(path):
    """Point the parse cache at a directory of its own for a with block."""
    return mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(path)})


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


def _unparsed(*args):
    raise AssertionError("a parser was called that should not be")


class TestParseTiers:
    """ingest_csv's numpy tier must agree with the row parser bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_csv_case())
    def test_matches_row_parser(self, case):
        text, column_map, delimiter, suffix = case
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / f"d{suffix}"
            path.write_bytes(text.encode())
            # an empty cache, so ingest_csv parses even a case Hypothesis
            # repeats
            with _cache_home(tmp):
                fast = _ingest_outcome(ingest_csv, str(path), column_map,
                                       delimiter)
            rows = _ingest_outcome(_row_parser, str(path), column_map,
                                   delimiter)
        if isinstance(rows, RdSample):
            assert isinstance(fast, RdSample) and _same_sample(fast, rows)
        else:
            assert fast == rows

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_reads_plain_text(self, tmp_path, suffix):
        # numpy opens a path by its suffix, so a plain-text file named
        # like a compressed one must not reach it
        plain = write_csv(tmp_path / "d.csv", ["x", "y", "t"],
                          [[-0.5, 1.0, 0], [0.5, 2.0, 1], [0.25, 3.0, 1]])
        named = tmp_path / f"d.csv{suffix}"
        named.write_bytes(pathlib.Path(plain).read_bytes())
        column_map = {"score": "x", "outcome": "y", "treatment": "t"}
        as_text = ingest_csv(str(named), column_map)
        # the same bytes, parsed by numpy rather than loaded from the cache
        with _cache_home(tmp_path / "plain"):
            assert _same_sample(as_text, ingest_csv(plain, column_map))

    def test_url_like_relative_path_is_read_from_disk(self, tmp_path,
                                                      monkeypatch):
        # numpy fetches a path that parses as a URL; this one names a
        # local file
        def no_network(*args, **kwargs):
            raise AssertionError("ingest_csv tried to open a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        write_csv(tmp_path / "http:" / "host" / "d.csv", ["x", "y"],
                  [[-0.5, 1.0], [0.5, 2.0]])
        s = ingest_csv("http://host/d.csv", {"score": "x", "outcome": "y"})
        assert s.score.tolist() == [-0.5, 0.5]

    def test_quoted_delimiter_keeps_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('note,x,pad,y\n"1,2,3",4,7,5\n')
        s = ingest_csv(str(path), {"score": "x", "outcome": "y"})
        assert s.score.tolist() == [4.0] and s.outcome.tolist() == [5.0]

    @pytest.mark.parametrize("where", ["past_first_block", "last_byte"])
    def test_late_quote_is_read_by_numeric_tier(self, tmp_path, monkeypatch,
                                                where):
        # numpy splits a quoted cell as the csv module does, so a quote
        # anywhere, down to the last byte, leaves the file to numpy
        monkeypatch.setattr(sample_module, "_ingest_rows", _unparsed)
        # the quote sits in an unmapped column
        rows = [f"{-1 + i / 5000:.6f},{i % 7}.5,n\n" for i in range(10000)]
        head = "x,y,note\n" + "".join(rows)
        assert len(head) > READ_BLOCK
        if where == "past_first_block":
            text = head + '0.25,1.5,"late"\n' + "0.5,2.5,n\n" * 3
        else:
            text = head + '0.25,1.5,late"'
        path = tmp_path / "d.csv"
        path.write_text(text)
        s = ingest_csv(str(path), {"score": "x", "outcome": "y"})
        assert s.score[10000] == 0.25 and s.outcome[10000] == 1.5

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

    def test_r_style_file_skips_row_parser(self, tmp_path, monkeypatch):
        # R's write.csv quotes every header cell and every row name
        columns = np.random.default_rng(3).normal(size=(3, 200)).tolist()
        text = '"","x","y","t","z"\n' + "".join(
            f'"{i + 1}",{x!r},{y!r},{int(x >= 0)},{z!r}\n'
            for i, (x, y, z) in enumerate(zip(*columns)))
        path = tmp_path / "r.csv"
        path.write_text(text)
        column_map = {"score": "x", "outcome": "y", "treatment": "t",
                      "covariates": ["z"]}
        want = _row_parser(str(path), column_map, 0.0, ",")
        monkeypatch.setattr(sample_module, "_ingest_rows", _unparsed)
        got = ingest_csv(str(path), column_map)
        assert _same_sample(got, want) and got.n == 200


def _entries(directory):
    """Names of the entries in a parse cache directory."""
    return sorted(p.name for p in pathlib.Path(directory).glob("*"))


# Cells numpy parses but the sample rejects: the row parser must name
# them.
_REJECTED_BY_SAMPLE = [
    ("x,y\n0.5,1\ninf,2\n", {}, NonFiniteScore, "row 1 (value 'inf')"),
    ("x,y\n0.5,1\n0.25,nan\n", {}, NonFiniteOutcome,
     "row 1 (value 'nan')"),
    ("x,y,t\n0.5,1,1\n-0.5,2,0.5\n", {"treatment": "t"}, BadTreatmentCode,
     "row 1 (value '0.5')"),
    ("x,y,c\n0.5,1,0\n0.5,2,inf\n", {"cutoff": "c"}, NonFiniteCutoff,
     "non-finite or missing cutoff at row 1 (value 'inf')"),
]
_REJECTED_IDS = ["inf_score", "nan_outcome", "half_treatment",
                 "inf_cutoff_cell"]


class TestParseCache:
    """A stored parse is loaded, never shown: every warm read returns what
    the parse returns."""

    COLUMNS = {"score": "x", "outcome": "y", "treatment": "t",
               "covariates": ["z"]}

    @staticmethod
    def _write(path, rows=((-0.5, 1.0, 0, 2.0), (0.5, 2.0, 1, "NA"),
                           (0.25, 3.0, 1, 4.5))):
        return write_csv(path, ["x", "y", "t", "z"], rows)

    @settings(max_examples=200, deadline=None)
    @given(_csv_case())
    def test_warm_read_matches_cold(self, case):
        text, column_map, delimiter, suffix = case
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / f"d{suffix}"
            path.write_bytes(text.encode())
            with _cache_home(tmp):
                cold = _ingest_outcome(ingest_csv, str(path), column_map,
                                       delimiter)
                stored = _entries(pathlib.Path(tmp) / "rd-toolkit")
                if isinstance(cold, RdSample):
                    # a stored parse is loaded, not parsed again
                    with mock.patch.object(sample_module, "_ingest_rows",
                                           _unparsed), \
                            mock.patch.object(sample_module,
                                              "_ingest_numeric", _unparsed):
                        warm = _ingest_outcome(ingest_csv, str(path),
                                               column_map, delimiter)
                else:
                    warm = _ingest_outcome(ingest_csv, str(path),
                                           column_map, delimiter)
        if isinstance(cold, RdSample):
            assert len(stored) == 1
            assert isinstance(warm, RdSample) and _same_sample(cold, warm)
        else:
            # errors are never stored
            assert stored == [] and warm == cold

    @pytest.mark.parametrize("text, column_map, error, message", [
        ("x,y\n0.5,1\nNA,2\n", {}, NonFiniteScore, "row 1 (value 'NA')"),
        ("x,w\n0.5,1\n", {}, MissingColumn, "column 'y' not found"),
        ("x,y\n\n", {}, BadSpec, "at least one unit"),
        ("x,y,c\n0.5,1,0\n0.2,2,\n", {"cutoff": "c"}, NonFiniteCutoff,
         "non-finite or missing cutoff at row 1"),
        *_REJECTED_BY_SAMPLE,
    ], ids=["non_finite_score", "missing_column", "no_data_rows",
            "empty_cutoff_cell", *_REJECTED_IDS])
    def test_errors_are_not_stored(self, tmp_path, parse_cache, text,
                                   column_map, error, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        raised = []
        for _ in range(2):
            with pytest.raises(error, match=re.escape(message)) as info:
                ingest_csv(str(path), {"score": "x", "outcome": "y",
                                       **column_map})
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert _entries(parse_cache) == []

    @pytest.mark.parametrize("text, column_map, error, message",
                             _REJECTED_BY_SAMPLE, ids=_REJECTED_IDS)
    def test_numpy_parses_what_the_sample_rejects(self, tmp_path, text,
                                                  column_map, error,
                                                  message):
        # so the error above comes from the row parser reading a file
        # whose numpy table the sample rejected
        path = tmp_path / "d.csv"
        path.write_text(text)
        bindings = sample_module._bindings(
            {"score": "x", "outcome": "y", **column_map}, 0.0)
        table = sample_module._ingest_numeric(str(path), bindings, ",")
        assert table is not None and table.shape == (len(bindings), 2)
        with pytest.raises(error):
            sample_module._sample(table, bindings, 0.0)

    def test_receipt_is_the_table_row_on_every_source(self, tmp_path,
                                                      monkeypatch):
        # the float64 receipt every fit reads is the parsed table's own
        # row, beside the outcome, whichever source built the table; no
        # module keeps a narrower copy of a treatment column
        rows = [(-0.5, 1.0, "-0", 2.0), (0.5, 2.0, 1, 4.5),
                (0.25, 3.0, "-0.0", 1.5)]
        header = ["x", "y", "t", "z"]
        plain = write_csv(tmp_path / "d.csv", header, rows)
        # numpy cannot parse an NA cell, so the row parser reads this one
        missing = write_csv(tmp_path / "m.csv", header,
                            [(*row[:3], "NA") for row in rows])
        column_map = {"score": "x", "outcome": "y", "treatment": "t",
                      "covariates": ["z"]}
        with mock.patch.object(sample_module, "_ingest_rows", _unparsed):
            samples = [ingest_csv(plain, column_map)]
        with mock.patch.object(
                sample_module, "_ingest_rows",
                mock.Mock(wraps=sample_module._ingest_rows)) as rows_spy:
            samples.append(ingest_csv(missing, column_map))
        assert rows_spy.call_count == 1
        monkeypatch.setattr(sample_module, "_ingest_rows", _unparsed)
        monkeypatch.setattr(sample_module, "_ingest_numeric", _unparsed)
        samples.append(ingest_csv(plain, column_map))  # a cache hit
        for s in samples:
            assert s.received.dtype == np.float64
            assert s.received.tolist() == [0.0, 1.0, 0.0]
            assert s.received.base is not None
            assert s.received.base is s.outcome.base
        for path in pathlib.Path(sample_module.__file__).parent.glob("*.py"):
            assert "int8" not in path.read_text(), path.name

    def test_scalar_cutoff_is_applied_on_a_hit(self, tmp_path):
        path = self._write(tmp_path / "d.csv")
        ingest_csv(path, self.COLUMNS, cutoff=0.0)
        warm = ingest_csv(path, self.COLUMNS, cutoff=0.25)
        with _cache_home(tmp_path / "cold"):
            cold = ingest_csv(path, self.COLUMNS, cutoff=0.25)
        assert _same_sample(warm, cold) and warm.cutoff == 0.25

    @pytest.mark.parametrize("damage", [
        "truncated", "wrong_shape", "empty_table", "float32", "fortran",
        "not_npy", "npz", "invalid_sample"])
    def test_damaged_entry_is_a_miss_and_replaced(self, tmp_path,
                                                  parse_cache, damage):
        path = self._write(tmp_path / "d.csv")
        cold = ingest_csv(path, self.COLUMNS)
        (entry,) = parse_cache.iterdir()
        good = entry.read_bytes()
        table = np.load(entry)
        if damage == "truncated":
            entry.write_bytes(good[:len(good) - 8])
        elif damage == "wrong_shape":
            np.save(entry, table[:3])
        elif damage == "empty_table":
            np.save(entry, table[:, :0])
        elif damage == "float32":
            np.save(entry, table.astype(np.float32))
        elif damage == "fortran":
            np.save(entry, np.asfortranarray(table))
        elif damage == "not_npy":
            entry.write_bytes(b"x,y\n1,2\n")
        elif damage == "npz":
            with open(entry, "wb") as handle:
                np.savez(handle, table)
        else:
            table[0, 1] = np.nan  # a score the sample rejects
            np.save(entry, table)
        assert _same_sample(ingest_csv(path, self.COLUMNS), cold)
        assert entry.read_bytes() == good

    def test_unusable_cache_location(self, tmp_path, monkeypatch):
        path = self._write(tmp_path / "d.csv")
        with _cache_home(tmp_path / "cold"):
            cold = ingest_csv(path, self.COLUMNS)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for _ in range(2):
            assert _same_sample(ingest_csv(path, self.COLUMNS), cold)

    def test_rewritten_file_misses(self, tmp_path, parse_cache):
        path = self._write(tmp_path / "d.csv")
        ingest_csv(path, self.COLUMNS)
        before = os.stat(path)
        # same size, same mtime, other bytes
        self._write(path, ((-0.5, 1.0, 0, 2.0), (0.5, 2.0, 1, "NA"),
                           (0.75, 3.0, 1, 4.5)))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        assert ingest_csv(path, self.COLUMNS).score.tolist() == [
            -0.5, 0.5, 0.75]
        assert len(_entries(parse_cache)) == 2

    def test_file_changed_during_parse_is_not_stored(self, tmp_path,
                                                     monkeypatch,
                                                     parse_cache):
        path = self._write(tmp_path / "d.csv")
        parse = sample_module._ingest_numeric

        def rewrite_then_parse(*args):
            with open(path, "a") as handle:
                handle.write("0.125,5.0,1,1.0\n")
            return parse(*args)

        monkeypatch.setattr(sample_module, "_ingest_numeric",
                            rewrite_then_parse)
        ingest_csv(path, self.COLUMNS)
        assert _entries(parse_cache) == []

    def test_file_rewritten_in_place_during_parse_is_not_stored(
            self, tmp_path, monkeypatch, parse_cache):
        # same inode, size and mtime, other bytes: only the content shows
        path = self._write(tmp_path / "d.csv")
        parse = sample_module._ingest_numeric

        def parse_then_rewrite(*args):
            table = parse(*args)
            before = os.stat(path)
            with open(path, "r+b") as handle:
                handle.seek(-4, os.SEEK_END)
                handle.write(b"9.5\n")
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            return table

        monkeypatch.setattr(sample_module, "_ingest_numeric",
                            parse_then_rewrite)
        ingest_csv(path, self.COLUMNS)
        assert _entries(parse_cache) == []

    def test_hit_survives_a_failed_refresh(self, tmp_path, monkeypatch,
                                           parse_cache):
        # a cache that can be read but not written still serves its entries
        path = self._write(tmp_path / "d.csv")
        cold = ingest_csv(path, self.COLUMNS)

        def read_only(*args, **kwargs):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(sample_module.os, "utime", read_only)
        monkeypatch.setattr(sample_module, "_ingest_numeric", _unparsed)
        monkeypatch.setattr(sample_module, "_ingest_rows", _unparsed)
        assert _same_sample(ingest_csv(path, self.COLUMNS), cold)

    def test_changed_parser_misses(self, tmp_path, monkeypatch, parse_cache):
        path = self._write(tmp_path / "d.csv")
        ingest_csv(path, self.COLUMNS)
        edited = tmp_path / "sample.py"
        edited.write_bytes(pathlib.Path(sample_module.__file__).read_bytes()
                           + b"# edited\n")
        monkeypatch.setattr(sample_module, "__file__", str(edited))
        calls = []
        parse = sample_module._ingest_numeric

        def spy(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(sample_module, "_ingest_numeric", spy)
        ingest_csv(path, self.COLUMNS)
        assert len(calls) == 1
        assert len(_entries(parse_cache)) == 2

    def test_budget_evicts_least_recently_used(self, tmp_path, monkeypatch,
                                               parse_cache):
        paths = [self._write(tmp_path / f"{name}.csv",
                             ((-0.5, 1.0, 0, 2.0), (offset, 2.0, 1, 3.0)))
                 for name, offset in (("a", 0.5), ("b", 0.25), ("c", 0.75))]
        owner = {}
        for name, path in zip("ab", paths):
            known = set(owner)
            ingest_csv(path, self.COLUMNS)
            (entry,) = set(_entries(parse_cache)) - known
            owner[entry] = name
        # a stored, then b stored a second later
        for entry, name in owner.items():
            stamp = 1_000_000_000 * (1_700_000_000 + (name == "b"))
            os.utime(parse_cache / entry, ns=(stamp, stamp))
        size = (parse_cache / entry).stat().st_size
        monkeypatch.setattr(sample_module, "PARSE_CACHE_BYTES", 2 * size)
        ingest_csv(paths[0], self.COLUMNS)  # a hit makes a the newest
        ingest_csv(paths[2], self.COLUMNS)  # c's entry pushes b's out
        left = {owner.get(name, "c") for name in _entries(parse_cache)}
        assert left == {"a", "c"}


class TestByteOrderMark:
    """A header row that starts with a UTF-8 byte-order mark, as Excel's
    "CSV UTF-8" export writes it, reads as the same file without it."""

    COLUMNS = {"score": "x", "outcome": "y", "treatment": "t",
               "covariates": ["z"]}

    TIERS = pytest.mark.parametrize("row_parser", [False, True],
                                    ids=["numeric_tier", "row_parser"])

    @TIERS
    def test_marked_header_reads_the_same_table(self, tmp_path, parse_cache,
                                                monkeypatch, row_parser):
        self._check(tmp_path, parse_cache, monkeypatch, "x,y,t,z",
                    row_parser)

    @TIERS
    def test_mark_before_a_quoted_cell(self, tmp_path, parse_cache,
                                       monkeypatch, row_parser):
        # the csv module reads a quote after the mark as cell text
        self._check(tmp_path, parse_cache, monkeypatch, '"x","y",t,z',
                    row_parser)

    def _check(self, tmp_path, parse_cache, monkeypatch, header,
               row_parser):
        # numpy cannot parse an NA cell, so the row parser reads the file
        cell = "NA" if row_parser else "nan"
        text = (f"{header}\n-0.5,1.0,0,2\n0.5,2.0,1,{cell}\n"
                "0.25,3.0,1,4\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        rows = mock.Mock(wraps=sample_module._ingest_rows)
        with mock.patch.object(sample_module, "_ingest_rows",
                               rows if row_parser else _unparsed):
            want = ingest_csv(str(plain), self.COLUMNS)
            got, digest = ingest_with_digest(str(marked), self.COLUMNS, 0.0,
                                             ",")
        assert rows.call_count == (2 if row_parser else 0)
        assert _same_sample(got, want)
        # the digest is the file's own bytes, mark included
        assert digest == hashlib.sha256(marked.read_bytes()).hexdigest()
        assert len(_entries(parse_cache)) == 2
        monkeypatch.setattr(sample_module, "_ingest_rows", _unparsed)
        monkeypatch.setattr(sample_module, "_ingest_numeric", _unparsed)
        hit, hit_digest = ingest_with_digest(str(marked), self.COLUMNS, 0.0,
                                             ",")
        assert _same_sample(hit, want) and hit_digest == digest


class TestSampleModel:
    def test_arrays_are_frozen(self, step_sample):
        with pytest.raises(ValueError):
            step_sample.score[0] = 9.0

    def test_subset_keeps_only_what_fits_read(self, noisy_sample):
        # a cut holds score, outcome and receipt at the same cutoff
        keep = noisy_sample.score > 0
        sub = noisy_sample.subset(keep)
        assert sub.n == int(keep.sum())
        assert sub.cutoff == noisy_sample.cutoff
        for name in ("score", "outcome", "received"):
            np.testing.assert_array_equal(getattr(sub, name),
                                          getattr(noisy_sample, name)[keep])
        assert sub.covariates == {} and sub.unit_cutoffs is None
        # so does a cut of multi-cutoff data, without its unit cutoffs
        c = np.repeat([0.0, 1.0], 250)
        multi = RdSample(score=noisy_sample.score,
                         outcome=noisy_sample.outcome, cutoff=0.0,
                         unit_cutoffs=c, covariates=noisy_sample.covariates)
        cut = multi.subset(c == 1.0)
        assert cut.unit_cutoffs is None and cut.covariates == {}
        np.testing.assert_array_equal(cut.score, multi.score[250:])
        # a mask that keeps every row is no cut: the sample itself
        assert noisy_sample.subset(np.ones(noisy_sample.n, bool)) \
            is noisy_sample

    def test_replace_outcome(self, noisy_sample):
        z = noisy_sample.covariates["age"]
        s2 = noisy_sample.replace_outcome(z)
        np.testing.assert_array_equal(s2.outcome, z)
        np.testing.assert_array_equal(s2.score, noisy_sample.score)
        # the design arrays are shared, and still frozen
        assert s2.score is noisy_sample.score
        assert s2.received is noisy_sample.received
        assert not (s2.score.flags.writeable
                    or s2.covariates["age"].flags.writeable)

    def test_unit_cutoffs_require_cutoff_zero(self):
        # unit_cutoffs label a centred score, so no other cutoff applies
        with pytest.raises(BadSpec, match="cutoff must be 0"):
            RdSample(score=np.array([0.5, -0.5]), outcome=np.array([1.0, 2.0]),
                     cutoff=1.0, unit_cutoffs=np.array([0.0, 1.0]))

    def test_non_finite_score_rejected_at_construction(self):
        with pytest.raises(NonFiniteScore):
            make_sample([0.0, np.inf], [1.0, 2.0])

    def test_received_must_be_binary(self):
        with pytest.raises(BadTreatmentCode):
            make_sample([0.0, 1.0], [1.0, 2.0], received=[0, 2])


# Scores on a coarse grid that holds both signs of zero, so rows tie with
# each other and with any cutoff drawn from the same grid.
_GRID = st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])


@st.composite
def _split_case(draw):
    """A single-cutoff sample, its cutoff on the score grid (so scores
    equal to it occur) or beyond every score (so one side is empty), or
    a multi-cutoff sample (a centred score with cutoff 0)."""
    x = np.array(draw(st.lists(_GRID, min_size=1, max_size=60)))
    y = np.arange(x.size, dtype=float)
    if draw(st.booleans()):
        cuts = np.array(draw(st.lists(st.sampled_from([10.0, 20.0]),
                                      min_size=x.size, max_size=x.size)))
        return RdSample(score=x, outcome=y, cutoff=0.0, unit_cutoffs=cuts)
    cutoff = draw(st.one_of(_GRID, st.sampled_from([-9.0, 9.0])))
    return RdSample(score=x, outcome=y, cutoff=cutoff)


class TestSideRows:
    @settings(max_examples=300, deadline=None)
    @given(_split_case())
    def test_split_is_flatnonzero_and_its_complement(self, s):
        below, above = s.side_rows
        expected = np.flatnonzero(s.score < s.cutoff)
        assert below.tolist() == expected.tolist()
        assert above.tolist() == np.setdiff1d(np.arange(s.n),
                                              expected).tolist()
        assert below.dtype == above.dtype == np.intp
        assert not (below.flags.writeable or above.flags.writeable)
        assert s.side_rows is s.side_rows

    def test_replace_outcome_reuses_the_split(self, noisy_sample):
        derived = noisy_sample.replace_outcome(noisy_sample.covariates["age"])
        for mine, theirs in zip(derived.side_rows, noisy_sample.side_rows):
            assert mine is theirs

    def test_bandwidth_then_inference_split_once(self, noisy_sample,
                                                 monkeypatch):
        calls = []
        plain = RdSample.side_rows.func

        def counted(sample):
            calls.append(sample)
            return plain(sample)

        prop = cached_property(counted)
        prop.__set_name__(RdSample, "side_rows")
        monkeypatch.setattr(RdSample, "side_rows", prop)
        s = RdSample(score=noisy_sample.score, outcome=noisy_sample.outcome,
                     cutoff=0.0)
        h = select_mse_bandwidth(s).h_mse
        rbc_inference(s, h_below=h)
        assert len(calls) == 1 and calls[0] is s

    def test_racing_threads_agree(self):
        # more workers than cores read the split of one fresh sample at
        # once; at worst each computes it, and all see the same arrays
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200_000)
        s = RdSample(score=x, outcome=x, cutoff=0.0)
        workers = (os.cpu_count() or 1) + 2
        start = threading.Barrier(workers, timeout=30)

        def read(_):
            start.wait()
            return s.side_rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen = run_indexed(read, workers, threads=workers)
        finally:
            sys.setswitchinterval(interval)
        expected = np.flatnonzero(x < 0)
        for below, above in seen:
            assert below.tolist() == expected.tolist()
            assert below.size + above.size == x.size
            assert np.array_equal(above, np.flatnonzero(x >= 0))
        assert any(rows is s.side_rows for rows in seen)
