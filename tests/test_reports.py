import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdtoolkit
from rdtoolkit.reports import (
    SCHEMA,
    canonical_json,
    jsonable,
    make_report,
    write_report,
)
from rdtoolkit.sample import sha256_file


@dataclasses.dataclass(frozen=True)
class Inner:
    values: tuple[float, ...]
    label: str


@dataclasses.dataclass(frozen=True)
class Outer:
    inner: Inner
    count: int
    ratio: float


class TestJsonable:
    def test_passthrough_scalars(self):
        assert jsonable(None) is None
        assert jsonable(True) is True
        assert jsonable(7) == 7
        assert jsonable("x") == "x"
        assert jsonable(1.5) == 1.5

    def test_non_finite_floats_become_null(self):
        assert jsonable(float("nan")) is None
        assert jsonable(float("inf")) is None
        assert jsonable(float("-inf")) is None
        assert jsonable([1.0, float("nan")]) == [1.0, None]

    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float64(2.5)) == 2.5
        assert jsonable(np.int32(4)) == 4
        assert jsonable(np.bool_(True)) is True
        assert jsonable(np.array([1.0, np.nan])) == [1.0, None]
        assert jsonable(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_nested_dataclasses(self):
        doc = Outer(inner=Inner(values=(1.0, float("nan")), label="a"),
                    count=3, ratio=0.5)
        assert jsonable(doc) == {
            "inner": {"values": [1.0, None], "label": "a"},
            "count": 3, "ratio": 0.5}

    def test_dataclass_inside_containers(self):
        inner = Inner(values=(0.5,), label="b")
        expected = {"values": [0.5], "label": "b"}
        assert jsonable({"k": inner}) == {"k": expected}
        assert jsonable([inner, 1]) == [expected, 1]
        assert jsonable((inner,)) == [expected]

    def test_numpy_values_inside_a_dataclass(self):
        doc = Outer(inner=Inner(values=np.array([1.0, np.inf]), label="c"),
                    count=np.int64(2), ratio=np.float64(np.nan))
        assert jsonable(doc) == {
            "inner": {"values": [1.0, None], "label": "c"},
            "count": 2, "ratio": None}

    def test_dict_keys_coerced_to_str(self):
        assert jsonable({1: "a"}) == {"1": "a"}

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            jsonable(object())
        with pytest.raises(TypeError):
            jsonable({"f": lambda: 0})

    def test_dataclass_class_rejected(self):
        # only an instance has field values to write
        with pytest.raises(TypeError, match="type"):
            jsonable(Inner)
        with pytest.raises(TypeError):
            jsonable({"cls": Outer})

    def test_plain_document_loads_no_dataclasses(self):
        # dataclasses are read through sys.modules, as numpy is
        doc = {"a": [1.5, None]}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from rdtoolkit.reports import canonical_json\n"
             f"sys.stdout.write(canonical_json({doc!r}))\n"
             "print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == canonical_json(doc) + "[]\n"


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_no_nan_tokens_ever(self):
        text = canonical_json({"x": float("nan"), "y": [float("inf")]})
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"x": None, "y": [None]}

    def test_byte_determinism(self):
        doc = {"z": [1.0, 2.0], "a": {"k": np.float64(0.1)}}
        assert canonical_json(doc) == canonical_json(doc)

    # sha256 of canonical_json, recorded while reports imported numpy at
    # module level and converted numpy values before containers
    @pytest.mark.parametrize("doc, digest", [
        ({"a": np.float32(0.1), "b": [np.float32(np.nan), np.float32(3.5)]},
         "1b7098de2637e4024e0c7abcc3fa66bfaf532511bcc870b573ba6e7158495944"),
        ({"n": np.int64(7), "m": [np.int64(-2 ** 40)]},
         "13d49e3826d755f9711795fb63088ad741bc071f861adcc875d32a71deb4c69c"),
        ({"t": np.bool_(True), "f": [np.bool_(False)]},
         "c4f2cb90ee285c284b05b612bd194718a43cab565014f44ffee889118581cc8f"),
        ({"v": np.array([1.5, np.nan, -np.inf, 2.0]), "i": np.arange(3),
          "m": np.array([[1.0, np.nan], [0.25, 3.0]])},
         "cc09fdd186183da97b9127b496f433788f0c8ff1af984fd0a8af4c6702fe14e5"),
    ], ids=["float32", "int64", "bool_", "ndarray"])
    def test_numpy_values_keep_their_bytes(self, doc, digest):
        text = canonical_json(doc)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_round_trips_through_json(self):
        doc = {"a": [1, 2.5, None, "s", True], "b": {"c": -0.0}}
        assert json.loads(canonical_json(doc)) == doc

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.recursive(
            st.none() | st.booleans() | st.integers(-2 ** 40, 2 ** 40)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
            lambda kids: st.lists(kids, max_size=3),
            max_leaves=10),
        max_size=5))
    def test_always_parseable_and_stable(self, doc):
        text = canonical_json(doc)
        parsed = json.loads(text)
        assert canonical_json(parsed) == text
        keys = list(parsed.keys())
        assert keys == sorted(keys)


class TestDigest:
    def test_matches_hashlib(self, tmp_path):
        f = tmp_path / "data.csv"
        payload = b"score,outcome\n0.1,2.0\n-0.3,1.5\n"
        f.write_bytes(payload)
        assert sha256_file(f) == hashlib.sha256(payload).hexdigest()

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty"
        f.write_bytes(b"")
        assert sha256_file(f) == hashlib.sha256(b"").hexdigest()

    def test_large_file_chunking(self, tmp_path):
        f = tmp_path / "big"
        payload = bytes(range(256)) * 1024  # 256 KiB, spans several blocks
        f.write_bytes(payload)
        assert sha256_file(f) == hashlib.sha256(payload).hexdigest()


class TestEnvelope:
    def test_make_report_fields(self):
        rep = make_report("estimate", {"tau": 1.0}, {"p": 1}, seed=5,
                          input_digest="ab" * 32)
        assert rep["schema"] == SCHEMA
        assert rep["kind"] == "estimate"
        assert rep["toolkit_version"] == rdtoolkit.__version__
        assert rep["config"] == {"p": 1}
        assert rep["seed"] == 5
        assert rep["input_digest"] == "ab" * 32
        assert rep["result"] == {"tau": 1.0}

    def test_optional_fields_default_to_null(self):
        rep = make_report("power", {}, {})
        assert rep["seed"] is None
        assert rep["input_digest"] is None

    def test_write_report_bytes(self, tmp_path):
        out = tmp_path / "report.json"
        rep = make_report("estimate", {"tau": 0.5}, {"h": 0.3}, seed=1)
        write_report(out, rep)
        raw = out.read_bytes()
        assert raw == canonical_json(rep).encode()
        assert raw.endswith(b"}\n")
        assert b"\r" not in raw
