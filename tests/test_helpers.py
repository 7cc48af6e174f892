"""The shared test helpers of ``conftest``: the one child-process runner
and the failure-contract check."""

import json
import subprocess
import time

import pytest

import conftest
from conftest import error_of, run_child

ERROR = '{\n  "error": {\n    "kind": "data",\n    "message": "m",\n' \
        '    "type": "T"\n  }\n}\n'


def test_child_that_hangs_fails_at_the_timeout(monkeypatch):
    monkeypatch.setattr(conftest, "CHILD_TIMEOUT", 0.5)
    start = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        run_child(["-c", "import time; time.sleep(60)"])
    assert time.monotonic() - start < 10


def test_child_runs_on_the_package_source():
    proc = run_child(["-c", "import rdtoolkit; print(rdtoolkit.__file__)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(str(conftest.ROOT / "src" / "rdtoolkit"))


def test_error_of_returns_the_error_object():
    assert error_of(2, "", ERROR, "data") == {
        "kind": "data", "message": "m", "type": "T"}


@pytest.mark.parametrize("code, out, err, kind", [
    (1, "", ERROR, "data"),
    (2, "** On entry to DLASCL\n", ERROR, "data"),
    (2, "", "RuntimeWarning: overflow\n" + ERROR, "data"),
    (2, "", ERROR + ERROR, "data"),
    (2, "", json.dumps(json.loads(ERROR)), "data"),
    (2, "", ERROR.replace('"data"', '"usage"'), "data"),
], ids=["other-code", "stdout", "warning", "two-documents", "not-canonical",
        "other-kind"])
def test_error_of_refuses_a_breach(code, out, err, kind):
    with pytest.raises((AssertionError, ValueError)):
        error_of(code, out, err, kind)
