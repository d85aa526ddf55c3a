"""The suite's own settings (``pyproject.toml``): a failing hypothesis
property is reported and the session goes on, and a numpy deprecation
met in fwave code still fails its test. Each case runs pytest in a
subprocess, with the repo's config, on a test file written for it."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pytest(tmp_path, source):
    test = tmp_path / "test_case.py"
    test.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", ROOT, "-p", "no:cacheprovider", "-q", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout + proc.stderr


def test_failing_property_does_not_end_the_session(tmp_path):
    rc, out = _pytest(tmp_path, '''
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_property(x):
    assert x < 0

def test_after():
    pass
''')
    assert rc == 1, out
    assert "INTERNALERROR" not in out, out
    assert re.search(r"\b1 failed, 1 passed\b", out), out


def test_numpy_deprecation_in_fwave_code_fails(tmp_path):
    # np.row_stack, a deprecated numpy alias, stands in for np.concatenate
    # in the CSV reader, so numpy warns from inside fwave's code
    rc, out = _pytest(tmp_path, '''
import types

import numpy as np

import fwave.dataio

def test_load(tmp_path, monkeypatch):
    shim = types.SimpleNamespace(**{**vars(np), "concatenate": np.row_stack})
    monkeypatch.setattr(fwave.dataio, "np", shim)
    path = tmp_path / "r.csv"
    path.write_text("# fs=200\\n1\\n2\\n")
    fwave.dataio.load_recording(path)
''')
    assert rc == 1, out
    assert re.search(r"\b1 failed\b", out) and "DeprecationWarning" in out, out
