"""The repository's pytest configuration, exercised on a throwaway test tree."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """A failing `@given` test is reported as failed, and the tests after it still run.

    Hypothesis's report hook imports libcst on a failure; a warning raised
    there under `filterwarnings = ["error"]` would end the whole session
    with INTERNALERROR.
    """
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    (tests / "test_b.py").write_text("def test_passes():\n    assert True\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
