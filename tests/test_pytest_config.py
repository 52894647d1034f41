"""The repository's pytest configuration against a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_failing_property_test_reports_its_example(tmp_path):
    """Warnings are errors, yet a failing @given test still ends as a plain failure (exit 1)
    that prints its falsifying example, not as an INTERNALERROR (exit 3) that hides it."""
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
