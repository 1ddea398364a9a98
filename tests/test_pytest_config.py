"""The pytest configuration turns warnings into errors; a failing
hypothesis example must still fail only its own test. Hypothesis imports
``libcst`` to report the example, and that import warns."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_example_fails_only_its_test(tmp_path):
    (tmp_path / "test_example.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """), encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_example.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    # exit code 3 is pytest's internal error, which ends the whole session
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
