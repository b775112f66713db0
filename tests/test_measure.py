"""The CI wrapper ``.github/measure.py``, run as CI runs it: a child
process timing another child process."""

import re
import subprocess
import sys
from pathlib import Path

MEASURE = Path(__file__).resolve().parent.parent / ".github" / "measure.py"


def measure(*argv):
    return subprocess.run(
        [sys.executable, str(MEASURE), *argv], capture_output=True, text=True, timeout=60
    )


def test_under_the_limit_prints_the_line_and_exits_0():
    run = measure("quiet", "100000", "--", sys.executable, "-c", "pass")
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"quiet: \d+\.\d\d s wall, \d+ MB peak RSS\n", run.stdout)


def test_over_the_limit_fails():
    run = measure("tight", "0.001", "--", sys.executable, "-c", "pass")
    assert run.returncode != 0
    assert run.stdout.startswith("tight: ")
    assert "tight: peak RSS over 0.001 MB" in run.stderr


def test_the_command_exit_code_passes_through_with_no_limit():
    run = measure("three", "none", "--", sys.executable, "-c", "raise SystemExit(3)")
    assert run.returncode == 3
    assert run.stdout.startswith("three: ")


def test_a_missing_separator_prints_the_usage():
    run = measure("bare", "none", sys.executable, "-c", "pass")
    assert run.returncode != 0
    assert "python .github/measure.py LABEL LIMIT_MB -- CMD..." in run.stderr
    assert run.stdout == ""
