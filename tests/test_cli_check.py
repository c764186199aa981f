"""`check` of tests/cli_check.sh, sourced in bash against a stub `python -m toepcalc`."""

import subprocess
from pathlib import Path

import pytest

HELPER = Path(__file__).with_name("cli_check.sh")

# argv: SLEEP CODE prints a report, sleeps and exits with CODE; `raise` prints the report, then a traceback (exit 1)
STUB = """import sys, time
print("report")
if sys.argv[1] == "raise":
    raise RuntimeError("after the report")
time.sleep(float(sys.argv[1]))
sys.exit(int(sys.argv[2]))
"""


@pytest.mark.parametrize(
    "script, passes",
    [
        ('check 20 2 0 2; test "$(cat "$d/out")" = report', True),
        ("check 20 1 raise", False),
        ("check 20 0 0 2", False),
        ("check 1 0 5 0", False),
    ],
)
def test_check_passes_only_the_expected_code_without_traceback_in_time(tmp_path, script, passes):
    package = tmp_path / "src" / "toepcalc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(STUB)
    run = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", f'. "{HELPER}"; {script}'],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert (run.returncode == 0) is passes, run.stdout + run.stderr
