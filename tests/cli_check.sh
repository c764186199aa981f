# Sourced from the repository root by the CLI steps of .github/workflows/tests.yml.
# Makes a fresh directory $d and defines `check SECONDS CODE ARGS...`, which runs
# `python -m toepcalc ARGS` from src/ under `timeout SECONDS`, stdout to $d/out and
# stderr to $d/err (printed), and fails unless the run exits with exactly CODE and
# prints no traceback.
d=$(mktemp -d)
check() {
  local code=0
  PYTHONPATH=src timeout "$1" python -m toepcalc "${@:3}" >"$d/out" 2>"$d/err" || code=$?
  cat "$d/err"
  test "$code" -eq "$2" || { echo "exit code $code, expected $2" >&2; return 1; }
  ! grep -q Traceback "$d/err"
}
