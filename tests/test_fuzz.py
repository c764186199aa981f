"""Fuzz test of the command line: generated tower files, code files, scale
strings and numeric flags, extreme values included, never raise out of
``run_command`` and never take more than 2 s."""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from toepcalc import serialize_tower
from toepcalc.cli import run_command
from toepcalc.randomgen import random_tower

BIG = (10**9, -(10**12), 2**70, -(2**70), 10**23)
# literals int() refuses: a digit that is not decimal, and more digits than Python's int-string limit
UNREADABLE = ("²", "9" * 5000)
numbers = st.one_of(st.sampled_from((0, 1, 2, 5, -1, *BIG, *UNREADABLE)), st.integers(-40, 40))
flags = st.one_of(numbers.map(str), st.sampled_from(("", "x", "1.5", "1e3", "--", "٣")))

scales = st.one_of(
    st.sampled_from(
        ("2^inf * 5", "2^inf * 3^inf", "5", "1", "0", "2^-1", "inf", "2^inf *", "3 * 3", "9999991^inf", *UNREADABLE)
    ),
    st.lists(
        st.tuples(st.sampled_from((2, 3, 4, 5, 7, 9999991, 2**61 - 1, 2**89 - 1)), st.one_of(numbers, st.just("inf"))),
        min_size=1,
        max_size=3,
    ).map(lambda fs: " * ".join(f"{p}^{e}" for p, e in fs)),
    st.text(max_size=12),
)


@st.composite
def tower_texts(draw):
    """Tower files: a seeded random tower, one with a line replaced, or
    arbitrary text."""
    kind = draw(st.sampled_from(("random", "random", "edited", "text")))
    if kind == "text":
        return draw(st.text(max_size=80))
    t = random_tower(
        random.Random(draw(st.integers(0, 2**32))),
        symbols=draw(st.sampled_from((("0", "1"), ("0", "1"), ("0", "1", "2"), ("0", "01", "10")))),
        depth=draw(st.integers(1, 3)),
        fill=draw(st.sampled_from((0.0, 0.5, 0.8, 1.0))),
        with_scale=draw(st.booleans()),
    )
    lines = serialize_tower(t).splitlines()
    if kind == "edited":
        i = draw(st.integers(0, len(lines) - 1))
        edits = (f"period {draw(numbers)} = 0 1", f"scale = {draw(scales)}", "", lines[i][:-2])
        lines[i] = draw(st.sampled_from(edits))
    return "\n".join(lines)


@st.composite
def code_texts(draw):
    """Code files: a total radius-``m`` table over 0 1 for small ``m``,
    sometimes with a broken or repeated line or a header with a drawn length,
    or only such a header (so the length reaches the window count, not a row)."""
    if not draw(st.integers(0, 4)):
        return f"len = {draw(flags)}"
    m = draw(st.integers(0, 1))
    width = 2 * m + 1
    rows = [f"{' '.join(format(x, f'0{width}b'))} -> {draw(st.sampled_from('01'))}" for x in range(2**width)]
    if not draw(st.integers(0, 3)):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(("0 -> 0", "0 0 0 -> 2", "", "x", rows[0])))
    header = f"len = {m if draw(st.integers(0, 3)) else draw(flags)}"
    return "\n".join((header, *rows))


@st.composite
def commands(draw, a, b, code, directory, out):
    fmt = draw(st.sampled_from(((), ("--format", "json"))))
    n = draw(flags)
    perms = draw(st.sampled_from(("1,0", "1,0;0,1", "0,1;", "2,0")))
    argv = draw(
        st.sampled_from(
            (
                ("validate", a),
                ("analyze", a, "--report-depth", n),
                ("factor", "--scale", draw(scales), "--count", n),
                ("compare", a, b, "--max-radius", n),
                ("invariant", a, b, "--stages", n),
                ("generate", "paper-example", "--stages", n, "-o", out),
                ("apply-code", a, "--code", code, "-o", out),
                ("permute", a, "--period", n, "--perms", perms, "-o", out),
                ("rotate", a, "-k", n, "-o", out),
                ("corpus", directory, "--max-radius", n),
            )
        )
    )
    return [*fmt, *argv]


@settings(max_examples=150, deadline=None)
@given(st.data(), tower_texts(), tower_texts(), code_texts())
def test_cli_never_raises_and_stays_fast(tmp_path_factory, data, text_a, text_b, code_text):
    directory = tmp_path_factory.mktemp("fuzz")
    a, b, code, out = (directory / name for name in ("a.tw", "b.tw", "code.txt", "out.txt"))
    a.write_text(text_a, encoding="utf-8")
    b.write_text(text_b, encoding="utf-8")
    code.write_text(code_text, encoding="utf-8")
    argv = data.draw(commands(str(a), str(b), str(code), str(directory), str(out)))
    start = time.perf_counter()
    exit_code, report = run_command(argv)
    assert time.perf_counter() - start < 2.0, argv
    assert exit_code in (0, 1, 2, 3) and isinstance(report, str), argv
